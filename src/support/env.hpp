#pragma once
// Strict readers for the CCAPERF_* run-time knobs (README "Environment
// knobs" lists every one). This is the only place that reads the process
// environment; each knob's meaning stays in the layer that calls the
// reader.
//
//  - Unset and empty both mean "use the default", for every knob.
//  - A value that is not wholly a decimal number, or lies outside the
//    knob's range, raises ccaperf::Error naming the variable.
//  - Nothing is cached: every call reads the environment afresh, so a test
//    can change a variable between calls.
//  - The success path does not allocate (hwc::env_sample_stride() runs once
//    per counted sweep).

#include <cstdint>
#include <string_view>

namespace ccaperf {

/// The value of `name`; empty when unset or empty. The view points into
/// the environment, so it is valid until the variable is next modified.
std::string_view env_text(const char* name);

/// `name` as a plain decimal count (digits only: no sign, space or suffix)
/// in [lo, hi]; `fallback` when unset or empty.
std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi);

/// `name` as a finite decimal number > 0 (e.g. `2`, `0.5`, `1e3`; no sign
/// or space); `fallback` when unset or empty.
double env_positive_double(const char* name, double fallback);

}  // namespace ccaperf
