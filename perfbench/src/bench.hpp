#pragma once
// Shared types of the end-to-end benchmark: run options, the result every
// workload returns, the reference values it checks against, and the
// statistics helpers.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string references = "perfbench/references.txt";
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

/// Stored per-workload references (perfbench/references.txt).
struct References {
  std::map<std::string, std::uint64_t> digest;  ///< workload -> density digest
  std::vector<std::uint64_t> l2_misses;         ///< characterize, per probe
  std::string flux_fast = "EFMFlux";            ///< optimizer pick at w = 0
  std::string flux_accurate = "GodunovFlux";    ///< pick at high w
};

References load_references(const std::string& path);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Result {
  std::vector<Metric> end_to_end;  ///< contract metrics (untraced run)
  std::vector<Metric> named;       ///< the workload's own names for them
  std::vector<Metric> per_layer;   ///< traced run only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::string config_json;            ///< full workload configuration
  std::vector<std::string> digests;   ///< hex digests seen (checks/tests)
  std::vector<Span> spans;  ///< traced spans written out at the end

  void fail(const std::string& why) {
    if (failures.size() < 8) failures.push_back(why);
  }
};

Result run_amr(const Options& opt, const References& ref);
Result run_tenants(const Options& opt, const References& ref);
Result run_characterize(const Options& opt, const References& ref);

// --- helpers --------------------------------------------------------------

/// Linear-interpolated quantile (numpy default) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string hex64(std::uint64_t v);

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MB. Where
/// the counter cannot be reset, the process lifetime peak.
double peak_rss_mb();
void reset_peak_rss();

/// The hardware-counter backend an instrumented assembly installs here
/// ("sim" or "perf").
std::string counter_backend();

/// FNV-1a helpers for density digests.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= static_cast<std::uint8_t>(v >> (8 * b));
    h *= 1099511628211ull;
  }
}

/// The contract's end-to-end metric set, from unit wall times (ms), the
/// set-up samples (s), the units per second of the timed loop and the peak
/// RSS of each window the workload sampled (MB; the median is reported).
std::vector<Metric> end_to_end_metrics(const std::vector<double>& unit_ms,
                                       const std::vector<double>& setup_s,
                                       double units_per_s,
                                       const std::vector<double>& rss_mb);

/// Per-span-kind totals over a set of spans.
struct KindTotals {
  std::int64_t self_ns[static_cast<int>(SpanKind::kCount)] = {};
  std::int64_t dur_ns[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t count[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t a[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t b[static_cast<int>(SpanKind::kCount)] = {};

  void add(const std::vector<Span>& spans);
  double self_us(SpanKind k) const { return self_ns[static_cast<int>(k)] * 1e-3; }
  double dur_us(SpanKind k) const { return dur_ns[static_cast<int>(k)] * 1e-3; }
  std::uint64_t n(SpanKind k) const { return count[static_cast<int>(k)]; }
  std::uint64_t work_a(SpanKind k) const { return a[static_cast<int>(k)]; }
  std::uint64_t work_b(SpanKind k) const { return b[static_cast<int>(k)]; }
};

/// Splits each collective span into skew (waiting for the last rank to
/// arrive) and algorithm time (last arrival to this rank's exit), matching
/// the k-th collective across ranks. Adds to the two accumulators (ns).
void split_collectives(const std::vector<Span>& spans, double& skew_ns,
                       double& algo_ns);

/// The per-layer metric set of the traced run. Every workload reports every
/// name; layers a workload does not exercise read 0.
struct Ledger {
  std::map<std::string, double> v;
  void set(const std::string& name, double value) { v[name] = value; }
  std::vector<Metric> metrics() const;
};

/// Traced against untraced median unit time, in percent.
double overhead_pct(const std::vector<double>& traced_ms,
                    const std::vector<double>& plain_ms);

/// Monitoring cost from both sides of the proxies: outer spans' self time.
void set_monitor_metrics(Ledger& led, const KindTotals& t, double thread_wall_us);
/// Kernel layer: inner States / flux spans.
void set_euler_metrics(Ledger& led, const KindTotals& t, double units);

}  // namespace perfbench
