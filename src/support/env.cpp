#include "support/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <system_error>

#include "support/error.hpp"

namespace ccaperf {

namespace {

[[noreturn]] void reject(const char* name, std::string_view value,
                         const std::string& want) {
  raise(std::string(name) + "=\"" + std::string(value) + "\": want " + want);
}

}  // namespace

std::string_view env_text(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string_view{} : std::string_view{v};
}

std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi) {
  const std::string_view v = env_text(name);
  if (v.empty()) return fallback;
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc{} || ptr != end || n < lo || n > hi)
    reject(name, v, "a decimal integer in " + std::to_string(lo) + ".." +
                        std::to_string(hi));
  return n;
}

double env_positive_double(const char* name, double fallback) {
  const std::string_view v = env_text(name);
  if (v.empty()) return fallback;
  double x = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc{} || ptr != end || !std::isfinite(x) || !(x > 0.0))
    reject(name, v, "a positive decimal number");
  return x;
}

}  // namespace ccaperf
