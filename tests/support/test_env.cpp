// The CCAPERF_* readers (support/env.hpp): unset and empty mean the
// default, anything that is not wholly a decimal number in range raises
// ccaperf::Error naming the variable — directly, and through each layer
// that reads a knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>

#include "core/governor.hpp"
#include "hwc/cache_sim.hpp"
#include "mpp/fault.hpp"
#include "mpp/runtime.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace {

constexpr const char* kVar = "CCAPERF_TEST_ENV_KNOB";

/// Sets `name` for the scope; unsets it on exit.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    EXPECT_EQ(::setenv(name, value, 1), 0);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// `read` must raise ccaperf::Error whose message names `name`, with
/// `name` set to `value`.
void expect_rejects(const char* name, const char* value,
                    const std::function<void()>& read) {
  ScopedEnv env(name, value);
  try {
    read();
    ADD_FAILURE() << "accepted " << name << "=\"" << value << "\"";
  } catch (const ccaperf::Error& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

TEST(Env, TextIsEmptyWhenUnsetOrEmpty) {
  ::unsetenv(kVar);
  EXPECT_TRUE(ccaperf::env_text(kVar).empty());
  {
    ScopedEnv env(kVar, "");
    EXPECT_TRUE(ccaperf::env_text(kVar).empty());
  }
  ScopedEnv env(kVar, "out/run.json");
  EXPECT_EQ(ccaperf::env_text(kVar), "out/run.json");
}

TEST(Env, UintDefaultsAndRangeEdges) {
  ::unsetenv(kVar);
  EXPECT_EQ(ccaperf::env_uint(kVar, 7, 2, 9), 7u);
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(ccaperf::env_uint(kVar, 7, 2, 9), 7u);
  }
  for (const char* ok : {"2", "9", "5", "007"}) {
    ScopedEnv env(kVar, ok);
    EXPECT_EQ(ccaperf::env_uint(kVar, 7, 2, 9), std::stoull(ok)) << ok;
  }
  {
    ScopedEnv env(kVar, "18446744073709551615");
    EXPECT_EQ(ccaperf::env_uint(kVar, 0, 0, UINT64_MAX), UINT64_MAX);
  }
  const auto read = [] { (void)ccaperf::env_uint(kVar, 7, 2, 9); };
  for (const char* bad : {"1", "10", "abc", "6x", "-1", "+5", " 5", "5 ",
                          "0x5", "5.0", "18446744073709551616"})
    expect_rejects(kVar, bad, read);
}

TEST(Env, PositiveDoubleDefaultsAndRejects) {
  ::unsetenv(kVar);
  EXPECT_EQ(ccaperf::env_positive_double(kVar, 2.0), 2.0);
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(ccaperf::env_positive_double(kVar, 2.0), 2.0);
  }
  for (const auto& [text, value] :
       {std::pair{"2", 2.0}, {"0.5", 0.5}, {"1e3", 1e3}, {"2.75", 2.75}}) {
    ScopedEnv env(kVar, text);
    EXPECT_EQ(ccaperf::env_positive_double(kVar, 2.0), value) << text;
  }
  const auto read = [] { (void)ccaperf::env_positive_double(kVar, 2.0); };
  for (const char* bad : {"0", "-1", "2abc", "abc", " 2", "+2", "inf", "nan",
                          "1e999"})
    expect_rejects(kVar, bad, read);
}

TEST(Env, ThreadsKeepsItsClampAndRejectsGarbage) {
  ::unsetenv("CCAPERF_THREADS");
  EXPECT_EQ(ccaperf::configured_threads(), 1);
  for (const auto& [text, lanes] :
       {std::pair{"", 1}, {"0", 1}, {"1", 1}, {"256", 256}, {"257", 256}}) {
    ScopedEnv env("CCAPERF_THREADS", text);
    EXPECT_EQ(ccaperf::configured_threads(), lanes) << text;
  }
  const auto read = [] { (void)ccaperf::configured_threads(); };
  expect_rejects("CCAPERF_THREADS", "abc", read);
  expect_rejects("CCAPERF_THREADS", "6x", read);
}

TEST(Env, OverheadBudgetRejectsTrailingGarbage) {
  ::unsetenv("CCAPERF_OVERHEAD_PCT");
  EXPECT_FALSE(core::GovernorConfig::from_env().enabled);
  {
    ScopedEnv env("CCAPERF_OVERHEAD_PCT", "");
    EXPECT_FALSE(core::GovernorConfig::from_env().enabled);
  }
  expect_rejects("CCAPERF_OVERHEAD_PCT", "2abc",
                 [] { (void)core::GovernorConfig::from_env(); });
}

TEST(Env, FaultSeedOverridesThePlanAndRejectsGarbage) {
  ScopedEnv plan("CCAPERF_FAULT_PLAN", "moderate");
  ::unsetenv("CCAPERF_FAULT_SEED");
  EXPECT_EQ(mpp::FaultSpec::from_env().seed, mpp::FaultSpec::moderate().seed);
  {
    ScopedEnv seed("CCAPERF_FAULT_SEED", "");
    EXPECT_EQ(mpp::FaultSpec::from_env().seed,
              mpp::FaultSpec::moderate().seed);
  }
  {
    ScopedEnv seed("CCAPERF_FAULT_SEED", "12");
    EXPECT_EQ(mpp::FaultSpec::from_env().seed, 12u);
  }
  expect_rejects("CCAPERF_FAULT_SEED", "12x",
                 [] { (void)mpp::FaultSpec::from_env(); });
}

TEST(Env, WatchdogRejectsGarbage) {
  expect_rejects("CCAPERF_WATCHDOG_SECONDS", "abc", [] {
    mpp::Runtime::run(1, [](mpp::Comm&) {});
  });
}

TEST(Env, CacheSimStrideRange) {
  ::unsetenv("CCAPERF_CACHESIM_SAMPLE");
  EXPECT_EQ(hwc::env_sample_stride(), 1u);
  {
    ScopedEnv env("CCAPERF_CACHESIM_SAMPLE", "1048576");
    EXPECT_EQ(hwc::env_sample_stride(), 1u << 20);
  }
  const auto read = [] { (void)hwc::env_sample_stride(); };
  expect_rejects("CCAPERF_CACHESIM_SAMPLE", "0", read);
  expect_rejects("CCAPERF_CACHESIM_SAMPLE", "1048577", read);
}

}  // namespace
