// The deadlock watchdog (CCAPERF_WATCHDOG_SECONDS): a genuinely stuck run
// must abort with a diagnosable exception instead of hanging; healthy runs
// must be unaffected; and the env handling must be robust.

#include <gtest/gtest.h>

#include <cstdlib>

#include "mpp/runtime.hpp"
#include "support/error.hpp"

namespace {

struct WatchdogEnv {
  explicit WatchdogEnv(const char* value) {
    ::setenv("CCAPERF_WATCHDOG_SECONDS", value, 1);
  }
  ~WatchdogEnv() { ::unsetenv("CCAPERF_WATCHDOG_SECONDS"); }
};

TEST(Watchdog, AbortsAStuckReceive) {
  WatchdogEnv env("1");
  bool threw = false;
  try {
    mpp::Runtime::run(2, [](mpp::Comm& world) {
      if (world.rank() == 0) {
        int v = 0;
        world.recv_bytes(&v, sizeof v, 1, 0);  // never sent
      }
      // rank 1 exits immediately
    });
  } catch (const ccaperf::Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("aborted"), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

TEST(Watchdog, AbortsAStuckCollective) {
  WatchdogEnv env("1");
  EXPECT_THROW(mpp::Runtime::run(2,
                                 [](mpp::Comm& world) {
                                   if (world.rank() == 0) world.barrier();
                                   // rank 1 never joins the barrier
                                 }),
               ccaperf::Error);
}

TEST(Watchdog, HealthyRunUnaffected) {
  WatchdogEnv env("30");
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    const double sum = world.allreduce_value<>(1.0);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

TEST(Watchdog, ZeroAndEmptyDisableItAndGarbageRaises) {
  for (const char* off : {"0", ""}) {
    WatchdogEnv env(off);
    mpp::Runtime::run(2, [](mpp::Comm& world) { world.barrier(); });
  }
  WatchdogEnv env("not-a-number");
  try {
    mpp::Runtime::run(2, [](mpp::Comm& world) { world.barrier(); });
    ADD_FAILURE() << "accepted CCAPERF_WATCHDOG_SECONDS=not-a-number";
  } catch (const ccaperf::Error& e) {
    EXPECT_NE(std::string(e.what()).find("CCAPERF_WATCHDOG_SECONDS"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
