// Mastermind monitoring: per-invocation wall/MPI/compute attribution via
// TAU query differencing, parameter and counter capture, nesting, CSV
// dumps, and error handling — all through the MonitorPort handle surface
// (register_method + start/stop by MethodHandle) the proxies use.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mastermind.hpp"
#include "core/tau_component.hpp"
#include "mpp/runtime.hpp"

namespace {

/// Framework with just TAU + Mastermind wired together.
struct Rig {
  cca::Framework fw;
  core::MastermindComponent* mm;
  core::TauMeasurementComponent* tau;

  Rig() : fw(make_repo()) {
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.connect("mm", "measurement", "tau", "measurement");
    mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
    tau = dynamic_cast<core::TauMeasurementComponent*>(&fw.component("tau"));
  }

  /// Registers `key` (and its parameter names) for monitoring.
  core::MethodHandle method(const std::string& key,
                            const std::vector<std::string>& params = {}) {
    return mm->register_method(key, params);
  }

  static cca::ComponentRepository make_repo() {
    cca::ComponentRepository repo;
    repo.register_class("TauMeasurement",
                        [] { return std::make_unique<core::TauMeasurementComponent>(); });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    return repo;
  }
};

void spin_ms(double ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::duration<double, std::milli>(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Mastermind, RecordsWallTimeAndParams) {
  Rig rig;
  const auto f = rig.method("m::f()", {"Q"});
  const double q = 1234.0;
  rig.mm->start(f, {&q, 1});
  spin_ms(2.0);
  rig.mm->stop(f);

  const core::Record* rec = rig.mm->record("m::f()");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->count(), 1u);
  const core::Invocation& inv = rec->invocations()[0];
  EXPECT_GE(inv.wall_us, 1800.0);
  EXPECT_DOUBLE_EQ(inv.params.at("Q"), 1234.0);
  // No MPI inside: compute == wall.
  EXPECT_NEAR(inv.compute_us, inv.wall_us, 1.0);
  EXPECT_NEAR(inv.mpi_us, 0.0, 1.0);
}

TEST(Mastermind, CreatesProxyTimerInTau) {
  Rig rig;
  const auto h = rig.method("sc_proxy::compute()");
  rig.mm->start(h, {});
  rig.mm->stop(h);
  tau::Registry& reg = rig.tau->registry();
  ASSERT_TRUE(reg.has_timer("sc_proxy::compute()"));
  EXPECT_EQ(reg.calls(reg.timer("sc_proxy::compute()")), 1u);
  EXPECT_EQ(reg.stats_at(reg.timer("sc_proxy::compute()")).group, "PROXY");
}

TEST(Mastermind, AttributesMpiTimePerInvocation) {
  // Monitored method containing a modeled-latency receive: mpi_us must
  // capture the wait, compute_us the remainder.
  mpp::NetworkModel net;
  net.latency_us = 3000.0;
  mpp::Runtime::run(2, net, [](mpp::Comm& world) {
    Rig rig;  // installs hooks into this rank's registry
    const auto recv = rig.method("m::recv()");
    if (world.rank() == 0) {
      // Send only once rank 1 is about to open its window, so the data's
      // modeled latency always lands inside the monitored receive however
      // the two rank threads are scheduled.
      int go = 0;
      world.recv_bytes(&go, sizeof go, 1, 1);
      int v = 1;
      world.send_bytes(&v, sizeof v, 1, 0);
    } else {
      const int go = 1;
      world.send_bytes(&go, sizeof go, 0, 1);  // buffered: returns at once
      rig.mm->start(recv, {});
      int v = 0;
      world.recv_bytes(&v, sizeof v, 0, 0);
      spin_ms(1.0);
      rig.mm->stop(recv);
      const auto& inv = rig.mm->record("m::recv()")->invocations()[0];
      EXPECT_GE(inv.mpi_us, 2500.0);
      EXPECT_GE(inv.compute_us, 800.0);
      EXPECT_NEAR(inv.wall_us, inv.mpi_us + inv.compute_us, 1.0);
    }
  });
}

TEST(Mastermind, SeparatesConsecutiveInvocationsMpiTime) {
  // Cumulative TAU counters differenced per invocation: the second
  // invocation must not inherit the first one's MPI time.
  mpp::NetworkModel net;
  net.latency_us = 2000.0;
  mpp::Runtime::run(2, net, [](mpp::Comm& world) {
    Rig rig;
    const auto a = rig.method("m::a()");
    const auto b = rig.method("m::b()");
    if (world.rank() == 0) {
      int go = 0;
      world.recv_bytes(&go, sizeof go, 1, 1);  // handshake, as above
      int v = 1;
      world.send_bytes(&v, sizeof v, 1, 0);
      world.barrier();
    } else {
      const int go = 1;
      world.send_bytes(&go, sizeof go, 0, 1);
      rig.mm->start(a, {});
      int v = 0;
      world.recv_bytes(&v, sizeof v, 0, 0);
      rig.mm->stop(a);
      rig.mm->start(b, {});
      spin_ms(0.5);  // no MPI at all
      rig.mm->stop(b);
      world.barrier();
      EXPECT_GE(rig.mm->record("m::a()")->invocations()[0].mpi_us, 1500.0);
      EXPECT_NEAR(rig.mm->record("m::b()")->invocations()[0].mpi_us, 0.0, 1.0);
    }
  });
}

TEST(Mastermind, NestedMonitoringIsLifo) {
  Rig rig;
  const auto outer = rig.method("outer()");
  const auto inner = rig.method("inner()");
  rig.mm->start(outer, {});
  rig.mm->start(inner, {});
  spin_ms(1.0);
  rig.mm->stop(inner);
  rig.mm->stop(outer);
  EXPECT_GE(rig.mm->record("outer()")->invocations()[0].wall_us,
            rig.mm->record("inner()")->invocations()[0].wall_us);
}

TEST(Mastermind, MismatchedStopThrows) {
  Rig rig;
  const auto a = rig.method("a()");
  const auto b = rig.method("b()");
  rig.mm->start(a, {});
  EXPECT_THROW(rig.mm->stop(b), ccaperf::Error);
  rig.mm->stop(a);
  EXPECT_THROW(rig.mm->stop(a), ccaperf::Error);
  // A handle no register_method issued is rejected on both sides.
  EXPECT_THROW(rig.mm->start(core::kInvalidMethodHandle, {}), ccaperf::Error);
  EXPECT_THROW(rig.mm->stop(core::kInvalidMethodHandle), ccaperf::Error);
}

TEST(Mastermind, CapturesCounterDeltas) {
  Rig rig;
  std::uint64_t misses = 100;
  rig.tau->registry().counters().add_source(hwc::kL2Dcm, [&misses] { return misses; });
  const auto k = rig.method("k()");
  rig.mm->start(k, {});
  misses = 175;
  rig.mm->stop(k);
  const auto& inv = rig.mm->record("k()")->invocations()[0];
  ASSERT_EQ(inv.counters.size(), 1u);
  EXPECT_EQ(inv.counters[0].first, hwc::kL2Dcm);
  EXPECT_DOUBLE_EQ(inv.counters[0].second, 75.0);
}

TEST(Mastermind, SamplesExtractQAndMetric) {
  Rig rig;
  const auto f = rig.method("f()", {"Q"});
  for (double q : {100.0, 200.0, 300.0}) {
    rig.mm->start(f, {&q, 1});
    rig.mm->stop(f);
  }
  const auto samples = rig.mm->record("f()")->samples("Q");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[1].first, 200.0);
  EXPECT_TRUE(rig.mm->record("f()")->samples("missing_param").empty());
}

TEST(Mastermind, CsvDumpHasHeaderAndRows) {
  Rig rig;
  const auto f = rig.method("f()", {"Q"});
  const double q = 7.0;
  rig.mm->start(f, {&q, 1});
  rig.mm->stop(f);
  std::ostringstream os;
  rig.mm->record("f()")->dump_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("method,wall_us,mpi_us,compute_us,param:Q"), std::string::npos);
  EXPECT_NE(s.find("f(),"), std::string::npos);
  EXPECT_NE(s.find(",7"), std::string::npos);
}

TEST(Mastermind, DumpAllWritesFiles) {
  const std::string dir = "mastermind_test_dump";
  {
    Rig rig;
    const auto f = rig.method("m::f()", {"Q"});
    const double q = 1.0;
    rig.mm->start(f, {&q, 1});
    rig.mm->stop(f);
    rig.mm->dump_all(dir, 0);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/m__f__.rank0.csv"));
  std::filesystem::remove_all(dir);
}

TEST(Mastermind, CallPathEdgesFromNesting) {
  Rig rig;
  // driver -> a -> b, a -> b, then top-level b.
  const auto a = rig.method("a()");
  const auto b = rig.method("b()");
  rig.mm->start(a, {});
  rig.mm->start(b, {});
  rig.mm->stop(b);
  rig.mm->start(b, {});
  rig.mm->stop(b);
  rig.mm->stop(a);
  rig.mm->start(b, {});
  rig.mm->stop(b);
  EXPECT_EQ(rig.mm->call_count("a()", "b()"), 2u);
  EXPECT_EQ(rig.mm->call_count("", "a()"), 1u);
  EXPECT_EQ(rig.mm->call_count("", "b()"), 1u);
  EXPECT_EQ(rig.mm->call_count("b()", "a()"), 0u);
  ASSERT_EQ(rig.mm->call_edges().size(), 3u);
}

TEST(Mastermind, MethodKeysListsAllRecords) {
  Rig rig;
  const auto a = rig.method("a()");
  const auto b = rig.method("b()");
  rig.mm->start(a, {});
  rig.mm->stop(a);
  rig.mm->start(b, {});
  rig.mm->stop(b);
  const auto keys = rig.mm->method_keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a()");
  EXPECT_EQ(rig.mm->record("nope"), nullptr);
}

}  // namespace
