// Sampled CacheSim mode (DESIGN.md §11): batch-level sampling of
// access_run with counter rescaling, plus the StackDistSim reuse-distance
// profiler. Exact mode (stride 1) must be bit-identical to a simulator
// that never heard of sampling; sampled counters must land within a
// stride-dependent tolerance of exact; StackDistSim must agree EXACTLY
// with a fully-associative LRU CacheSim at every capacity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "hwc/cache_sim.hpp"

namespace {

using hwc::CacheCounters;
using hwc::CacheSim;
using hwc::StackDistSim;

/// Sweep-shaped workload: `reps` passes over `rows` rows of `count`
/// stride-`stride_bytes` elements, one access_run batch per row — the same
/// batch granularity the euler kernels emit.
void run_workload(CacheSim& sim, std::uintptr_t base, int rows, int reps,
                  std::size_t count, std::ptrdiff_t stride_bytes) {
  for (int r = 0; r < reps; ++r)
    for (int j = 0; j < rows; ++j)
      sim.access_run(base + static_cast<std::uintptr_t>(j) * 8192, stride_bytes,
                     count, 8, (j + r) % 3 == 0);
}

TEST(CacheSampling, ExactModeIsBitIdenticalToUnsampled) {
  hwc::XeonHierarchy plain, exact;
  exact.l1.set_sample_stride(1);
  run_workload(plain.l1, 1 << 20, 48, 3, 256, 8);
  run_workload(exact.l1, 1 << 20, 48, 3, 256, 8);
  for (auto get : {&CacheCounters::accesses, &CacheCounters::hits,
                   &CacheCounters::misses, &CacheCounters::evictions,
                   &CacheCounters::writebacks}) {
    EXPECT_EQ(plain.l1.counters().*get, exact.l1.counters().*get);
    EXPECT_EQ(plain.l2.counters().*get, exact.l2.counters().*get);
    // At stride 1 the scaled view is the raw view.
    EXPECT_EQ(exact.l1.counters().*get, exact.l1.scaled_counters().*get);
  }
}

TEST(CacheSampling, ScaledCountersTrackExactAcrossStrides) {
  // 64-batch windows over a 16384-batch homogeneous stream: 256 windows,
  // so every stride gets several sampled windows.
  constexpr unsigned kBurstLog2 = 6;
  hwc::XeonHierarchy exact;
  run_workload(exact.l1, 1 << 20, 64, 256, 256, 8);
  const auto ref = exact.l1.counters();
  ASSERT_GT(ref.misses, 0u);

  for (std::uint32_t stride : {4u, 16u, 64u}) {
    hwc::XeonHierarchy mem;
    mem.l1.set_sample_stride(stride, /*seed=*/stride, kBurstLog2);
    run_workload(mem.l1, 1 << 20, 64, 256, 256, 8);
    const auto s = mem.l1.scaled_counters();
    // Uniform batches + realized-fraction rescale: access volume is exact
    // up to rounding.
    const double acc_err =
        std::abs(static_cast<double>(s.accesses) -
                 static_cast<double>(ref.accesses)) /
        static_cast<double>(ref.accesses);
    const double miss_err = std::abs(static_cast<double>(s.misses) -
                                     static_cast<double>(ref.misses)) /
                            static_cast<double>(ref.misses);
    EXPECT_LE(acc_err, 0.001) << "stride " << stride;
    EXPECT_LE(miss_err, 0.10) << "stride " << stride;
    // The L2 sees only sampled traffic; its scaled view carries the
    // gating L1's realized factor.
    const double f = mem.l1.sample_factor();
    EXPECT_GE(f, 1.0);
    EXPECT_EQ(mem.l2.scaled_counters().accesses,
              static_cast<std::uint64_t>(
                  static_cast<double>(mem.l2.counters().accesses) * f + 0.5));
  }
}

TEST(CacheSampling, SeedShiftsPhaseDeterministically) {
  auto counters_for_seed = [](std::uint64_t seed) {
    hwc::XeonHierarchy mem;
    mem.l1.set_sample_stride(16, seed, /*burst_log2=*/6);
    run_workload(mem.l1, 1 << 20, 64, 256, 256, 8);
    return mem.l1.counters();
  };
  const auto a1 = counters_for_seed(3), a2 = counters_for_seed(3);
  EXPECT_EQ(a1.accesses, a2.accesses);
  EXPECT_EQ(a1.misses, a2.misses);
  // A different phase samples the same volume of a uniform-batch stream.
  const auto b = counters_for_seed(7);
  EXPECT_EQ(a1.accesses, b.accesses);
}

TEST(CacheSampling, EnvStrideParses) {
  ASSERT_EQ(setenv("CCAPERF_CACHESIM_SAMPLE", "16", 1), 0);
  EXPECT_EQ(hwc::env_sample_stride(), 16u);
  ASSERT_EQ(setenv("CCAPERF_CACHESIM_SAMPLE", "", 1), 0);
  EXPECT_EQ(hwc::env_sample_stride(), 1u);
  ASSERT_EQ(unsetenv("CCAPERF_CACHESIM_SAMPLE"), 0);
  EXPECT_EQ(hwc::env_sample_stride(), 1u);
}

TEST(CacheSampling, GovernorStrideFloorsEnvStride) {
  ASSERT_EQ(unsetenv("CCAPERF_CACHESIM_SAMPLE"), 0);
  hwc::set_governor_sample_stride(8);
  EXPECT_EQ(hwc::env_sample_stride(), 8u);
  // The floor composes with the env knob: the coarser of the two wins.
  ASSERT_EQ(setenv("CCAPERF_CACHESIM_SAMPLE", "16", 1), 0);
  EXPECT_EQ(hwc::env_sample_stride(), 16u);
  hwc::set_governor_sample_stride(64);
  EXPECT_EQ(hwc::env_sample_stride(), 64u);
  hwc::set_governor_sample_stride(1);
  EXPECT_EQ(hwc::env_sample_stride(), 16u);
  ASSERT_EQ(unsetenv("CCAPERF_CACHESIM_SAMPLE"), 0);
}

TEST(CacheSampling, AdjustStrideKeepsRealizedFraction) {
  // Mid-run re-striding (the governor's cache-sim actuator): cumulative
  // sampled/seen tallies survive the switch, so sample_factor() stays the
  // realized fraction of the whole run rather than the current stride.
  constexpr unsigned kBurstLog2 = 6;
  hwc::XeonHierarchy mem;
  mem.l1.set_sample_stride(1, /*seed=*/3, kBurstLog2);
  run_workload(mem.l1, 1 << 20, 64, 64, 256, 8);
  EXPECT_DOUBLE_EQ(mem.l1.sample_factor(), 1.0);  // exact phase: all seen

  mem.l1.adjust_sample_stride(16);
  run_workload(mem.l1, 1 << 20, 64, 64, 256, 8);
  const double f = mem.l1.sample_factor();
  // Half the batches ran exact, half at 1-in-16: the aggregate scale-up
  // factor lands strictly between the two regimes (1 and 16).
  EXPECT_GT(f, 1.0);
  EXPECT_LT(f, 16.0);
  EXPECT_GE(mem.l1.scaled_counters().accesses, mem.l1.counters().accesses);

  // Relaxing back to exact keeps history too: the factor decays toward 1
  // as exact batches accumulate but never forgets the sampled stretch.
  mem.l1.adjust_sample_stride(1);
  run_workload(mem.l1, 1 << 20, 64, 64, 256, 8);
  EXPECT_LT(mem.l1.sample_factor(), f);
  EXPECT_GT(mem.l1.sample_factor(), 1.0);
}

TEST(CacheSampling, AdjustStrideMatchesSetStrideForFreshSim) {
  // On a fresh simulator adjust_sample_stride(N) after set_sample_stride(N)
  // priming must sample the same batches as configuring N directly: the
  // verdict schedule is a pure function of (stride, seed, batch ordinal).
  constexpr unsigned kBurstLog2 = 4;
  hwc::XeonHierarchy direct, adjusted;
  direct.l1.set_sample_stride(8, /*seed=*/5, kBurstLog2);
  adjusted.l1.set_sample_stride(8, /*seed=*/5, kBurstLog2);
  adjusted.l1.adjust_sample_stride(8);  // no-op re-statement of the stride
  run_workload(direct.l1, 1 << 20, 32, 16, 256, 8);
  run_workload(adjusted.l1, 1 << 20, 32, 16, 256, 8);
  EXPECT_EQ(direct.l1.counters().accesses, adjusted.l1.counters().accesses);
  EXPECT_EQ(direct.l1.counters().misses, adjusted.l1.counters().misses);
  EXPECT_DOUBLE_EQ(direct.l1.sample_factor(), adjusted.l1.sample_factor());
}

TEST(CacheSampling, SetLowerAfterStrideScalesLowerLevel) {
  // Chaining a lower level after set_sample_stride() must scale it just
  // like chaining first: it only ever sees the sampled traffic.
  constexpr unsigned kBurstLog2 = 4;
  hwc::XeonHierarchy chained_first;
  chained_first.l1.set_sample_stride(4, /*seed=*/1, kBurstLog2);
  CacheSim l1(8 * 1024, 64, 4), l2(512 * 1024, 64, 8);
  l1.set_sample_stride(4, /*seed=*/1, kBurstLog2);
  l1.set_lower(&l2);
  run_workload(chained_first.l1, 1 << 20, 48, 3, 256, 8);
  run_workload(l1, 1 << 20, 48, 3, 256, 8);
  ASSERT_GT(l1.sample_factor(), 1.0);
  ASSERT_GT(l2.counters().misses, 0u);
  EXPECT_GT(l2.scaled_counters().misses, l2.counters().misses);
  const CacheCounters want = chained_first.l2.scaled_counters();
  const CacheCounters got = l2.scaled_counters();
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.writebacks, want.writebacks);
}

TEST(StackDist, MatchesFullyAssociativeLruExactly) {
  // A fully-associative LRU cache of C lines misses exactly the touches
  // with reuse distance >= C (plus colds) — so for EVERY capacity, the
  // histogram estimate must equal a real one-set CacheSim bit for bit.
  constexpr std::size_t kLine = 64;
  std::vector<std::uintptr_t> addrs;
  std::uint64_t x = 88172645463325252ull;  // xorshift: deterministic pattern
  for (int k = 0; k < 20000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    addrs.push_back((x % 397) * kLine + (1 << 22));
  }

  StackDistSim sd(kLine);
  for (auto a : addrs) sd.access(a, 8);

  for (std::size_t lines : {16u, 64u, 128u, 512u}) {
    CacheSim lru(lines * kLine, kLine, lines);  // one set, LRU across it
    std::uint64_t misses = 0;
    for (auto a : addrs) misses += lru.access(a, 8, false);
    EXPECT_EQ(sd.estimate_misses(lines), misses) << lines << " lines";
  }
  EXPECT_EQ(sd.accesses(), addrs.size());
}

TEST(StackDist, HandPatternDistances) {
  StackDistSim sd(64);
  const std::uintptr_t A = 0, B = 64, C = 128;
  for (auto a : {A, B, C, A, C, C, B}) sd.access(a, 8);
  // A,B,C cold; A at depth 2; C at depth 1; C at depth 0; B at depth 2.
  EXPECT_EQ(sd.cold_misses(), 3u);
  EXPECT_EQ(sd.histogram()[0], 1u);
  EXPECT_EQ(sd.histogram()[1], 1u);
  EXPECT_EQ(sd.histogram()[2], 2u);
  // Capacity 2 lines: depth >= 2 misses too.
  EXPECT_EQ(sd.estimate_misses(2), 3u + 2u);
  sd.reset();
  EXPECT_EQ(sd.accesses(), 0u);
  EXPECT_EQ(sd.estimate_misses(2), 0u);
}

TEST(StackDist, RunApiCoversStridedRuns) {
  StackDistSim sd(64);
  sd.access_run(0, 64, 32, 8);  // 32 elements, one per line: all cold
  EXPECT_EQ(sd.cold_misses(), 32u);
  sd.access_run(0, 8, 8, 8);  // 8 elements on one line: 1 deep + 7 MRU hits
  EXPECT_EQ(sd.histogram()[0], 7u);
}

}  // namespace
