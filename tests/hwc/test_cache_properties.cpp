// Property test: CacheSim against an independent brute-force reference
// model (exact LRU over sets, write-back, chained levels) on randomized
// access traces, plus hierarchy-consistency invariants.

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "hwc/cache_sim.hpp"
#include "support/rng.hpp"

namespace {

/// Deliberately naive reference: per-set std::list of (line, dirty) in LRU
/// order, write-back/write-allocate, optionally chained to a lower level.
/// A miss fetches the line from the lower level (carrying the access's
/// write flag, as the simulator does), then a full set evicts its LRU line
/// and writes it back below if dirty.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t size, std::size_t line, std::size_t ways,
                 ReferenceCache* lower = nullptr)
      : line_(line), ways_(ways), sets_(size / (line * ways)), lower_(lower) {}

  bool access_line(std::uint64_t line_addr, bool is_write) {  // returns hit
    ++counters_.accesses;
    auto& lru = sets_state_[line_addr % sets_];
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->first == line_addr) {
        const bool dirty = it->second || is_write;
        lru.erase(it);
        lru.emplace_front(line_addr, dirty);
        ++counters_.hits;
        return true;
      }
    }
    ++counters_.misses;
    if (lower_ != nullptr) lower_->access(line_addr * line_, line_, is_write);
    if (lru.size() == ways_) {
      ++counters_.evictions;
      if (lru.back().second) {
        ++counters_.writebacks;
        if (lower_ != nullptr) lower_->access(lru.back().first * line_, line_, true);
      }
      lru.pop_back();
    }
    lru.emplace_front(line_addr, is_write);
    return false;
  }

  std::uint64_t access(std::uintptr_t addr, std::size_t bytes, bool is_write = false) {
    std::uint64_t misses = 0;
    const std::uint64_t first = addr / line_;
    const std::uint64_t last = (addr + bytes - 1) / line_;
    for (std::uint64_t l = first; l <= last; ++l)
      if (!access_line(l, is_write)) ++misses;
    return misses;
  }

  const hwc::CacheCounters& counters() const { return counters_; }

 private:
  std::size_t line_, ways_, sets_;
  ReferenceCache* lower_;
  std::map<std::uint64_t, std::list<std::pair<std::uint64_t, bool>>> sets_state_;
  hwc::CacheCounters counters_;
};

class CacheVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheVsReference, IdenticalMissStreamOnRandomTrace) {
  const std::uint64_t seed = GetParam();
  ccaperf::Rng rng(seed);
  hwc::CacheSim sim(4096, 64, 2);  // 32 sets, 2-way: small enough to stress
  ReferenceCache ref(4096, 64, 2);

  for (int k = 0; k < 20'000; ++k) {
    // Mix of hot region, cold sweeps, and straddling accesses.
    std::uintptr_t addr;
    const double roll = rng.uniform();
    if (roll < 0.5)
      addr = static_cast<std::uintptr_t>(rng.uniform_int(0, 2047));  // hot
    else
      addr = static_cast<std::uintptr_t>(rng.uniform_int(0, 1 << 20));
    const auto bytes = static_cast<std::size_t>(rng.uniform_int(1, 96));
    const bool write = rng.uniform() < 0.3;
    EXPECT_EQ(sim.access(addr, bytes, write), ref.access(addr, bytes))
        << "seed " << seed << " step " << k;
  }
  EXPECT_EQ(sim.counters().accesses, sim.counters().hits + sim.counters().misses);
}

TEST_P(CacheVsReference, XeonHierarchyMatchesAllCounters) {
  // The paper's two-level write-back hierarchy (8 kB 4-way L1 over a
  // 512 kB 8-way L2): every counter of both levels must match the naive
  // model, through both the scalar and the batched entry points.
  const std::uint64_t seed = GetParam();
  ccaperf::Rng rng(seed);
  hwc::XeonHierarchy sim;
  ReferenceCache ref_l2(512 * 1024, 64, 8);
  ReferenceCache ref_l1(8 * 1024, 64, 4, &ref_l2);

  for (int k = 0; k < 20'000; ++k) {
    // A hot region, a 4 MB cold range (overflows the L2) and straddles,
    // above 64 kB so backwards runs never wrap below address 0.
    const std::uintptr_t addr = static_cast<std::uintptr_t>(
        (1 << 16) + (rng.uniform() < 0.4 ? rng.uniform_int(0, 16 * 1024)
                                         : rng.uniform_int(0, 4 << 20)));
    const bool write = rng.uniform() < 0.3;
    if (rng.uniform() < 0.5) {
      const auto bytes = static_cast<std::size_t>(rng.uniform_int(1, 96));
      EXPECT_EQ(sim.l1.access(addr, bytes, write), ref_l1.access(addr, bytes, write))
          << "seed " << seed << " step " << k;
    } else {
      const auto stride = static_cast<std::ptrdiff_t>(rng.uniform_int(-64, 2048));
      const auto count = static_cast<std::size_t>(rng.uniform_int(1, 64));
      const auto elem = static_cast<std::size_t>(rng.uniform_int(1, 16));
      std::uint64_t want = 0;
      for (std::size_t e = 0; e < count; ++e)
        want += ref_l1.access(addr + static_cast<std::uintptr_t>(
                                         static_cast<std::ptrdiff_t>(e) * stride),
                              elem, write);
      EXPECT_EQ(sim.l1.access_run(addr, stride, count, elem, write), want)
          << "seed " << seed << " step " << k;
    }
  }
  const std::pair<const hwc::CacheSim*, const ReferenceCache*> levels[] = {
      {&sim.l1, &ref_l1}, {&sim.l2, &ref_l2}};
  for (const auto& [s, r] : levels) {
    EXPECT_EQ(s->counters().accesses, r->counters().accesses);
    EXPECT_EQ(s->counters().hits, r->counters().hits);
    EXPECT_EQ(s->counters().misses, r->counters().misses);
    EXPECT_EQ(s->counters().evictions, r->counters().evictions);
    EXPECT_EQ(s->counters().writebacks, r->counters().writebacks);
  }
  EXPECT_GT(ref_l2.counters().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference, ::testing::Values(1, 2, 3, 4));

TEST(CacheHierarchy, L2TrafficEqualsL1MissesPlusWritebacks) {
  ccaperf::Rng rng(9);
  hwc::CacheSim l2(64 * 1024, 64, 8);
  hwc::CacheSim l1(2048, 64, 2);
  l1.set_lower(&l2);
  for (int k = 0; k < 50'000; ++k)
    l1.access(static_cast<std::uintptr_t>(rng.uniform_int(0, 1 << 18)), 8,
              rng.uniform() < 0.4);
  EXPECT_EQ(l2.counters().accesses,
            l1.counters().misses + l1.counters().writebacks);
}

TEST(CacheHierarchy, InclusionOfRecentLine) {
  hwc::CacheSim l2(64 * 1024, 64, 8);
  hwc::CacheSim l1(1024, 64, 1);
  l1.set_lower(&l2);
  l1.access(0x1000, 8, false);
  // Evict from tiny L1; the line must still hit in the large L2.
  l1.access(0x1000 + 1024, 8, false);
  l2.reset_counters();
  l1.access(0x1000, 8, false);  // L1 miss -> L2 lookup
  EXPECT_EQ(l2.counters().hits, 1u);
  EXPECT_EQ(l2.counters().misses, 0u);
}

}  // namespace
