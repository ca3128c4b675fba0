#pragma once
// Memory/FLOP probes: the bridge between numerical kernels and the
// hardware-counter substrate.
//
// Kernels in src/euler are templated on a Probe policy. With `NullProbe`
// every probe call inlines to nothing (production speed — this is the
// configuration wall-clock measurements use). With `CacheProbe` each load,
// store and floating-point operation is recorded and the memory accesses
// are replayed through a CacheSim hierarchy, yielding deterministic
// PAPI-style event counts (FP_OPS, Lx_DCM, LD_INS, SR_INS) for performance
// modeling — the paper's "hardware performance metrics such as data cache
// misses and floating point instructions executed" (Section 4.1).
//
// Probes expose both scalar hooks (load/store, one element each) and
// batched run hooks (load_run/store_run, a whole strided run per call).
// CacheProbe routes runs through CacheSim::access_run, which amortizes the
// per-element simulation cost over the run (one set lookup per line
// touched) while producing counters bit-identical to calling CacheSim::access
// once per element (tests/hwc/test_access_run.cpp holds the two together).

#include <cstdint>

#include "hwc/cache_sim.hpp"

namespace hwc {

/// Zero-cost probe: all hooks compile away.
struct NullProbe {
  static constexpr bool kCounting = false;
  void load(const void*, std::size_t) {}
  void store(const void*, std::size_t) {}
  void load_run(const void*, std::ptrdiff_t, std::size_t, std::size_t) {}
  void store_run(const void*, std::ptrdiff_t, std::size_t, std::size_t) {}
  void flops(std::uint64_t) {}
};

/// Event counts gathered by a CacheProbe run.
struct ProbeCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t flops = 0;
};

/// Records loads/stores/flops and replays memory traffic through a cache.
class CacheProbe {
 public:
  static constexpr bool kCounting = true;

  /// `top` is the first-level cache of the hierarchy (may chain lower
  /// levels). The probe does not own it.
  explicit CacheProbe(CacheSim* top) : cache_(top) {
    CCAPERF_REQUIRE(top != nullptr, "CacheProbe: null cache");
  }

  void load(const void* p, std::size_t bytes) {
    ++counts_.loads;
    cache_->access(reinterpret_cast<std::uintptr_t>(p), bytes, false);
  }
  void store(const void* p, std::size_t bytes) {
    ++counts_.stores;
    cache_->access(reinterpret_cast<std::uintptr_t>(p), bytes, true);
  }
  /// Batched: `count` loads of `elem_bytes`, the k-th at p + k*stride_bytes.
  /// Forced inline like CacheSim::access_run: the per-ISA kernel TUs must
  /// not emit copies that a TU of another ISA could link against.
  CCAPERF_FORCE_INLINE void load_run(const void* p, std::ptrdiff_t stride_bytes, std::size_t count,
                std::size_t elem_bytes) {
    counts_.loads += count;
    cache_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                       elem_bytes, false);
  }
  CCAPERF_FORCE_INLINE void store_run(const void* p, std::ptrdiff_t stride_bytes,
                                      std::size_t count, std::size_t elem_bytes) {
    counts_.stores += count;
    cache_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                       elem_bytes, true);
  }
  void flops(std::uint64_t n) { counts_.flops += n; }

  /// Group fast path for sampled simulation (DESIGN.md §11): if the
  /// simulator will reject the next `runs` batch calls wholesale (inactive
  /// sampling window), tally the aggregate event counts here and return
  /// true — the caller skips its per-run replay. Event totals are
  /// identical either way; this only removes per-run call overhead.
  bool skip_runs(std::uint64_t runs, std::uint64_t loads, std::uint64_t stores,
                 std::uint64_t flop_count) {
    if (!cache_->sample_skip(runs)) return false;
    counts_.loads += loads;
    counts_.stores += stores;
    counts_.flops += flop_count;
    return true;
  }

  const ProbeCounts& counts() const { return counts_; }
  CacheSim* cache() const { return cache_; }
  void reset() { counts_ = ProbeCounts{}; }

 private:
  CacheSim* cache_;
  ProbeCounts counts_;
};

/// Estimation probe: routes the kernel's memory traffic into a StackDistSim
/// reuse-distance profiler instead of the set/way simulator. One traced
/// sweep then yields estimated miss rates for every cache capacity at once
/// (sim()->estimate_miss_rate(lines)) at a fraction of the full-simulation
/// cost — the histogram mode of DESIGN.md §11.
class StackDistProbe {
 public:
  static constexpr bool kCounting = true;

  explicit StackDistProbe(StackDistSim* sim) : sim_(sim) {
    CCAPERF_REQUIRE(sim != nullptr, "StackDistProbe: null profiler");
  }

  void load(const void* p, std::size_t bytes) {
    ++counts_.loads;
    sim_->access(reinterpret_cast<std::uintptr_t>(p), bytes);
  }
  void store(const void* p, std::size_t bytes) {
    ++counts_.stores;
    sim_->access(reinterpret_cast<std::uintptr_t>(p), bytes);
  }
  void load_run(const void* p, std::ptrdiff_t stride_bytes, std::size_t count,
                std::size_t elem_bytes) {
    counts_.loads += count;
    sim_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                     elem_bytes);
  }
  void store_run(const void* p, std::ptrdiff_t stride_bytes, std::size_t count,
                 std::size_t elem_bytes) {
    counts_.stores += count;
    sim_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                     elem_bytes);
  }
  void flops(std::uint64_t n) { counts_.flops += n; }

  /// The reuse-distance profiler has no sampling mode; always replay.
  bool skip_runs(std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) {
    return false;
  }

  const ProbeCounts& counts() const { return counts_; }
  StackDistSim* sim() const { return sim_; }
  void reset() { counts_ = ProbeCounts{}; }

 private:
  StackDistSim* sim_;
  ProbeCounts counts_;
};

}  // namespace hwc
