#pragma once
// hwc::CacheSim — a set-associative LRU cache simulator.
//
// The paper reads hardware cache-miss counters through PAPI/PCL on a Xeon
// with a 512 kB L2 (Section 5) and attributes the sequential/strided
// timing crossover of States/EFMFlux/GodunovFlux to cache behaviour
// (Figs. 4-5). We have no PAPI, so this simulator *is* the hardware
// counter backend: numerical kernels can run with their loads/stores
// routed through a cache model (see probe.hpp), producing deterministic
// miss counts with exactly the paper's qualitative behaviour — unit-ratio
// for cache-resident arrays, growing miss ratio once the working set
// overflows the cache under strided access.
//
// Multi-level hierarchies are built by chaining: an access that misses one
// level is forwarded to `lower()`.
//
// The simulator is on the tracing hot path (every probed load/store of a
// traced kernel lands here), so its exact core is built for it:
//  * way state is two flat arrays (structure of arrays, 16 B per way):
//    packed tag/generation/dirty words and last-use stamps;
//  * the 4- and 8-way geometries (XeonHierarchy) get a lookup specialised
//    at compile time that compares the whole set at once into a hit mask,
//    without branches; on a miss the victim is the first invalid way,
//    else the smallest stamp. Other associativities take a generic
//    out-of-line path. The lookup inlines into the kernel translation
//    units, so it is compiled for the caller's ISA;
//  * `access_run` steps one strided run line by line: a touch of the line
//    just touched is a guaranteed hit and is counted without a lookup, so
//    dense runs cost O(lines touched);
//  * misses and writebacks reach the lower level through its line path,
//    which dispatches on that level's associativity at run time;
//  * `flush()` is O(1): a generation counter invalidates every line
//    without rewriting the way arrays.
// All of these are exact: counters are bit-identical to an
// element-by-element `access` loop (tests/hwc/test_access_run.cpp) and to
// the array-of-structs simulator this design replaced
// (tests/hwc/test_cache_exactness.cpp).
//
// On top of the exact machinery sit two pay-per-sample estimation modes
// (DESIGN.md §11):
//  * `set_sample_stride(N, seed)` makes `access_run` simulate only batches
//    falling in every 1-in-N *window* of 2^burst_log2 consecutive batches
//    (deterministic seeded phase) and skip the rest entirely;
//    `scaled_counters()` multiplies the sampled tallies back up by N.
//    Windows rather than individual batches because sweep kernels emit
//    heavily cross-correlated batches (consecutive faces share stencil
//    lines): sampling lone batches would read almost every access as a
//    cold miss, while a multi-hundred-batch burst reaches the warm steady
//    state after a few faces and amortizes its boundary. Exact mode
//    (stride 1) is the default and is bit-identical to today — CI and
//    paper runs never change.
//  * StackDistSim (below) replaces set/way simulation with a Mattson
//    reuse-distance histogram: one pass yields estimated miss counts for
//    EVERY fully-associative LRU capacity at once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "support/error.hpp"

// The batched tracing fast path lives or dies on access_run specializing
// at its (constant count/stride) kernel call sites; GCC's inliner balks at
// the function size, so force it.
#if defined(__GNUC__) || defined(__clang__)
#define CCAPERF_FORCE_INLINE inline __attribute__((always_inline))
#else
#define CCAPERF_FORCE_INLINE inline
#endif

namespace hwc {

/// Counter snapshot for one cache level.
struct CacheCounters {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

/// Sampled-mode window size: 2^9 = 512 consecutive access_run batches per
/// window (~70 sweep faces) — long enough for the L1 working set to warm
/// up within a handful of faces, short enough that realistic sweeps span
/// hundreds of windows per sampling stride.
inline constexpr unsigned kDefaultSampleBurstLog2 = 9;

/// One level of set-associative, write-back/write-allocate LRU cache.
class CacheSim {
 public:
  /// `size_bytes` total capacity; `line_bytes` block size (power of two);
  /// `associativity` ways per set. size must be divisible by line*ways.
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, std::size_t associativity);

  /// Simulates a data access of `bytes` starting at `addr`. Accesses that
  /// straddle line boundaries touch every covered line. Returns the number
  /// of misses incurred at *this* level.
  std::uint64_t access(std::uintptr_t addr, std::size_t bytes, bool is_write);

  /// Simulates `count` accesses of `elem_bytes` each, the k-th at
  /// `addr + k*stride_bytes` — exactly equivalent (bit-identical counters
  /// and replacement state) to calling `access` once per element, but runs
  /// in O(lines touched) instead of O(elements) for dense runs. Zero and
  /// negative strides are allowed. Returns the number of misses incurred
  /// at *this* level. Defined inline below (and forced inline, so no
  /// out-of-line copy is emitted) so kernel call sites specialize fully
  /// and get their translation unit's ISA.
  CCAPERF_FORCE_INLINE std::uint64_t access_run(std::uintptr_t addr,
                                                std::ptrdiff_t stride_bytes,
                                                std::size_t count,
                                                std::size_t elem_bytes,
                                                bool is_write);

  /// Invalidates all lines (O(1): bumps the line generation) and keeps
  /// counters.
  void flush();
  void reset_counters();

  /// Sampled mode: batches are grouped into windows of 2^burst_log2
  /// consecutive access_run calls; only windows whose index is congruent
  /// to `seed % stride` (mod stride) are simulated, the rest return 0
  /// without touching any state. Counters then tally roughly 1/stride of
  /// the traffic; read them back through `scaled_counters()`. Lower levels
  /// chained via set_lower() inherit the scale (they only ever see the
  /// sampled traffic). Stride 1 restores exact mode. Resets the batch
  /// phase; call before (not during) a traced sweep.
  void set_sample_stride(std::uint32_t stride, std::uint64_t seed = 0,
                         unsigned burst_log2 = kDefaultSampleBurstLog2);
  std::uint32_t sample_stride() const { return sample_stride_; }

  /// Governor actuation (DESIGN.md §12): changes the stride *mid-run*
  /// without resetting the cumulative seen/simulated tallies, so
  /// sample_factor() stays the realized simulated fraction of the whole
  /// stream across any stride schedule (including excursions through
  /// exact mode, which tallies every batch as simulated). The window
  /// burst size and seed are kept from the last set_sample_stride (or
  /// their defaults); the new verdict takes effect at the next window
  /// boundary. Note the factor is then an aggregate over mixed-stride
  /// phases — unbiased for cumulative counters, which is what the
  /// Mastermind differences.
  void adjust_sample_stride(std::uint32_t stride);

  /// Scale-up factor for sampled counters: the MEASURED fraction of
  /// batches simulated (total seen / simulated), not the nominal stride —
  /// the window grid rarely divides the stream evenly, and using the
  /// realized fraction removes that granularity error entirely. 1.0 in
  /// exact mode; the nominal stride if sampling skipped every batch.
  double sample_factor() const {
    if (sample_tick_ == sample_seen_) return 1.0;  // nothing ever skipped
    if (sample_seen_ == 0) return static_cast<double>(sample_stride_);
    return static_cast<double>(sample_tick_) /
           static_cast<double>(sample_seen_);
  }

  /// Counters scaled by the gating level's sample_factor() — the estimate
  /// of what exact mode would have counted. Identical to counters() in
  /// exact mode.
  CacheCounters scaled_counters() const;

  /// Sampled-mode group fast path: if the next `batches` access_run calls
  /// would all be rejected by the gate (they fit inside the current,
  /// inactive window), consume their ticks in one step and return true.
  /// Returns false in exact mode, in active windows, and when the group
  /// straddles a window boundary — callers then replay batch by batch,
  /// which is bit-identical; this only exists so traced kernels can skip
  /// the per-batch replay bookkeeping wholesale between sampled windows.
  bool sample_skip(std::uint64_t batches) {
    if (sample_stride_ <= 1 || batches == 0 || window_active()) return false;
    if ((sample_tick_ & sample_window_mask_) + batches >
        sample_window_mask_ + 1)
      return false;
    sample_tick_ += batches;
    return true;
  }

  const CacheCounters& counters() const { return counters_; }
  std::size_t size_bytes() const { return size_bytes_; }
  std::size_t line_bytes() const { return line_bytes_; }
  std::size_t associativity() const { return assoc_; }
  std::size_t num_sets() const { return sets_; }

  /// Chains a lower (larger/slower) level; misses here are forwarded to it.
  /// The lower chain inherits this level's sampler, so chaining after
  /// set_sample_stride() scales it too.
  void set_lower(CacheSim* lower);
  CacheSim* lower() const { return lower_; }

 private:
  // 16 bytes/way in two flat arrays: the way state is the simulator's real
  // working set (a 512 kB sim = 1024 sets x 8 ways), and every touch lands
  // on a random set, so its footprint bounds the traced hot path. A set's
  // meta words sit side by side, so one lookup compares them all at once.
  // meta = tag << 17 | (gen & kGenMask) << 1 | dirty: the hit check is one
  // masked compare. The 16-bit generation field is kept exact by flush()
  // hard-invalidating on wrap. Tags keep their low 47 bits (the rest shift
  // out of meta): addresses alias only beyond 2^(47 + tag_shift +
  // line_shift) — far outside any real address space — and every
  // fill/lookup/writeback path truncates identically, so the bit-identity
  // property holds for arbitrary 64-bit addresses too.
  /// Sampled mode's verdict for the window holding the next batch: a
  /// modulo computed once per window boundary and cached.
  bool window_active() {
    if ((sample_tick_ & sample_window_mask_) == 0)
      sample_window_active_ =
          (sample_tick_ >> sample_burst_log2_) % sample_stride_ ==
          sample_phase_;
    return sample_window_active_;
  }

  static constexpr std::uint64_t kGenMask = 0xffff;  // 16-bit generation
  static constexpr unsigned kTagShiftInMeta = 17;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Run-invariant state, hoisted into registers for a run: nothing
  /// inside one reallocates the arrays or changes the generation.
  struct View {
    std::uint64_t* meta;
    std::uint64_t* lru;
    std::uint64_t set_mask;
    unsigned tag_shift;
    std::uint64_t gen_field;  // (gen & kGenMask) << 1
  };
  View view() {
    return {meta_.data(), lru_.data(), sets_ - 1, tag_shift_,
            (gen_ & kGenMask) << 1};
  }

  template <std::size_t W>
  CCAPERF_FORCE_INLINE static unsigned hit_mask(const std::uint64_t* m,
                                                std::uint64_t want);
  /// One lookup of `line` at compile-time associativity W (0: assoc_ at
  /// run time). Stamps the way, sets its dirty bit on a write, fills it on
  /// a miss; returns its slot (set * ways + way). fill() counts the miss;
  /// the caller settles accesses and hits from the stamp delta (every
  /// touch takes exactly one stamp).
  template <std::size_t W>
  CCAPERF_FORCE_INLINE std::size_t lookup(const View& v, std::uint64_t line,
                                          bool is_write, std::uint64_t& stamp);
  /// The strided-run loop behind access_run, at associativity W.
  template <std::size_t W>
  CCAPERF_FORCE_INLINE std::uint64_t run(std::uintptr_t addr,
                                         std::ptrdiff_t stride_bytes,
                                         std::size_t count,
                                         std::size_t elem_bytes, bool is_write);
  /// run<0>, out of line: access(), and access_run at every associativity
  /// but 4 and 8.
  std::uint64_t run_any(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                        std::size_t count, std::size_t elem_bytes,
                        bool is_write);
  /// Generic hit scan of the set starting at `row` (kNoSlot on a miss).
  std::size_t find_any(std::size_t row, std::uint64_t want) const;
  /// Miss path: picks the victim (first invalid way, else the smallest
  /// stamp), fetches the line from the lower level, writes a dirty victim
  /// back, and stores `want | dirty` in the victim's meta. Returns its slot.
  template <std::size_t W>
  std::size_t fill(std::uint64_t line, std::size_t row, std::uint64_t want,
                   bool is_write);
  /// One touch of `line` with full bookkeeping: the lower-level path that
  /// a miss or writeback above takes, dispatched on associativity.
  std::uint64_t touch_line(std::uint64_t line, bool is_write);
  /// Sends one of this level's lines (a fetch or a writeback) to lower_.
  void forward(std::uint64_t line, bool is_write);
  /// Settles the counters of the touches made since stamp_.
  void settle(std::uint64_t stamp, std::uint64_t misses) {
    const std::uint64_t n = stamp - stamp_;
    counters_.accesses += n;
    counters_.hits += n - misses;
    stamp_ = stamp;
  }

  std::size_t size_bytes_;
  std::size_t line_bytes_;
  std::size_t assoc_;
  std::size_t sets_;
  unsigned line_shift_;
  unsigned tag_shift_;                 // log2(sets_)
  std::vector<std::uint64_t> meta_;    // sets_ x assoc_, row-major
  std::vector<std::uint64_t> lru_;     // sets_ x assoc_: last-use stamps
  std::uint64_t stamp_ = 0;            // one per access, so stamps are unique
  std::uint64_t gen_ = 1;              // flush() increments; meta gen matches
  std::uint32_t sample_stride_ = 1;    // 1 = exact mode
  std::uint64_t sample_tick_ = 0;      // access_run batches seen
  std::uint64_t sample_seen_ = 0;      // access_run batches simulated
  std::uint64_t sample_phase_ = 0;     // window residue that gets simulated
  std::uint64_t sample_seed_ = 0;      // kept for adjust_sample_stride()
  unsigned sample_burst_log2_ = kDefaultSampleBurstLog2;
  std::uint64_t sample_window_mask_ = (1ull << kDefaultSampleBurstLog2) - 1;
  bool sample_window_active_ = false;  // cached verdict for current window
  const CacheSim* sampler_ = this;     // level whose gate scales our counters
  CacheCounters counters_;
  CacheSim* lower_ = nullptr;
};

template <std::size_t W>
unsigned CacheSim::hit_mask(const std::uint64_t* m, std::uint64_t want) {
  // Whole-set compare: bit w is set iff way w holds `want` in any dirty
  // state, 4 ways per AVX2 compare in the per-ISA kernel TUs and 2 per
  // SSE2 compare in baseline ones. Always inlined, so each TU compiles it
  // with its own flags and no copy is shared between TUs of different ISAs.
#if defined(__AVX2__)
  if constexpr (W == 4 || W == 8) {
    const __m256i clean = _mm256_set1_epi64x(~1LL);
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(want));
    unsigned hit = 0;
    for (std::size_t w = 0; w < W; w += 4) {
      const __m256i ways = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + w)), clean);
      hit |= static_cast<unsigned>(_mm256_movemask_pd(
                 _mm256_castsi256_pd(_mm256_cmpeq_epi64(ways, key))))
             << w;
    }
    return hit;
  }
#elif defined(__SSE2__)
  if constexpr (W == 4 || W == 8) {
    const __m128i clean = _mm_set1_epi64x(~1LL);
    const __m128i key = _mm_set1_epi64x(static_cast<long long>(want));
    unsigned hit = 0;
    for (std::size_t w = 0; w < W; w += 2) {
      const __m128i eq = _mm_cmpeq_epi32(
          _mm_and_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(m + w)),
                        clean),
          key);
      // A 64-bit way matches iff both of its 32-bit halves do.
      const __m128i eq64 = _mm_and_si128(eq, _mm_shuffle_epi32(eq, 0xb1));
      hit |= static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(eq64))) << w;
    }
    return hit;
  }
#endif
  unsigned hit = 0;
  for (std::size_t w = 0; w < W; ++w)
    hit |= static_cast<unsigned>((m[w] & ~std::uint64_t{1}) == want) << w;
  return hit;
}

template <std::size_t W>
std::size_t CacheSim::lookup(const View& v, std::uint64_t line, bool is_write,
                             std::uint64_t& stamp) {
  const std::size_t row =
      static_cast<std::size_t>(line & v.set_mask) * (W != 0 ? W : assoc_);
  const std::uint64_t want =
      (line >> v.tag_shift) << kTagShiftInMeta | v.gen_field;
  std::size_t slot;
  bool hit;
  if constexpr (W != 0) {
    // At most one way can match; the top bit only keeps ctz defined.
    const unsigned mask = hit_mask<W>(v.meta + row, want);
    hit = mask != 0;
    slot = row + static_cast<std::size_t>(__builtin_ctz(mask | 1u << 31));
  } else {
    slot = find_any(row, want);
    hit = slot != kNoSlot;
  }
  if (hit)
    v.meta[slot] |= static_cast<std::uint64_t>(is_write);
  else
    slot = fill<W>(line, row, want, is_write);
  v.lru[slot] = ++stamp;
  return slot;
}

template <std::size_t W>
std::uint64_t CacheSim::run(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                            std::size_t count, std::size_t elem_bytes,
                            bool is_write) {
  const View v = view();
  const unsigned line_shift = line_shift_;
  const auto ustride = static_cast<std::uint64_t>(stride_bytes);
  const std::uint64_t misses_before = counters_.misses;
  std::uint64_t stamp = stamp_;
  std::uint64_t a = static_cast<std::uint64_t>(addr);
  // Invariant: slot `cur` holds `cur_line` and no other line has been
  // touched since, so another touch of cur_line is a guaranteed hit. Its
  // dirty bit needs no update: the lookup that set `cur` belongs to this
  // run, which reads or writes throughout.
  std::uint64_t cur_line = 0;
  std::size_t cur = kNoSlot;
  for (std::size_t k = 0; k < count; a += ustride) {
    const std::uint64_t first = a >> line_shift;
    const std::uint64_t last = (a + elem_bytes - 1) >> line_shift;
    for (std::uint64_t line = first; line <= last; ++line) {
      if (line == cur_line && cur != kNoSlot) {
        v.lru[cur] = ++stamp;
      } else {
        cur = lookup<W>(v, line, is_write, stamp);
        cur_line = line;
      }
    }
    ++k;
    // The following elements that stay inside this one line are
    // guaranteed hits too: account them in one step.
    if (first == last && stride_bytes >= 0 && k < count) {
      std::uint64_t n = count - k;
      if (ustride != 0) {
        const std::uint64_t room = ((last + 1) << line_shift) - (a + elem_bytes);
        n = room < ustride ? 0
            : std::min<std::uint64_t>(
                  n, (ustride & (ustride - 1)) == 0
                         ? room >> __builtin_ctzll(ustride)
                         : room / ustride);
      }
      if (n != 0) {
        stamp += n;
        v.lru[cur] = stamp;
        k += static_cast<std::size_t>(n);
        a += n * ustride;
      }
    }
  }
  const std::uint64_t misses = counters_.misses - misses_before;
  settle(stamp, misses);
  return misses;
}

inline std::uint64_t CacheSim::access_run(std::uintptr_t addr,
                                          std::ptrdiff_t stride_bytes,
                                          std::size_t count, std::size_t elem_bytes,
                                          bool is_write) {
  if (count == 0 || elem_bytes == 0) return 0;
  // Sampled mode: only 1-in-stride windows of consecutive batches are
  // simulated; the rest return before touching counters or replacement
  // state. Exact mode (stride 1) takes one predicted-not-taken branch
  // here and tallies every batch as simulated, so the realized fraction
  // stays meaningful across mid-run adjust_sample_stride() transitions.
  // The steady-state skip path is an increment and two predictable
  // branches, cheap enough to leave on in the traced production path.
  const bool skip = sample_stride_ > 1 && !window_active();
  ++sample_tick_;
  if (skip) return 0;
  ++sample_seen_;
  if (assoc_ == 4) return run<4>(addr, stride_bytes, count, elem_bytes, is_write);
  if (assoc_ == 8) return run<8>(addr, stride_bytes, count, elem_bytes, is_write);
  return run_any(addr, stride_bytes, count, elem_bytes, is_write);
}

/// Builds the paper's testbed memory hierarchy: 8 kB L1D feeding the
/// 512 kB L2 of the dual-Xeon nodes (64 B lines, 8-way). Returned pair is
/// (l1, l2); access through l1.
struct XeonHierarchy {
  XeonHierarchy() : l1(8 * 1024, 64, 4), l2(512 * 1024, 64, 8) { l1.set_lower(&l2); }
  CacheSim l1;
  CacheSim l2;
};

/// Parses CCAPERF_CACHESIM_SAMPLE (the counted sweeps' sampling stride;
/// unset/empty/1 = exact mode). Raises on malformed values. The returned
/// stride is max(env, governor_sample_stride()) — the overhead governor's
/// actuator can coarsen counted sweeps process-wide without touching the
/// environment.
std::uint32_t env_sample_stride();

/// Process-wide stride floor installed by the overhead governor's actuator.
/// Counted sweeps build their CacheSims cold per slab, so a persistent
/// override (rather than per-instance adjust_sample_stride) is the only
/// surface that reaches them. 0/1 = no floor. SCMD ranks share the process;
/// the last-writing rank wins, which only affects counter sampling error
/// bars, never simulation results.
void set_governor_sample_stride(std::uint32_t stride);
std::uint32_t governor_sample_stride();

/// Mattson reuse-distance (stack-distance) profiler: a capacity-agnostic
/// alternative to full set/way simulation for miss-RATE estimation. Every
/// line touch records the number of distinct lines referenced since the
/// last touch of that line (its depth in an LRU stack, maintained
/// move-to-front); a fully-associative LRU cache of C lines then misses
/// exactly the touches with distance >= C plus the cold misses, so one
/// pass prices every capacity at once. Set-associative caches deviate only
/// through conflict misses, which the euler sweeps' regular strides keep
/// small (tests/hwc/test_cache_sampling.cpp bounds the error against the
/// full simulator). Depth is capped at `max_depth`: lines that fall off
/// the tracked stack recount as cold, which cannot disturb estimates for
/// capacities <= max_depth (those touches would miss either way).
class StackDistSim {
 public:
  explicit StackDistSim(std::size_t line_bytes,
                        std::size_t max_depth = std::size_t{1} << 15);

  void access(std::uintptr_t addr, std::size_t bytes);
  /// Batched form mirroring CacheSim::access_run's element semantics.
  void access_run(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                  std::size_t count, std::size_t elem_bytes);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t cold_misses() const { return cold_; }
  std::size_t max_depth() const { return max_depth_; }
  /// histogram()[d] = touches at stack distance d (d < max_depth).
  const std::vector<std::uint64_t>& histogram() const { return hist_; }

  /// Estimated misses/miss-rate of a fully-associative LRU cache holding
  /// `lines` cache lines (e.g. size_bytes / line_bytes).
  std::uint64_t estimate_misses(std::size_t lines) const;
  double estimate_miss_rate(std::size_t lines) const;

  void reset();

 private:
  void touch_line(std::uint64_t line);

  unsigned line_shift_;
  std::size_t max_depth_;
  std::vector<std::uint64_t> stack_;  // move-to-front LRU; front() = MRU
  std::vector<std::uint64_t> hist_;
  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
};

}  // namespace hwc
