#include "hwc/cache_sim.hpp"

#include <algorithm>
#include <atomic>

#include "support/env.hpp"

namespace hwc {

namespace {
bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
unsigned log2u(std::size_t v) {
  unsigned s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}
}  // namespace

CacheSim::CacheSim(std::size_t size_bytes, std::size_t line_bytes,
                   std::size_t associativity)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), assoc_(associativity) {
  CCAPERF_REQUIRE(is_pow2(line_bytes_), "CacheSim: line size must be a power of two");
  CCAPERF_REQUIRE(assoc_ >= 1, "CacheSim: associativity must be >= 1");
  CCAPERF_REQUIRE(size_bytes_ % (line_bytes_ * assoc_) == 0,
                  "CacheSim: size must be a multiple of line*associativity");
  sets_ = size_bytes_ / (line_bytes_ * assoc_);
  CCAPERF_REQUIRE(is_pow2(sets_), "CacheSim: set count must be a power of two");
  line_shift_ = log2u(line_bytes_);
  tag_shift_ = log2u(sets_);
  meta_.assign(sets_ * assoc_, 0);
  lru_.assign(sets_ * assoc_, 0);
}

void CacheSim::set_lower(CacheSim* lower) {
  lower_ = lower;
  for (CacheSim* c = lower; c != nullptr; c = c->lower_) c->sampler_ = sampler_;
}

std::size_t CacheSim::find_any(std::size_t row, std::uint64_t want) const {
  for (std::size_t w = 0; w < assoc_; ++w)
    if ((meta_[row + w] & ~std::uint64_t{1}) == want) return row + w;
  return kNoSlot;
}

template <std::size_t W>
std::size_t CacheSim::fill(std::uint64_t line, std::size_t row,
                           std::uint64_t want, bool is_write) {
  const std::size_t ways = W != 0 ? W : assoc_;
  std::uint64_t* const m = &meta_[row];
  const std::uint64_t* const s = &lru_[row];
  // Victim: the first invalid way, else the least recently used one (valid
  // ways hold unique stamps, so there are no ties to break). Both scans
  // are selects, not branches: which way loses is data, not control flow.
  const std::uint64_t gen_bits = kGenMask << 1;
  std::size_t victim = ways;
  for (std::size_t w = ways; w-- > 0;)
    victim = (m[w] & gen_bits) != (want & gen_bits) ? w : victim;
  const bool evict = victim == ways;
  if (evict) {
    victim = 0;
    std::uint64_t oldest = s[0];
    for (std::size_t w = 1; w < ways; ++w) {
      const bool older = s[w] < oldest;
      oldest = older ? s[w] : oldest;
      victim = older ? w : victim;
    }
  }

  // Miss: fetch from the lower level, then write a dirty victim back.
  ++counters_.misses;
  if (lower_ != nullptr) forward(line, is_write);
  if (evict) {
    ++counters_.evictions;
    if ((m[victim] & 1) != 0) {
      ++counters_.writebacks;
      if (lower_ != nullptr)
        forward((m[victim] >> kTagShiftInMeta) << tag_shift_ | (line & (sets_ - 1)),
                true);
    }
  }
  m[victim] = want | static_cast<std::uint64_t>(is_write);
  return row + victim;
}

template std::size_t CacheSim::fill<0>(std::uint64_t, std::size_t,
                                       std::uint64_t, bool);
template std::size_t CacheSim::fill<4>(std::uint64_t, std::size_t,
                                       std::uint64_t, bool);
template std::size_t CacheSim::fill<8>(std::uint64_t, std::size_t,
                                       std::uint64_t, bool);

void CacheSim::forward(std::uint64_t line, bool is_write) {
  const std::uint64_t addr = line << line_shift_;
  if (lower_->line_shift_ == line_shift_)
    lower_->touch_line(addr >> line_shift_, is_write);
  else
    lower_->access(addr, line_bytes_, is_write);
}

std::uint64_t CacheSim::touch_line(std::uint64_t line, bool is_write) {
  const View v = view();
  const std::uint64_t misses_before = counters_.misses;
  std::uint64_t stamp = stamp_;
  switch (assoc_) {
    case 4: lookup<4>(v, line, is_write, stamp); break;
    case 8: lookup<8>(v, line, is_write, stamp); break;
    default: lookup<0>(v, line, is_write, stamp); break;
  }
  const std::uint64_t misses = counters_.misses - misses_before;
  settle(stamp, misses);
  return misses;
}

std::uint64_t CacheSim::run_any(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                                std::size_t count, std::size_t elem_bytes,
                                bool is_write) {
  return run<0>(addr, stride_bytes, count, elem_bytes, is_write);
}

std::uint64_t CacheSim::access(std::uintptr_t addr, std::size_t bytes, bool is_write) {
  // One element: a one-element run, without the sampling gate.
  return bytes == 0 ? 0 : run_any(addr, 0, 1, bytes, is_write);
}

void CacheSim::flush() {
  // O(1): advancing the generation invalidates every line; ways are
  // lazily reclaimed (an out-of-generation way reads as invalid). The
  // stored generation is only kGenMask bits wide, so on wrap every way is
  // hard-invalidated (once per 65536 flushes — amortized free) and the
  // masked generation 0, which cleared ways carry, is skipped; lines from
  // a previous epoch can therefore never read as valid.
  ++gen_;
  if ((gen_ & kGenMask) == 0) {
    std::fill(meta_.begin(), meta_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), 0);
    ++gen_;
  }
}

void CacheSim::reset_counters() { counters_ = CacheCounters{}; }

void CacheSim::set_sample_stride(std::uint32_t stride, std::uint64_t seed,
                                 unsigned burst_log2) {
  CCAPERF_REQUIRE(stride >= 1, "CacheSim: sample stride must be >= 1");
  CCAPERF_REQUIRE(burst_log2 <= 30, "CacheSim: sample burst must be <= 2^30");
  sample_stride_ = stride;
  sample_tick_ = 0;
  sample_seen_ = 0;
  sample_phase_ = stride > 1 ? seed % stride : 0;
  sample_seed_ = seed;
  sample_burst_log2_ = burst_log2;
  sample_window_mask_ = (std::uint64_t{1} << burst_log2) - 1;
  sample_window_active_ = false;  // recomputed at tick 0 (a window boundary)
  // Lower levels only ever see the sampled fraction of the traffic, so
  // their counters carry this level's scale even though they don't gate.
  for (CacheSim* c = this; c != nullptr; c = c->lower_) c->sampler_ = this;
}

void CacheSim::adjust_sample_stride(std::uint32_t stride) {
  CCAPERF_REQUIRE(stride >= 1, "CacheSim: sample stride must be >= 1");
  sample_stride_ = stride;
  sample_phase_ = stride > 1 ? sample_seed_ % stride : 0;
  // Cumulative sample_tick_/sample_seen_ survive on purpose: see the
  // header contract. The cached window verdict is kept until the next
  // window boundary recomputes it against the new stride/phase, so the
  // switch point is deterministic in batch count.
  for (CacheSim* c = this; c != nullptr; c = c->lower_) c->sampler_ = this;
}

CacheCounters CacheSim::scaled_counters() const {
  const double f = sampler_->sample_factor();
  auto scale = [f](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * f + 0.5);
  };
  CacheCounters s;
  s.accesses = scale(counters_.accesses);
  s.hits = scale(counters_.hits);
  s.misses = scale(counters_.misses);
  s.evictions = scale(counters_.evictions);
  s.writebacks = scale(counters_.writebacks);
  return s;
}

namespace {
std::atomic<std::uint32_t> g_governor_stride{1};
}

void set_governor_sample_stride(std::uint32_t stride) {
  g_governor_stride.store(stride < 1 ? 1 : stride, std::memory_order_relaxed);
}

std::uint32_t governor_sample_stride() {
  return g_governor_stride.load(std::memory_order_relaxed);
}

std::uint32_t env_sample_stride() {
  const auto stride = static_cast<std::uint32_t>(
      ccaperf::env_uint("CCAPERF_CACHESIM_SAMPLE", 1, 1, 1 << 20));
  return std::max(stride, governor_sample_stride());
}

// --- StackDistSim ------------------------------------------------------------

StackDistSim::StackDistSim(std::size_t line_bytes, std::size_t max_depth)
    : max_depth_(max_depth) {
  CCAPERF_REQUIRE(is_pow2(line_bytes),
                  "StackDistSim: line size must be a power of two");
  CCAPERF_REQUIRE(max_depth >= 1, "StackDistSim: max depth must be >= 1");
  line_shift_ = log2u(line_bytes);
  hist_.assign(max_depth_, 0);
}

void StackDistSim::touch_line(std::uint64_t line) {
  ++accesses_;
  // MRU fast path: the dominant event (consecutive elements of a run on
  // one line) costs a compare, like CacheSim's way hint.
  if (!stack_.empty() && stack_.front() == line) {
    ++hist_[0];
    return;
  }
  const auto it = std::find(stack_.begin(), stack_.end(), line);
  if (it == stack_.end()) {
    ++cold_;
    // Beyond the tracked depth, lines recount as cold — harmless for any
    // capacity <= max_depth (see the class comment).
    if (stack_.size() == max_depth_) stack_.pop_back();
    stack_.insert(stack_.begin(), line);
    return;
  }
  ++hist_[static_cast<std::size_t>(it - stack_.begin())];
  std::rotate(stack_.begin(), it, it + 1);  // move-to-front
}

void StackDistSim::access(std::uintptr_t addr, std::size_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = static_cast<std::uint64_t>(addr) >> line_shift_;
  const std::uint64_t last =
      static_cast<std::uint64_t>(addr + bytes - 1) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) touch_line(line);
}

void StackDistSim::access_run(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                              std::size_t count, std::size_t elem_bytes) {
  for (std::size_t k = 0; k < count; ++k)
    access(addr + static_cast<std::uintptr_t>(
                      static_cast<std::ptrdiff_t>(k) * stride_bytes),
           elem_bytes);
}

std::uint64_t StackDistSim::estimate_misses(std::size_t lines) const {
  // A fully-associative LRU cache of `lines` lines hits exactly the
  // touches with stack distance < lines.
  std::uint64_t misses = cold_;
  for (std::size_t d = std::min(lines, max_depth_); d < max_depth_; ++d)
    misses += hist_[d];
  return misses;
}

double StackDistSim::estimate_miss_rate(std::size_t lines) const {
  return accesses_ ? static_cast<double>(estimate_misses(lines)) /
                         static_cast<double>(accesses_)
                   : 0.0;
}

void StackDistSim::reset() {
  stack_.clear();
  std::fill(hist_.begin(), hist_.end(), 0);
  accesses_ = 0;
  cold_ = 0;
}

}  // namespace hwc
