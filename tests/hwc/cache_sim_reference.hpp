#pragma once
// Reference for the structure-of-arrays CacheSim: a verbatim copy of
// hwc::CacheSim as it was before it (array-of-structs ways, per-set MRU
// hint, the contiguous closed form and the run-length access_run loop),
// with its comments trimmed. Only `inline` (in place of the forced
// inline), the namespace and the shared CacheCounters /
// kDefaultSampleBurstLog2 differ. The simulator must match it on every
// address stream: returned misses, all five counters at every level, and
// sample_factor() / scaled_counters().

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hwc/cache_sim.hpp"
#include "support/error.hpp"

namespace cache_sim_reference {

using hwc::CacheCounters;
using hwc::kDefaultSampleBurstLog2;

namespace detail {
inline bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
inline unsigned log2u(std::size_t v) {
  unsigned s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}
}  // namespace detail

class CacheSim {
 public:
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, std::size_t associativity);

  std::uint64_t access(std::uintptr_t addr, std::size_t bytes, bool is_write);

  std::uint64_t access_run(std::uintptr_t addr, std::ptrdiff_t stride_bytes,
                           std::size_t count, std::size_t elem_bytes,
                           bool is_write);

  void flush();
  void reset_counters();

  void set_sample_stride(std::uint32_t stride, std::uint64_t seed = 0,
                         unsigned burst_log2 = kDefaultSampleBurstLog2);
  std::uint32_t sample_stride() const { return sample_stride_; }

  void adjust_sample_stride(std::uint32_t stride);

  double sample_factor() const {
    if (sample_tick_ == sample_seen_) return 1.0;  // nothing ever skipped
    if (sample_seen_ == 0) return static_cast<double>(sample_stride_);
    return static_cast<double>(sample_tick_) /
           static_cast<double>(sample_seen_);
  }

  CacheCounters scaled_counters() const;

  bool sample_skip(std::uint64_t batches) {
    if (sample_stride_ <= 1 || batches == 0) return false;
    if ((sample_tick_ & sample_window_mask_) == 0)
      sample_window_active_ =
          (sample_tick_ >> sample_burst_log2_) % sample_stride_ ==
          sample_phase_;
    if (sample_window_active_) return false;
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

  void set_lower(CacheSim* lower) { lower_ = lower; }
  CacheSim* lower() const { return lower_; }

 private:
  struct Way {
    std::uint64_t meta = 0;  // tag << 17 | (gen & kGenMask) << 1 | dirty
    std::uint64_t lru = 0;   // last-use stamp
  };
  static constexpr std::uint64_t kGenMask = 0xffff;  // 16-bit generation
  static constexpr unsigned kTagShiftInMeta = 17;

  static std::uint64_t pack_meta(std::uint64_t tag, std::uint64_t gen,
                                 bool dirty) {
    return tag << kTagShiftInMeta | (gen & kGenMask) << 1 |
           static_cast<std::uint64_t>(dirty);
  }
  static std::uint64_t way_tag(const Way& w) { return w.meta >> kTagShiftInMeta; }
  static bool way_dirty(const Way& w) { return (w.meta & 1) != 0; }
  std::uint64_t match_meta(std::uint64_t tag) const {
    return pack_meta(tag, gen_, false);
  }
  bool valid(const Way& w) const {
    return ((w.meta >> 1) & kGenMask) == (gen_ & kGenMask);
  }
  std::uint64_t touch_line(std::uint64_t line_addr, bool is_write);
  Way* touch_way(std::uint64_t line_addr, bool is_write, std::uint64_t& misses);
  Way* hint_touch(std::uint64_t line_addr, bool is_write, std::uint64_t& misses) {
    const std::uint64_t set = line_addr & (sets_ - 1);
    Way& h = ways_[static_cast<std::size_t>(set) * assoc_ +
                   mru_[static_cast<std::size_t>(set)]];
    if ((h.meta & ~std::uint64_t{1}) == match_meta(line_addr >> tag_shift_)) {
      ++counters_.accesses;
      ++counters_.hits;
      h.lru = ++stamp_;
      h.meta |= static_cast<std::uint64_t>(is_write);
      return &h;
    }
    return touch_way(line_addr, is_write, misses);
  }

  std::size_t size_bytes_;
  std::size_t line_bytes_;
  std::size_t assoc_;
  std::size_t sets_;
  unsigned line_shift_;
  unsigned tag_shift_;
  std::vector<Way> ways_;
  std::vector<std::uint32_t> mru_;
  std::uint64_t stamp_ = 0;
  std::uint64_t gen_ = 1;
  std::uint32_t sample_stride_ = 1;
  std::uint64_t sample_tick_ = 0;
  std::uint64_t sample_seen_ = 0;
  std::uint64_t sample_phase_ = 0;
  std::uint64_t sample_seed_ = 0;
  unsigned sample_burst_log2_ = kDefaultSampleBurstLog2;
  std::uint64_t sample_window_mask_ = (1ull << kDefaultSampleBurstLog2) - 1;
  bool sample_window_active_ = false;
  const CacheSim* sampler_ = this;
  CacheCounters counters_;
  CacheSim* lower_ = nullptr;
};

inline std::uint64_t CacheSim::access_run(std::uintptr_t addr,
                                          std::ptrdiff_t stride_bytes,
                                          std::size_t count, std::size_t elem_bytes,
                                          bool is_write) {
  if (count == 0 || elem_bytes == 0) return 0;
  if (sample_stride_ > 1) {
    if ((sample_tick_ & sample_window_mask_) == 0)
      sample_window_active_ =
          (sample_tick_ >> sample_burst_log2_) % sample_stride_ ==
          sample_phase_;
    ++sample_tick_;
    if (!sample_window_active_) return 0;
    ++sample_seen_;
  } else {
    ++sample_tick_;
    ++sample_seen_;
  }
  std::uint64_t misses = 0;

  if (stride_bytes > 0 && static_cast<std::size_t>(stride_bytes) == elem_bytes &&
      (elem_bytes & (elem_bytes - 1)) == 0 && elem_bytes <= line_bytes_ &&
      static_cast<std::uint64_t>(addr) % elem_bytes == 0) {
    const unsigned elem_shift =
        static_cast<unsigned>(__builtin_ctzll(static_cast<std::uint64_t>(elem_bytes)));
    const std::uint64_t base = static_cast<std::uint64_t>(addr);
    const std::uint64_t span = static_cast<std::uint64_t>(count) << elem_shift;
    const std::uint64_t first = base >> line_shift_;
    const std::uint64_t last = (base + span - 1) >> line_shift_;
    const std::uint64_t gen_field = (gen_ & kGenMask) << 1;
    const std::uint64_t set_mask = sets_ - 1;
    const unsigned tag_shift = tag_shift_;
    const std::size_t assoc = assoc_;
    Way* const ways = ways_.data();
    const std::uint32_t* const mru = mru_.data();
    std::uint64_t acc = 0, hit = 0, stamp = stamp_;
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::uint64_t line_begin = line << line_shift_;
      const std::uint64_t lo = line == first ? base : line_begin;
      const std::uint64_t hi =
          line == last ? base + span : line_begin + line_bytes_;
      const std::uint64_t n = (hi - lo) >> elem_shift;
      const std::uint64_t set = line & set_mask;
      Way& h = ways[static_cast<std::size_t>(set) * assoc +
                    mru[static_cast<std::size_t>(set)]];
      if ((h.meta & ~std::uint64_t{1}) ==
          ((line >> tag_shift) << kTagShiftInMeta | gen_field)) {
        acc += n;
        hit += n;
        stamp += n;
        h.lru = stamp;
        h.meta |= static_cast<std::uint64_t>(is_write);
      } else {
        counters_.accesses += acc;
        counters_.hits += hit;
        stamp_ = stamp;
        acc = hit = 0;
        Way* w = touch_way(line, is_write, misses);
        stamp = stamp_;
        if (n > 1) {
          acc = n - 1;
          hit = n - 1;
          stamp += n - 1;
          w->lru = stamp;
        }
      }
    }
    counters_.accesses += acc;
    counters_.hits += hit;
    stamp_ = stamp;
    return misses;
  }

  std::uint64_t cur_line = 0;
  Way* cur_way = nullptr;

  const unsigned line_shift = line_shift_;
  const std::uint64_t set_mask = sets_ - 1;
  const unsigned tag_shift = tag_shift_;
  const std::uint64_t gen_field = (gen_ & kGenMask) << 1;
  const std::size_t assoc = assoc_;
  Way* const ways = ways_.data();
  const std::uint32_t* const mru = mru_.data();
  std::uint64_t local_stamp = stamp_;
  std::uint64_t local_acc = 0, local_hit = 0;

  auto touch = [&](std::uint64_t line) -> Way* {
    const std::uint64_t set = line & set_mask;
    Way& h = ways[static_cast<std::size_t>(set) * assoc +
                  mru[static_cast<std::size_t>(set)]];
    if ((h.meta & ~std::uint64_t{1}) ==
        ((line >> tag_shift) << kTagShiftInMeta | gen_field)) {
      ++local_acc;
      ++local_hit;
      h.lru = ++local_stamp;
      h.meta |= static_cast<std::uint64_t>(is_write);
      return &h;
    }
    counters_.accesses += local_acc;
    counters_.hits += local_hit;
    stamp_ = local_stamp;
    local_acc = local_hit = 0;
    Way* w = touch_way(line, is_write, misses);
    local_stamp = stamp_;
    return w;
  };

  const auto ustride = static_cast<std::uint64_t>(stride_bytes);
  const bool stride_pow2 = stride_bytes > 0 && (ustride & (ustride - 1)) == 0;
  unsigned stride_shift = 0;
  for (std::uint64_t s = ustride; stride_pow2 && s > 1; s >>= 1) ++stride_shift;

  std::size_t k = 0;
  while (k < count) {
    const std::uint64_t a =
        static_cast<std::uint64_t>(addr) +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(k) * stride_bytes);
    const std::uint64_t first = a >> line_shift;
    const std::uint64_t last = (a + elem_bytes - 1) >> line_shift;

    if (first == last) {
      if (cur_way != nullptr && first == cur_line) {
        std::size_t run = 1;
        if (stride_bytes > 0) {
          const std::uint64_t line_end = (first + 1) << line_shift;
          const std::uint64_t room = line_end - (a + elem_bytes);
          const std::uint64_t ext = stride_pow2 ? room >> stride_shift : room / ustride;
          run += static_cast<std::size_t>(std::min<std::uint64_t>(count - k - 1, ext));
        } else if (stride_bytes == 0) {
          run = count - k;
        }
        local_acc += run;
        local_hit += run;
        local_stamp += run;
        cur_way->lru = local_stamp;
        cur_way->meta |= static_cast<std::uint64_t>(is_write);
        k += run;
        continue;
      }
      cur_way = touch(first);
      cur_line = first;
      ++k;
      continue;
    }

    for (std::uint64_t line = first; line <= last; ++line) {
      if (cur_way != nullptr && line == cur_line) {
        ++local_acc;
        ++local_hit;
        cur_way->lru = ++local_stamp;
        cur_way->meta |= static_cast<std::uint64_t>(is_write);
      } else {
        cur_way = touch(line);
        cur_line = line;
      }
    }
    ++k;
  }
  counters_.accesses += local_acc;
  counters_.hits += local_hit;
  stamp_ = local_stamp;
  return misses;
}

inline CacheSim::CacheSim(std::size_t size_bytes, std::size_t line_bytes,
                          std::size_t associativity)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), assoc_(associativity) {
  CCAPERF_REQUIRE(detail::is_pow2(line_bytes_), "CacheSim: line size must be a power of two");
  CCAPERF_REQUIRE(assoc_ >= 1, "CacheSim: associativity must be >= 1");
  CCAPERF_REQUIRE(size_bytes_ % (line_bytes_ * assoc_) == 0,
                  "CacheSim: size must be a multiple of line*associativity");
  sets_ = size_bytes_ / (line_bytes_ * assoc_);
  CCAPERF_REQUIRE(detail::is_pow2(sets_), "CacheSim: set count must be a power of two");
  line_shift_ = detail::log2u(line_bytes_);
  tag_shift_ = detail::log2u(sets_);
  ways_.assign(sets_ * assoc_, Way{});
  mru_.assign(sets_, 0);
}

inline CacheSim::Way* CacheSim::touch_way(std::uint64_t line_addr, bool is_write,
                                          std::uint64_t& misses) {
  ++counters_.accesses;
  const std::uint64_t set = line_addr & (sets_ - 1);
  const std::uint64_t tag = line_addr >> tag_shift_;
  Way* row = &ways_[static_cast<std::size_t>(set) * assoc_];
  std::uint32_t& mru = mru_[static_cast<std::size_t>(set)];

  const std::uint64_t want = match_meta(tag);
  if (Way& h = row[mru]; (h.meta & ~std::uint64_t{1}) == want) {
    ++counters_.hits;
    h.lru = ++stamp_;
    h.meta |= static_cast<std::uint64_t>(is_write);
    return &h;
  }

  std::size_t victim = 0;
  bool found_invalid = false;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::size_t w = 0; w < assoc_; ++w) {
    if (!valid(row[w])) {
      if (!found_invalid) {
        victim = w;
        found_invalid = true;
      }
      continue;
    }
    if ((row[w].meta & ~std::uint64_t{1}) == want) {
      ++counters_.hits;
      row[w].lru = ++stamp_;
      row[w].meta |= static_cast<std::uint64_t>(is_write);
      mru = static_cast<std::uint32_t>(w);
      return &row[w];
    }
    if (!found_invalid && row[w].lru < oldest) {
      oldest = row[w].lru;
      victim = w;
    }
  }

  ++counters_.misses;
  ++misses;
  if (lower_ != nullptr)
    lower_->access(line_addr << line_shift_, line_bytes_, is_write);

  if (!found_invalid) {
    ++counters_.evictions;
    if (way_dirty(row[victim])) {
      ++counters_.writebacks;
      if (lower_ != nullptr) {
        const std::uint64_t victim_line =
            (way_tag(row[victim]) << tag_shift_) | set;
        lower_->access(victim_line << line_shift_, line_bytes_, true);
      }
    }
  }
  row[victim] = Way{pack_meta(tag, gen_, is_write), ++stamp_};
  mru = static_cast<std::uint32_t>(victim);
  return &row[victim];
}

inline std::uint64_t CacheSim::touch_line(std::uint64_t line_addr, bool is_write) {
  std::uint64_t misses = 0;
  touch_way(line_addr, is_write, misses);
  return misses;
}

inline std::uint64_t CacheSim::access(std::uintptr_t addr, std::size_t bytes,
                                      bool is_write) {
  if (bytes == 0) return 0;
  const std::uint64_t first = static_cast<std::uint64_t>(addr) >> line_shift_;
  const std::uint64_t last =
      static_cast<std::uint64_t>(addr + bytes - 1) >> line_shift_;
  std::uint64_t misses = 0;
  for (std::uint64_t line = first; line <= last; ++line)
    misses += touch_line(line, is_write);
  return misses;
}

inline void CacheSim::flush() {
  ++gen_;
  if ((gen_ & kGenMask) == 0) {
    std::fill(ways_.begin(), ways_.end(), Way{});
    ++gen_;
  }
}

inline void CacheSim::reset_counters() { counters_ = CacheCounters{}; }

inline void CacheSim::set_sample_stride(std::uint32_t stride, std::uint64_t seed,
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
  sample_window_active_ = false;
  for (CacheSim* c = this; c != nullptr; c = c->lower_) c->sampler_ = this;
}

inline void CacheSim::adjust_sample_stride(std::uint32_t stride) {
  CCAPERF_REQUIRE(stride >= 1, "CacheSim: sample stride must be >= 1");
  sample_stride_ = stride;
  sample_phase_ = stride > 1 ? sample_seed_ % stride : 0;
  for (CacheSim* c = this; c != nullptr; c = c->lower_) c->sampler_ = this;
}

inline CacheCounters CacheSim::scaled_counters() const {
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

}  // namespace cache_sim_reference
