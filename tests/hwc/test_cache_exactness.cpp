// Bit-identity of the structure-of-arrays CacheSim against a verbatim copy
// of the array-of-structs simulator it replaced (cache_sim_reference.hpp).
// Both are driven with the same address stream; every returned miss count,
// all five counters at every level, sample_factor() and scaled_counters()
// must agree. Simulated misses depend on where malloc places the probed
// arrays, so only identical streams can show identity: comparing the
// outputs of two binaries cannot.
//
// The recorded-stream case also replays a real traced States sweep through
// euler::compute_states, whose cache lookups are inlined into the kernel
// translation unit of the active CCAPERF_SIMD level; run this suite under
// every level to cover each ISA's lookup.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache_sim_reference.hpp"
#include "euler/kernels.hpp"
#include "euler/kernels_ranges.hpp"
#include "hwc/cache_sim.hpp"
#include "hwc/probe.hpp"
#include "support/rng.hpp"

namespace {

using hwc::CacheCounters;
using RefSim = cache_sim_reference::CacheSim;

void expect_same(const CacheCounters& got, const CacheCounters& want,
                 const std::string& what) {
  EXPECT_EQ(got.accesses, want.accesses) << what;
  EXPECT_EQ(got.hits, want.hits) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.evictions, want.evictions) << what;
  EXPECT_EQ(got.writebacks, want.writebacks) << what;
}

struct Geometry {
  std::size_t size, line, ways;
};

/// The same hierarchy twice: levels[0] is the top, each chained to the next.
struct Twin {
  explicit Twin(const std::vector<Geometry>& geo) {
    for (const Geometry& g : geo) {
      sim.push_back(std::make_unique<hwc::CacheSim>(g.size, g.line, g.ways));
      ref.push_back(std::make_unique<RefSim>(g.size, g.line, g.ways));
    }
    for (std::size_t i = 0; i + 1 < geo.size(); ++i) {
      sim[i]->set_lower(sim[i + 1].get());
      ref[i]->set_lower(ref[i + 1].get());
    }
  }

  void access(std::uintptr_t addr, std::size_t bytes, bool is_write) {
    EXPECT_EQ(sim[0]->access(addr, bytes, is_write),
              ref[0]->access(addr, bytes, is_write))
        << "access returned misses diverged at " << addr;
  }

  void run(std::uintptr_t addr, std::ptrdiff_t stride, std::size_t count,
           std::size_t elem, bool is_write) {
    EXPECT_EQ(sim[0]->access_run(addr, stride, count, elem, is_write),
              ref[0]->access_run(addr, stride, count, elem, is_write))
        << "access_run returned misses diverged: addr " << addr << " stride "
        << stride << " count " << count << " elem " << elem;
  }

  void flush(std::size_t level) {
    sim[level]->flush();
    ref[level]->flush();
  }

  void check(const std::string& what) const {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      const std::string at = what + " level " + std::to_string(i);
      expect_same(sim[i]->counters(), ref[i]->counters(), at);
      expect_same(sim[i]->scaled_counters(), ref[i]->scaled_counters(), at);
      EXPECT_EQ(sim[i]->sample_factor(), ref[i]->sample_factor()) << at;
    }
  }

  std::vector<std::unique_ptr<hwc::CacheSim>> sim;
  std::vector<std::unique_ptr<RefSim>> ref;
};

/// A random geometry: `ways` ways, 16-128 B lines, 1-32 sets (1-2 for the
/// widest sets, so every level stays small).
Geometry random_geometry(ccaperf::Rng& rng, std::size_t ways) {
  const std::size_t line = std::size_t{16} << rng.uniform_int(0, 3);
  const std::size_t sets = std::size_t{1} << rng.uniform_int(0, ways > 16 ? 1 : 5);
  return {line * ways * sets, line, ways};
}

/// One random operation: a scalar access, or a run with zero, negative,
/// straddling or dense strides; occasionally a flush of one level. Bases
/// far apart make tags differ in their high bits too, up to ones the
/// 47-bit tag field truncates.
void random_op(ccaperf::Rng& rng, Twin& t) {
  static const std::uintptr_t kBases[] = {0x10000, std::uintptr_t{1} << 36,
                                          std::uintptr_t{1} << 44,
                                          std::uintptr_t{1} << 62};
  const std::uintptr_t addr =
      kBases[rng.uniform_int(0, 3)] +
      static_cast<std::uintptr_t>(rng.uniform_int(0, 1 << 18));
  const bool is_write = rng.uniform_int(0, 2) == 0;
  switch (rng.uniform_int(0, 9)) {
    case 0:
      t.access(addr, static_cast<std::size_t>(rng.uniform_int(0, 200)), is_write);
      break;
    case 1:
      t.run(addr, 0, static_cast<std::size_t>(rng.uniform_int(0, 50)),
            static_cast<std::size_t>(rng.uniform_int(1, 40)), is_write);
      break;
    case 2:
      t.run(addr, -static_cast<std::ptrdiff_t>(rng.uniform_int(1, 300)),
            static_cast<std::size_t>(rng.uniform_int(0, 200)),
            static_cast<std::size_t>(rng.uniform_int(1, 40)), is_write);
      break;
    case 3:  // elements wider than a line
      t.run(addr, rng.uniform_int(-200, 200),
            static_cast<std::size_t>(rng.uniform_int(0, 60)),
            static_cast<std::size_t>(rng.uniform_int(100, 300)), is_write);
      break;
    case 4:  // dense aligned doubles, the kernels' contiguous batches
      t.run(addr & ~std::uintptr_t{7}, 8,
            static_cast<std::size_t>(rng.uniform_int(1, 2000)), 8, is_write);
      break;
    case 5:
      if (rng.uniform_int(0, 3) == 0)
        t.flush(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(t.sim.size()) - 1)));
      break;
    default:
      t.run(addr, rng.uniform_int(1, 1600),
            static_cast<std::size_t>(rng.uniform_int(0, 300)),
            static_cast<std::size_t>(rng.uniform_int(1, 32)), is_write);
      break;
  }
}

TEST(CacheExactness, RandomSchedulesAcrossGeometries) {
  ccaperf::Rng rng(20261018);
  for (const std::size_t top_ways : {1, 2, 4, 8, 16, 512}) {
    for (int trial = 0; trial < 6; ++trial) {
      // 1-3 levels; lower levels are 2-64x larger (at most 1 MB), with
      // their own line size and a 4/8/other associativity.
      std::vector<Geometry> geo{random_geometry(rng, top_ways)};
      const int levels = rng.uniform_int(1, 3);
      for (int l = 1; l < levels; ++l) {
        static const std::size_t kWays[] = {1, 2, 4, 8, 16};
        const std::size_t ways = kWays[rng.uniform_int(0, 4)];
        const std::size_t line = std::size_t{16} << rng.uniform_int(0, 3);
        std::size_t size = line * ways;
        while (size < geo.back().size * 2 ||
               (rng.uniform_int(0, 1) == 0 && size < geo.back().size * 64 &&
                size < (std::size_t{1} << 20)))
          size *= 2;
        geo.push_back({size, line, ways});
      }
      Twin t(geo);
      for (int op = 0; op < 400; ++op) random_op(rng, t);
      t.check("ways " + std::to_string(top_ways) + " trial " +
              std::to_string(trial));
    }
  }
}

TEST(CacheExactness, FlushGenerationWrap) {
  // 16-bit generations wrap every 65,536 flushes; lines stored before the
  // wrap must read as invalid after it, in both simulators alike.
  Twin t({{4096, 64, 4}, {32768, 64, 8}});
  ccaperf::Rng rng(7);
  for (int f = 0; f < 70'000; ++f) {
    if (f % 4096 == 0 || (f > 65'530 && f < 65'540)) {
      for (int op = 0; op < 20; ++op) random_op(rng, t);
    }
    t.flush(0);
    if (f % 3 == 0) t.flush(1);
  }
  for (int op = 0; op < 200; ++op) random_op(rng, t);
  t.check("after 70000 flushes");
}

TEST(CacheExactness, SampledStridesAndMidRunAdjust) {
  ccaperf::Rng rng(31);
  for (const std::uint32_t stride : {2u, 3u, 8u}) {
    Twin t({{8 * 1024, 64, 4}, {512 * 1024, 64, 8}});
    t.sim[0]->set_sample_stride(stride, 5, 4);
    t.ref[0]->set_sample_stride(stride, 5, 4);
    for (int op = 0; op < 600; ++op) {
      random_op(rng, t);
      if (op == 200) {
        t.sim[0]->adjust_sample_stride(stride * 2);
        t.ref[0]->adjust_sample_stride(stride * 2);
      }
      if (op == 400) {
        t.sim[0]->adjust_sample_stride(1);
        t.ref[0]->adjust_sample_stride(1);
      }
      if (op % 50 == 0) {
        const auto batches = static_cast<std::uint64_t>(rng.uniform_int(1, 20));
        EXPECT_EQ(t.sim[0]->sample_skip(batches), t.ref[0]->sample_skip(batches));
      }
    }
    t.check("sample stride " + std::to_string(stride));
  }
}

/// Records every probe call of a kernel, in order.
struct RecordingProbe {
  static constexpr bool kCounting = true;
  struct Op {
    std::uintptr_t addr;
    std::ptrdiff_t stride;
    std::size_t count, elem;
    bool is_write;
  };
  void load(const void* p, std::size_t b) { ops.push_back({addr(p), 0, 1, b, false}); }
  void store(const void* p, std::size_t b) { ops.push_back({addr(p), 0, 1, b, true}); }
  void load_run(const void* p, std::ptrdiff_t s, std::size_t n, std::size_t e) {
    ops.push_back({addr(p), s, n, e, false});
  }
  void store_run(const void* p, std::ptrdiff_t s, std::size_t n, std::size_t e) {
    ops.push_back({addr(p), s, n, e, true});
  }
  void flops(std::uint64_t) {}
  bool skip_runs(std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) {
    return false;
  }
  static std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }
  std::vector<Op> ops;
};

TEST(CacheExactness, RecordedStatesStreamMatchesReference) {
  // A Q ~ 3e4 patch (86 x 344 interior plus ghosts) with a smooth flow.
  const euler::GasModel gas;
  amr::PatchData<double> u(amr::Box{0, 0, 85, 343}, 2, euler::kNcomp);
  const amr::Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const euler::Prim w{1.0 + 0.1 * std::sin(0.07 * i), 0.3 * std::cos(0.05 * j),
                          0.1, 1.0 + 0.05 * std::sin(0.06 * (i + j)),
                          i % 32 < 16 ? 1.0 : 0.0};
      double c[euler::kNcomp];
      euler::prim_to_cons(w, gas, c);
      for (int k = 0; k < euler::kNcomp; ++k) u(i, j, k) = c[k];
    }

  for (const euler::Dir dir : {euler::Dir::x, euler::Dir::y}) {
    const std::string what = dir == euler::Dir::x ? "x sweep" : "y sweep";
    int nx = 0, ny = 0;
    euler::face_dims(u.interior(), dir, nx, ny);
    euler::Array2 left(nx, ny, euler::kNcomp), right(nx, ny, euler::kNcomp);
    RecordingProbe rec;
    euler::detail::states_range_scalar(u, u.interior(), dir, gas, left, right,
                                       rec, 0,
                                       euler::detail::outer_extent(nx, ny, dir));
    ASSERT_GT(rec.ops.size(), 10'000u) << what;

    // The recorded stream through the reference and through access_run.
    Twin t({{8 * 1024, 64, 4}, {512 * 1024, 64, 8}});
    for (const RecordingProbe::Op& op : rec.ops) {
      if (op.stride == 0 && op.count == 1)
        t.access(op.addr, op.elem, op.is_write);
      else
        t.run(op.addr, op.stride, op.count, op.elem, op.is_write);
    }
    t.check(what + " replay");
    EXPECT_GT(t.ref[1]->counters().misses, 0u) << what;

    // The same sweep traced live: the lookups run inside the kernel TU of
    // the active ISA level, on the same arrays, so the stream is the same.
    hwc::XeonHierarchy live;
    hwc::CacheProbe probe(&live.l1);
    euler::compute_states(u, u.interior(), dir, gas, left, right, probe);
    expect_same(live.l1.counters(), t.ref[0]->counters(), what + " live l1");
    expect_same(live.l2.counters(), t.ref[1]->counters(), what + " live l2");
  }
}

}  // namespace
