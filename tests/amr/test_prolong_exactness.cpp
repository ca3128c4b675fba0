// Coarse->fine prolongation against the full-footprint reference
// (prolong_reference.hpp): for random coarse and fine tilings, random
// owners, refinement ratios 2-4 and 1-3 ghost layers, Hierarchy::prolong
// must write the same bits as the reference into every fine cell, ghosts
// and interiors alike, while its donor gather never sends more bytes or
// messages than the reference's.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <tuple>

#include "amr/hierarchy.hpp"
#include "mpp/runtime.hpp"
#include "prolong_reference.hpp"
#include "support/rng.hpp"

namespace {

using amr::Box;
using amr::ExchangeStats;
using amr::Hierarchy;
using amr::HierarchyConfig;
using amr::Level;
using amr::PatchData;
using amr::PatchInfo;

using PatchMap = std::map<int, PatchData<double>>;

/// Deterministic cell value: a trend plus hashed noise, so limited slopes
/// are a mix of zero (opposite signs) and nonzero, and a cell that was not
/// shipped (zero in the halo) changes the result.
double cell_value(int l, int id, int i, int j, int c) {
  const auto u = [](int v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  };
  std::uint64_t s = (u(l) << 56) ^ (u(id) << 40) ^ (u(c) << 36) ^
                    (u(i) << 20) ^ u(j);
  const double noise =
      static_cast<double>(ccaperf::splitmix64(s) >> 11) * 0x1.0p-53;
  return 1.0 + c + 0.05 * i - 0.03 * j + 0.4 * noise;
}

/// Cut positions splitting [lo, hi] into runs of `align` x 1..max_units
/// cells (the last run takes what is left).
std::vector<int> cuts(int lo, int hi, int align, int max_units,
                      ccaperf::Rng& rng) {
  std::vector<int> starts{lo};
  for (int at = lo;;) {
    at += align * static_cast<int>(rng.uniform_int(1, max_units));
    if (at > hi) break;
    starts.push_back(at);
  }
  return starts;
}

/// Grid tiling of `region` with independent random column and row cuts.
std::vector<Box> tile(const Box& region, int align, int max_units,
                      ccaperf::Rng& rng) {
  const auto xs = cuts(region.lo().i, region.hi().i, align, max_units, rng);
  const auto ys = cuts(region.lo().j, region.hi().j, align, max_units, rng);
  std::vector<Box> boxes;
  for (std::size_t b = 0; b < ys.size(); ++b)
    for (std::size_t a = 0; a < xs.size(); ++a) {
      const int ihi = a + 1 < xs.size() ? xs[a + 1] - 1 : region.hi().i;
      const int jhi = b + 1 < ys.size() ? ys[b + 1] - 1 : region.hi().j;
      boxes.push_back(Box{xs[a], ys[b], ihi, jhi});
    }
  return boxes;
}

/// Replaces level `l`'s patches with `boxes`, the k-th owned by
/// `owner(k)`, and fills every local patch (ghosts included) with
/// cell_value. `owner` must give the same answers on every rank.
void install(Hierarchy& h, int l, const std::vector<Box>& boxes,
             const std::function<int(std::size_t)>& owner) {
  const HierarchyConfig& cfg = h.config();
  Level& lvl = h.level(l);
  lvl.patches().clear();
  lvl.local_data().clear();
  for (std::size_t k = 0; k < boxes.size(); ++k) {
    const PatchInfo p{static_cast<int>(k), boxes[k], owner(k)};
    lvl.patches().push_back(p);
    if (p.owner != h.rank()) continue;
    PatchData<double> data(p.box, cfg.nghost, cfg.ncomp);
    const Box g = data.grown_box();
    for (int c = 0; c < cfg.ncomp; ++c)
      for (int j = g.lo().j; j <= g.hi().j; ++j)
        for (int i = g.lo().i; i <= g.hi().i; ++i)
          data(i, j, c) = cell_value(l, p.id, i, j, c);
    lvl.local_data().emplace(p.id, std::move(data));
  }
}

/// Random owners, drawn identically on every rank from the same `rng`.
std::function<int(std::size_t)> random_owner(const Hierarchy& h,
                                             ccaperf::Rng& rng) {
  return [&rng, n = h.nranks()](std::size_t) {
    return static_cast<int>(rng.uniform_int(0, n - 1));
  };
}

/// Builds all `max_levels` levels over the whole domain (every cell
/// flagged), ready for install() to replace their layouts.
void build_full_levels(Hierarchy& h) {
  h.init_level0();
  h.regrid([](const Hierarchy&, int, const PatchInfo& p, amr::FlagField& f) {
    f.set_box(p.box);
  });
}

HierarchyConfig exactness_config(int ratio, int nghost) {
  HierarchyConfig cfg;
  cfg.domain = Box{0, 0, 23, 15};
  cfg.max_levels = 3;
  cfg.ratio = ratio;
  cfg.nghost = nghost;
  cfg.ncomp = 2;
  cfg.level0_patch_size = 8;
  return cfg;
}

/// Index of the first differing double in two same-box patches, or -1.
long first_mismatch(const PatchData<double>& a, const PatchData<double>& b) {
  const auto x = a.raw(), y = b.raw();
  for (std::size_t k = 0; k < x.size(); ++k)
    if (std::memcmp(&x[k], &y[k], sizeof(double)) != 0)
      return static_cast<long>(k);
  return -1;
}

struct Gathers {
  ExchangeStats ref;
  ExchangeStats prod;
};

/// Runs the reference on a copy of level `l`'s data, then
/// Hierarchy::prolong on the level itself, and expects every local fine
/// cell to match bit for bit. Returns both gathers' stats on this rank.
Gathers expect_same_bits(Hierarchy& h, int l, bool ghosts_only,
                         const std::string& where) {
  PatchMap expected = h.level(l).local_data();
  Gathers g;
  g.ref = amr::reference::prolong(h, l, ghosts_only, expected);
  g.prod = h.prolong(l, ghosts_only);
  for (const auto& [id, data] : h.level(l).local_data()) {
    const long k = first_mismatch(data, expected.at(id));
    const std::size_t plane = data.pts_per_comp();
    EXPECT_EQ(k, -1) << where << " level " << l
                     << (ghosts_only ? " ghosts" : " full") << ": patch " << id
                     << " box " << h.level(l).patch(id).box.to_string()
                     << " differs at component " << k / static_cast<long>(plane)
                     << ", offset " << k % static_cast<long>(plane);
  }
  EXPECT_LE(g.prod.bytes_sent, g.ref.bytes_sent) << where;
  EXPECT_LE(g.prod.messages_sent, g.ref.messages_sent) << where;
  if (!ghosts_only) {
    // Interior fills read the whole footprint: the same traffic.
    EXPECT_EQ(g.prod.bytes_sent, g.ref.bytes_sent) << where;
    EXPECT_EQ(g.prod.messages_sent, g.ref.messages_sent) << where;
  }
  return g;
}

// (ranks, refinement ratio, seed); the ghost width is 1 + seed % 3.
using Param = std::tuple<int, int, std::uint64_t>;

class ProlongExactness : public ::testing::TestWithParam<Param> {};

TEST_P(ProlongExactness, RandomTilingsMatchReferenceBitForBit) {
  const int nranks = std::get<0>(GetParam());
  const int ratio = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  const HierarchyConfig cfg =
      exactness_config(ratio, 1 + static_cast<int>(seed % 3));
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    Hierarchy h(world, cfg);
    build_full_levels(h);
    ASSERT_EQ(h.num_levels(), 3);
    ccaperf::Rng rng(seed);
    install(h, 0, tile(h.domain_at(0), 1, 7, rng), random_owner(h, rng));
    for (int l = 1; l < h.num_levels(); ++l) {
      // A random coarse-aligned region: the whole domain (patches on every
      // edge) or an inset that may still touch some edges.
      const Box cdom = h.domain_at(l - 1);
      Box region = cdom;
      if (rng.uniform() < 0.6) {
        const int w = cdom.width(), ht = cdom.height();
        region = Box{static_cast<int>(rng.uniform_int(0, w / 3)),
                     static_cast<int>(rng.uniform_int(0, ht / 3)),
                     static_cast<int>(rng.uniform_int(2 * w / 3, w - 1)),
                     static_cast<int>(rng.uniform_int(2 * ht / 3, ht - 1))};
      }
      region = region.refined(ratio);
      // Mostly r-aligned patches as regrid builds them; sometimes
      // unaligned ones, whose coarsened boxes straddle their edges.
      const bool aligned = rng.uniform() < 0.75;
      install(h, l,
              aligned ? tile(region, ratio, 6, rng)
                      : tile(region, 1, 6 * ratio, rng),
              random_owner(h, rng));
    }
    const std::string where = "seed " + std::to_string(seed);
    for (int l = 1; l < h.num_levels(); ++l) {
      expect_same_bits(h, l, /*ghosts_only=*/true, where);
      expect_same_bits(h, l, /*ghosts_only=*/false, where);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, ProlongExactness,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(2, 3, 4),
                       ::testing::Values<std::uint64_t>(11, 12, 13, 14)),
    [](const ::testing::TestParamInfo<Param>& p) {
      return std::to_string(std::get<0>(p.param)) + "ranks_r" +
             std::to_string(std::get<1>(p.param)) + "_seed" +
             std::to_string(std::get<2>(p.param));
    });

TEST(ProlongExactnessThin, PatchesOneToThreeCoarseCellsWide) {
  // Fine patches 1-3 coarse cells wide have an empty (or one-cell) inner
  // box: the whole footprint, or nearly, is ghost donor.
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    mpp::Runtime::run(3, [&](mpp::Comm& world) {
      Hierarchy h(world, exactness_config(2, 2));
      build_full_levels(h);
      ccaperf::Rng rng(seed);
      install(h, 0, tile(h.domain_at(0), 1, 5, rng), random_owner(h, rng));
      install(h, 1, tile(h.domain_at(1), 2, 3, rng), random_owner(h, rng));
      install(h, 2, tile(Box{8, 4, 39, 27}.refined(2), 2, 3, rng),
              random_owner(h, rng));
      const std::string where = "thin seed " + std::to_string(seed);
      for (int l = 1; l < h.num_levels(); ++l) {
        expect_same_bits(h, l, /*ghosts_only=*/true, where);
        expect_same_bits(h, l, /*ghosts_only=*/false, where);
      }
    });
  }
}

TEST(ProlongExactnessTraffic, GhostGatherShipsFewerBytesAcrossRanks) {
  // One large fine patch on rank 0 over coarse tiles dealt round-robin to
  // 3 ranks: the coarse cells under its interior, which ghost interpolation
  // never reads, are remote, so leaving them out must cut the bytes sent.
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    HierarchyConfig cfg = exactness_config(2, 2);
    cfg.max_levels = 2;
    Hierarchy h(world, cfg);
    build_full_levels(h);
    ASSERT_EQ(h.num_levels(), 2);
    std::vector<Box> tiles;
    for (int j = 0; j < 16; j += 8)
      for (int i = 0; i < 24; i += 8) tiles.push_back(Box{i, j, i + 7, j + 7});
    install(h, 0, tiles, [](std::size_t k) { return static_cast<int>(k % 3); });
    install(h, 1, {Box{3, 2, 20, 13}.refined(2)}, [](std::size_t) { return 0; });

    const Gathers g = expect_same_bits(h, 1, /*ghosts_only=*/true, "traffic");
    const auto sum = [&world](std::size_t v) {
      return world.allreduce_value<>(static_cast<double>(v));
    };
    const double ref_bytes = sum(g.ref.bytes_sent);
    const double prod_bytes = sum(g.prod.bytes_sent);
    EXPECT_LT(prod_bytes, ref_bytes);
    EXPECT_EQ(sum(g.prod.messages_sent), sum(g.ref.messages_sent));
    // The footprint (2..21, 1..14) reaches one coarse cell past the
    // coarsened box (3..20, 2..13), so no slope reads it and none of its
    // 18 x 12 cells is shipped. The 5 x 12 of them in tiles 0 and 3 are
    // rank 0's own (local copies); the other 156 cells x 2 components x 8
    // bytes leave the wire.
    EXPECT_EQ(ref_bytes - prod_bytes, 156.0 * 2 * 8);
  });
}

}  // namespace
