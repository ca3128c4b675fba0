#pragma once
// Reference coarse->fine prolongation for the ProlongExactness suite.
//
// This is the earlier Hierarchy::prolong, kept verbatim as free functions:
// the gather ships each fine patch's whole coarsened grown footprint, and
// the interpolation recomputes the limited slopes of a coarse cell for
// every fine child. The production path ships only the coarse cells ghost
// interpolation reads and computes each slope once; the suite checks that
// both write the same bits into every fine cell.

#include <cmath>
#include <map>
#include <vector>

#include "amr/hierarchy.hpp"

namespace amr::reference {

inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

/// Gathers coarse donor data under the (grown) footprint of each fine
/// patch into per-patch halo buffers; returns halos for local patches.
inline std::map<int, PatchData<double>> gather_coarse_halos(
    Hierarchy& hier, const Level& coarse, const Level& fine,
    ExchangeStats& stats) {
  const HierarchyConfig& cfg = hier.config();
  const int r = cfg.ratio;
  const Box cdom = coarse.domain();

  // Identical synthetic destination set on every rank: one halo patch per
  // fine patch, on coarse index space, owned by the fine patch's owner.
  std::vector<PatchInfo> halos_meta;
  halos_meta.reserve(fine.patches().size());
  for (const PatchInfo& f : fine.patches()) {
    const Box halo = f.box.grown(cfg.nghost).coarsened(r) & cdom;
    halos_meta.push_back(PatchInfo{f.id, halo, f.owner});
  }

  std::map<int, PatchData<double>> halos;
  for (const PatchInfo& h : halos_meta) {
    if (h.owner != hier.rank() || h.box.empty()) continue;
    halos.emplace(h.id, PatchData<double>(h.box, 0, cfg.ncomp, 0.0));
  }

  auto src = [&coarse](int id) -> const PatchData<double>* {
    return coarse.has_data(id) ? &coarse.data(id) : nullptr;
  };
  auto dst = [&halos](int id) -> PatchData<double>* {
    auto it = halos.find(id);
    return it == halos.end() ? nullptr : &it->second;
  };
  stats = exchange_copy(hier.comm(), coarse.patches(), src, halos_meta, dst,
                        [](const PatchInfo& p) { return p.box; },
                        /*skip_same_id=*/false, hier.next_tag(1));
  return halos;
}

inline void interpolate_patch(const PatchData<double>& coarse_halo,
                              PatchData<double>& fine, const Box& target,
                              int ratio) {
  const Box h = coarse_halo.interior();
  const int ncomp = fine.ncomp();
  for (int c = 0; c < ncomp; ++c) {
    for (int j = target.lo().j; j <= target.hi().j; ++j) {
      const int J = floor_div(j, ratio);
      for (int i = target.lo().i; i <= target.hi().i; ++i) {
        const int I = floor_div(i, ratio);
        if (!h.contains(IntVect{I, J})) continue;  // outside domain: BC later
        const double center = coarse_halo(I, J, c);
        double sx = 0.0, sy = 0.0;
        if (h.contains(IntVect{I - 1, J}) && h.contains(IntVect{I + 1, J}))
          sx = minmod(coarse_halo(I + 1, J, c) - center,
                      center - coarse_halo(I - 1, J, c));
        if (h.contains(IntVect{I, J - 1}) && h.contains(IntVect{I, J + 1}))
          sy = minmod(coarse_halo(I, J + 1, c) - center,
                      center - coarse_halo(I, J - 1, c));
        // Sub-cell offset of the fine cell center within the coarse cell,
        // in coarse-cell units, in [-0.5, 0.5).
        const double fx =
            (static_cast<double>(i - I * ratio) + 0.5) / ratio - 0.5;
        const double fy =
            (static_cast<double>(j - J * ratio) + 0.5) / ratio - 0.5;
        fine(i, j, c) = center + sx * fx + sy * fy;
      }
    }
  }
}

/// Hierarchy::prolong as it was, writing into `fine_data` (a copy of
/// level `fine_l`'s local data) instead of the level itself. Returns the
/// gather's stats. Collective, like Hierarchy::prolong.
inline ExchangeStats prolong(Hierarchy& hier, int fine_l, bool ghosts_only,
                             std::map<int, PatchData<double>>& fine_data) {
  const HierarchyConfig& cfg = hier.config();
  const Level& fine = hier.level(fine_l);
  const Level& coarse = hier.level(fine_l - 1);
  ExchangeStats stats;
  auto halos = gather_coarse_halos(hier, coarse, fine, stats);

  const Box fdom = hier.domain_at(fine_l);
  for (const PatchInfo& f : fine.patches()) {
    if (f.owner != hier.rank()) continue;
    auto hit = halos.find(f.id);
    if (hit == halos.end()) continue;
    PatchData<double>& data = fine_data.at(f.id);
    if (ghosts_only) {
      const Box ghost_region = f.box.grown(cfg.nghost) & fdom;
      for (const Box& piece : box_subtract(ghost_region, f.box))
        interpolate_patch(hit->second, data, piece, cfg.ratio);
    } else {
      interpolate_patch(hit->second, data, f.box, cfg.ratio);
    }
  }
  return stats;
}

}  // namespace amr::reference
