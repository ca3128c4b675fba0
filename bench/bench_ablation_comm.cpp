// Ablation — communication cost structure of the ghost-cell update.
//
// The paper attributes ~25% of run time to MPI_Waitsome driven by
// AMRMesh's ghost updates, with scatter from "fluctuating network loads".
// This bench isolates the exchange: ghost-update wall time vs (a) the
// network model (none / latency-only / the classic-cluster model with
// jitter) and (b) the patch count per rank (message fan-out). It also
// counts the messages and bytes one update moves, and those of one
// coarse->fine ghost prolongation — a deterministic series
// (the decomposition is a pure function of the mesh) that
// scripts/bench_gate.py gates via bench/baselines/comm.json, so a change
// that silently multiplies ghost traffic fails CI even on a noisy runner.
//
// Results land in bench_out/comm.json.

#include <atomic>

#include "bench_common.hpp"

namespace {

/// Mean ghost-update wall time (us) for a tiled level on 3 ranks.
double exchange_us(int tiles_per_side, const mpp::NetworkModel& net, int reps) {
  std::vector<double> out(3, 0.0);
  mpp::Runtime::run(3, net, [&](mpp::Comm& world) {
    amr::HierarchyConfig cfg;
    const int cells = tiles_per_side * 16;
    cfg.domain = amr::Box{0, 0, cells - 1, cells - 1};
    cfg.max_levels = 1;
    cfg.ncomp = euler::kNcomp;
    cfg.level0_patch_size = 16;
    cfg.geom = amr::Geometry{0.0, 0.0, 1.0 / cells, 1.0 / cells};
    amr::Hierarchy h(world, cfg);
    h.init_level0();
    for (auto& [id, data] : h.level(0).local_data()) data.fill(1.0);

    h.exchange_and_bc(0, amr::BcSpec{});  // warm-up
    const double t0 = world.wtime();
    for (int rep = 0; rep < reps; ++rep) h.exchange_and_bc(0, amr::BcSpec{});
    const double t1 = world.wtime();
    const double mine = (t1 - t0) * 1e6 / reps;
    out[static_cast<std::size_t>(world.rank())] =
        world.allreduce_value<mpp::MaxOp<double>>(mine);
  });
  return out[0];
}

/// Counts sent messages/bytes on the installing rank.
struct SendCounter : mpp::CommHooks {
  void on_begin(const char*) override {}
  void on_end(const char*, std::size_t) override {}
  void on_message_send(const mpp::MsgEvent& e) override {
    ++msgs;
    bytes += e.bytes;
  }
  std::uint64_t msgs = 0, bytes = 0;
};

/// Messages and payload bytes one ghost update moves across all 3 ranks.
std::pair<std::uint64_t, std::uint64_t> exchange_traffic(int tiles_per_side) {
  std::atomic<std::uint64_t> msgs{0}, bytes{0};
  mpp::Runtime::run(3, [&](mpp::Comm& world) {
    amr::HierarchyConfig cfg;
    const int cells = tiles_per_side * 16;
    cfg.domain = amr::Box{0, 0, cells - 1, cells - 1};
    cfg.max_levels = 1;
    cfg.ncomp = euler::kNcomp;
    cfg.level0_patch_size = 16;
    cfg.geom = amr::Geometry{0.0, 0.0, 1.0 / cells, 1.0 / cells};
    amr::Hierarchy h(world, cfg);
    h.init_level0();
    for (auto& [id, data] : h.level(0).local_data()) data.fill(1.0);
    h.exchange_and_bc(0, amr::BcSpec{});  // warm-up / settle
    SendCounter sc;
    mpp::HooksInstaller install(&sc);
    h.exchange_and_bc(0, amr::BcSpec{});
    msgs += sc.msgs;
    bytes += sc.bytes;
  });
  return {msgs.load(), bytes.load()};
}

/// Messages and payload bytes one coarse->fine ghost prolongation moves
/// across all 3 ranks: a 64 x 64 base in 16 x 16 tiles, one refined level
/// over a centred 24 x 24 blob split into patches at most 16 coarse cells
/// wide. Deterministic like exchange_traffic (gated series).
std::pair<std::uint64_t, std::uint64_t> prolong_traffic() {
  std::atomic<std::uint64_t> msgs{0}, bytes{0};
  mpp::Runtime::run(3, [&](mpp::Comm& world) {
    amr::HierarchyConfig cfg;
    cfg.domain = amr::Box{0, 0, 63, 63};
    cfg.max_levels = 2;
    cfg.ncomp = euler::kNcomp;
    cfg.level0_patch_size = 16;
    cfg.cluster = amr::ClusterParams{0.8, 4, 16};
    cfg.geom = amr::Geometry{0.0, 0.0, 1.0 / 64, 1.0 / 64};
    amr::Hierarchy h(world, cfg);
    h.init_level0();
    for (auto& [id, data] : h.level(0).local_data()) data.fill(1.0);
    h.regrid([](const amr::Hierarchy&, int, const amr::PatchInfo& p,
                amr::FlagField& flags) {
      flags.set_box(amr::Box{20, 20, 43, 43} & p.box);
    });
    SendCounter sc;
    mpp::HooksInstaller install(&sc);
    h.prolong(1, /*ghosts_only=*/true);
    msgs += sc.msgs;
    bytes += sc.bytes;
  });
  return {msgs.load(), bytes.load()};
}

}  // namespace

int main() {
  mpp::NetworkModel latency_only;
  latency_only.latency_us = 60.0;
  const std::vector<std::pair<const char*, mpp::NetworkModel>> nets{
      {"no network model", mpp::NetworkModel::null_model()},
      {"latency 60us", latency_only},
      {"classic cluster (latency+bw+jitter)", mpp::NetworkModel::classic_cluster()},
  };

  std::cout << "Ablation: level ghost-update time (us, max over 3 ranks)\n\n";
  std::vector<bench::JsonEntry> json;
  ccaperf::TextTable t;
  t.set_header({"tiles", "patches", "msgs", "bytes", "no net", "latency",
                "classic cluster", "classic/none"});
  for (int tiles : {2, 4, 6, 8}) {
    std::vector<double> us;
    for (const auto& [name, net] : nets) us.push_back(exchange_us(tiles, net, 4));
    const auto [msgs, bytes] = exchange_traffic(tiles);
    t.add_row({std::to_string(tiles) + "x" + std::to_string(tiles),
               std::to_string(tiles * tiles), std::to_string(msgs),
               std::to_string(bytes), ccaperf::fmt_double(us[0], 5),
               ccaperf::fmt_double(us[1], 5), ccaperf::fmt_double(us[2], 5),
               ccaperf::fmt_double(us[2] / std::max(1.0, us[0]), 3)});
    const std::string suffix = "_" + std::to_string(tiles) + "x" +
                               std::to_string(tiles);
    json.push_back({"ghost_update", "msgs" + suffix,
                    static_cast<double>(msgs)});
    json.push_back({"ghost_update", "bytes" + suffix,
                    static_cast<double>(bytes)});
    json.push_back({"ghost_update", "no_net_us" + suffix, us[0]});
    json.push_back({"ghost_update", "classic_us" + suffix, us[2]});
  }
  t.render(std::cout);
  const auto [prolong_msgs, prolong_bytes] = prolong_traffic();
  std::cout << "\nghost prolongation (3 ranks, 2 levels): " << prolong_msgs
            << " msgs, " << prolong_bytes << " bytes\n";
  json.push_back({"ghost_prolong", "prolong_msgs",
                  static_cast<double>(prolong_msgs)});
  json.push_back({"ghost_prolong", "prolong_bytes",
                  static_cast<double>(prolong_bytes)});
  bench::write_bench_json("bench_out/comm.json", json);

  bench::print_comparison(
      "communication ablation",
      {
          {"comm cost dominated by network, not copies",
           "MPI waits dominate AMRMesh methods",
           "classic-cluster column >> no-net column"},
          {"fan-out scaling", "more patches -> more ghost traffic per update",
           "bytes grow down the tiles column; messages stay coalesced "
           "per neighbor (gated series)"},
      });
  return 0;
}
