// amr_paper and amr_lanes: episodes of the instrumented case-study
// assembly driven through GoPort::go(). One episode = assemble + initialize
// (set-up) + a fixed number of coarse steps; episodes repeat until the
// run's time is up, and every episode must end in the same density field.

#include <cstring>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "components/app_assembly.hpp"
#include "core/instrumented_app.hpp"
#include "mpp/runtime.hpp"
#include "support/thread_pool.hpp"
#include "timing_ports.hpp"

namespace perfbench {
namespace {

struct AmrSpec {
  components::AppConfig cfg;
  int ranks = 1;
  int lanes = 1;
  mpp::NetworkModel net;
  std::string net_name;
};

AmrSpec amr_spec(const std::string& workload, std::uint64_t seed) {
  AmrSpec sp;
  sp.cfg = components::AppConfig::case_study();
  if (workload == "amr_paper") {
    sp.cfg.driver = components::DriverConfig{24, 0.4, 4};
    sp.ranks = 3;
    sp.lanes = 1;
    sp.net = mpp::NetworkModel::classic_cluster(seed);
    sp.net_name = "classic_cluster";
  } else {
    sp.cfg.mesh.domain = amr::Box{0, 0, 191, 95};
    sp.cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / 192.0, 1.0 / 96.0};
    sp.cfg.mesh.level0_patch_size = 12;
    sp.cfg.flux_impl = "EFMFlux";
    sp.cfg.driver = components::DriverConfig{24, 0.4, 4};
    sp.ranks = 2;
    sp.lanes = 2;
    sp.net = mpp::NetworkModel::null_model();
    sp.net.seed = seed;  // recorded only: the null model draws no jitter
    sp.net_name = "null_model";
  }
  return sp;
}

std::string config_json(const std::string& workload, const AmrSpec& sp) {
  const auto& m = sp.cfg.mesh;
  std::ostringstream os;
  os << "{\"workload\": \"" << workload << "\", \"base\": [" << m.domain.width()
     << ", " << m.domain.height() << "], \"max_levels\": " << m.max_levels
     << ", \"ratio\": " << m.ratio << ", \"level0_patch_size\": "
     << m.level0_patch_size << ", \"flux\": \"" << sp.cfg.flux_impl
     << "\", \"ranks\": " << sp.ranks << ", \"lanes\": " << sp.lanes
     << ", \"network\": \"" << sp.net_name << "\", \"latency_us\": "
     << sp.net.latency_us << ", \"bandwidth_bytes_per_us\": "
     << sp.net.bandwidth_bytes_per_us << ", \"jitter_sigma\": " << sp.net.jitter_sigma
     << ", \"jitter_seed\": " << sp.net.seed << ", \"steps_per_episode\": "
     << sp.cfg.driver.nsteps << ", \"cfl\": " << sp.cfg.driver.cfl
     << ", \"regrid_interval\": " << sp.cfg.driver.regrid_interval
     << ", \"assembly\": \"instrumented\", \"telemetry\": \"off\"}";
  return os.str();
}

/// The density digest of the session drivers: FNV over one rank's local
/// density field in (level, patch id, j, i) order.
std::uint64_t rank_density_digest(amr::Hierarchy& h) {
  std::uint64_t d = kFnvBasis;
  for (int l = 0; l < h.num_levels(); ++l) {
    for (auto& [id, data] : h.level(l).local_data()) {
      fnv_u64(d, static_cast<std::uint64_t>(l));
      fnv_u64(d, static_cast<std::uint64_t>(id));
      const amr::Box box = h.level(l).patch(id).box;
      for (int j = box.lo().j; j <= box.hi().j; ++j)
        for (int i = box.lo().i; i <= box.hi().i; ++i) {
          std::uint64_t bits = 0;
          const double rho = data(i, j, euler::kRho);
          std::memcpy(&bits, &rho, sizeof bits);
          fnv_u64(d, bits);
        }
    }
  }
  return d;
}

struct Episode {
  std::vector<double> step_ms;  ///< slowest rank per step
  std::vector<double> cells;    ///< census per step
  double setup_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<Span> spans;
  std::uint64_t messages = 0, bytes = 0, hops = 0;
  std::vector<std::int64_t> first_entry, done;  ///< per rank
};

/// The timing ports of the traced run, on both sides of every proxy.
void wire_timers(cca::Framework& fw) {
  interpose(fw, "t_mesh_out", "TimedMeshOuter", "mesh", {"driver", "rk2"}, "mesh",
            "icc_proxy", "mesh");
  interpose(fw, "t_mesh_in", "TimedMeshInner", "mesh", {"icc_proxy"}, "mesh_real",
            "mesh", "mesh");
  interpose(fw, "t_invflux", "TimedFluxDiv", "invflux", {"rk2"}, "invflux",
            "invflux", "invflux");
  interpose(fw, "t_states_out", "TimedStatesOuter", "states", {"invflux"},
            "states", "sc_proxy", "states");
  interpose(fw, "t_states_in", "TimedStatesInner", "states", {"sc_proxy"},
            "states_real", "states", "states");
  interpose(fw, "t_flux_out", "TimedFluxOuter", "flux", {"invflux"}, "flux",
            "flux_proxy", "flux");
  interpose(fw, "t_flux_in", "TimedFluxInner", "flux", {"flux_proxy"}, "flux_real",
            "flux", "flux");
}

Episode run_episode(const AmrSpec& sp, bool traced) {
  const auto nr = static_cast<std::size_t>(sp.ranks);
  std::vector<RankCtx> ctx(nr);
  std::vector<std::uint64_t> digests(nr, 0);
  std::vector<std::int64_t> done(nr, 0);
  std::vector<std::uint64_t> msgs(nr, 0), bytes(nr, 0), hops(nr, 0);
  Episode ep;
  mpp::RunOptions opts;
  opts.net = sp.net;

  Tracer::set_on(traced);
  const std::int64_t launch = now_ns();
  mpp::Runtime::run(sp.ranks, opts, [&](mpp::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    RankCtx& c = ctx[r];
    c.rank = world.rank();
    ccaperf::set_rank_pool_threads(sp.lanes);

    const std::int32_t assemble = Tracer::begin(SpanKind::assemble, c.rank, 0);
    core::InstrumentedApp app = core::assemble_instrumented_app(world, sp.cfg);
    cca::Framework& fw = app.fw();
    register_timing_ports(fw, &c);
    interpose(fw, "t_integrator", "TimedIntegrator", "integrator", {"driver"},
              "integrator", "rk2", "integrator");
    fw.connect("t_integrator", "mesh", "mesh", "mesh");
    if (traced) wire_timers(fw);
    for (const std::string& name : fw.instance_names())
      if (auto* t = dynamic_cast<TimingComponent*>(&fw.component(name))) t->bind();
    Tracer::end(assemble);

    std::optional<ChainHooks> chain;
    std::optional<mpp::HooksInstaller> installed;
    if (traced) {
      chain.emplace(mpp::hooks(), &c);
      installed.emplace(&*chain);
    }
    fw.services("driver").provided_as<components::GoPort>("go")->go();
    done[r] = now_ns();
    installed.reset();

    auto* mesh = fw.services("driver").get_port_as<components::MeshPort>("mesh");
    digests[r] = rank_density_digest(mesh->hierarchy());
    if (chain) {
      msgs[r] = chain->messages;
      bytes[r] = chain->message_bytes;
      hops[r] = chain->hops;
    }
  });
  Tracer::set_on(false);

  const std::size_t nsteps = ctx[0].step_entry.size();
  ep.step_ms.assign(nsteps, 0.0);
  std::int64_t first = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    const auto& e = ctx[r].step_entry;
    if (e.size() != nsteps || nsteps == 0)
      throw std::runtime_error("amr: ranks disagree on the step count");
    first = std::max(first, e[0]);
    for (std::size_t k = 0; k < nsteps; ++k) {
      const std::int64_t end = k + 1 < nsteps ? e[k + 1] : done[r];
      ep.step_ms[k] = std::max(ep.step_ms[k], 1e-6 * static_cast<double>(end - e[k]));
    }
    ep.first_entry.push_back(e[0]);
    ep.done.push_back(done[r]);
    ep.messages += msgs[r];
    ep.bytes += bytes[r];
    ep.hops += hops[r];
  }
  ep.setup_s = 1e-9 * static_cast<double>(first - launch);
  ep.cells = ctx[0].step_cells;
  ep.digest = kFnvBasis;
  for (const std::uint64_t d : digests) fnv_u64(ep.digest, d);
  if (traced) ep.spans = Tracer::take_all();
  return ep;
}

/// Counts of one traced episode that must repeat exactly.
struct EpisodeCounts {
  std::uint64_t faces = 0, ghost_messages = 0, ghost_bytes = 0;
  std::uint64_t messages = 0, bytes = 0, hops = 0;
  double cells = 0.0;
  bool operator==(const EpisodeCounts&) const = default;
};

struct Phase {
  std::vector<double> unit_ms, setup_s, cells, rss_mb;
  std::size_t steps = 0;
  double loop_s = 0.0;
  std::vector<Episode> episodes;  ///< traced phase keeps its episodes
};

Phase run_phase(const AmrSpec& sp, bool traced, double seconds,
                std::uint64_t ref_digest, Result& res) {
  Phase ph;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t prev_digest = 0;
  do {
    reset_peak_rss();
    Episode ep = run_episode(sp, traced);
    ph.rss_mb.push_back(peak_rss_mb());
    const std::size_t n = ep.step_ms.size();
    res.attempted += n;
    bool ok = true;
    if (ep.digest != ref_digest) {
      res.fail("density digest " + hex64(ep.digest) + " != reference " +
               hex64(ref_digest));
      ok = false;
    }
    if (prev_digest != 0 && ep.digest != prev_digest) {
      res.fail("density digest changed between episodes");
      ok = false;
    }
    prev_digest = ep.digest;
    if (!ok) res.failed += n;
    if (res.digests.empty() || res.digests.back() != hex64(ep.digest))
      res.digests.push_back(hex64(ep.digest));
    ph.unit_ms.insert(ph.unit_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
    ph.cells.insert(ph.cells.end(), ep.cells.begin(), ep.cells.end());
    ph.setup_s.push_back(ep.setup_s);
    ph.steps += n;
    if (traced) ph.episodes.push_back(std::move(ep));
  } while (now_ns() < deadline || ph.setup_s.size() < 3);
  ph.loop_s = 1e-9 * static_cast<double>(now_ns() - t0);
  return ph;
}

void fill_ledger(Ledger& led, const AmrSpec& sp, const Phase& ph, Result& res) {
  KindTotals t;
  double skew_ns = 0.0, algo_ns = 0.0, covered_ns = 0.0, window_ns = 0.0;
  std::uint64_t messages = 0, bytes = 0, hops = 0;
  std::optional<EpisodeCounts> first;
  for (const Episode& ep : ph.episodes) {
    t.add(ep.spans);
    split_collectives(ep.spans, skew_ns, algo_ns);
    messages += ep.messages;
    bytes += ep.bytes;
    hops += ep.hops;

    // Residual: each rank thread's stepping window minus its top-level
    // spans (the layers' self times telescope to the top-level durations).
    std::vector<std::int32_t> rank_thread(ep.done.size(), -1);
    for (const Span& s : ep.spans)
      if (s.kind == SpanKind::stable_dt) rank_thread[static_cast<std::size_t>(s.rank)] = s.thread;
    for (std::size_t r = 0; r < ep.done.size(); ++r) {
      window_ns += static_cast<double>(ep.done[r] - ep.first_entry[r]);
      for (const Span& s : ep.spans)
        if (s.parent < 0 && s.thread == rank_thread[r] && s.t0 >= ep.first_entry[r] &&
            s.t1 <= ep.done[r])
          covered_ns += static_cast<double>(s.dur());
    }

    EpisodeCounts c;
    KindTotals et;
    et.add(ep.spans);
    c.faces = et.work_a(SpanKind::states);
    c.ghost_messages = et.work_a(SpanKind::ghost_update);
    c.ghost_bytes = et.work_b(SpanKind::ghost_update);
    c.messages = ep.messages;
    c.bytes = ep.bytes;
    c.hops = ep.hops;
    for (const double x : ep.cells) c.cells += x;
    if (!first) {
      first = c;
    } else if (!(c == *first)) {
      res.fail("traced counts differ between episodes");
      res.failed += ep.step_ms.size();
    }
  }

  const double steps = static_cast<double>(ph.steps);
  double cells = 0.0, wall_us = 0.0;
  for (const double x : ph.cells) cells += x;
  for (const double ms : ph.unit_ms) wall_us += 1e3 * ms;

  set_euler_metrics(led, t, steps);
  led.set("mpp.wait_us", t.self_us(SpanKind::mpp_wait) / steps);
  led.set("mpp.p2p_post_us", t.self_us(SpanKind::mpp_p2p) / steps);
  led.set("mpp.collective_algo_us", 1e-3 * algo_ns / steps);
  led.set("mpp.collective_skew_us", 1e-3 * skew_ns / steps);
  led.set("mpp.messages", static_cast<double>(messages) / steps);
  led.set("mpp.bytes", static_cast<double>(bytes) / steps);
  led.set("mpp.hops", static_cast<double>(hops) / steps);
  led.set("amr.ghost_update_self_us", t.self_us(SpanKind::ghost_update) / steps);
  led.set("amr.prolong_self_us", t.self_us(SpanKind::prolong) / steps);
  led.set("amr.restrict_self_us", t.self_us(SpanKind::restrict_level) / steps);
  led.set("amr.regrid_self_us", t.self_us(SpanKind::regrid) / steps);
  led.set("amr.initialize_self_us",
          t.self_us(SpanKind::initialize) / static_cast<double>(t.n(SpanKind::initialize)));
  led.set("amr.cells", cells / steps);
  led.set("amr.ghost_messages", static_cast<double>(t.work_a(SpanKind::ghost_update)) / steps);
  led.set("amr.ghost_bytes", static_cast<double>(t.work_b(SpanKind::ghost_update)) / steps);
  led.set("support.lane_util",
          t.dur_us(SpanKind::invflux) / (sp.lanes * t.dur_us(SpanKind::advance)));
  led.set("components.advance_us", t.self_us(SpanKind::advance) / steps);
  led.set("components.stable_dt_us", t.self_us(SpanKind::stable_dt) / steps);
  led.set("components.invflux_us", t.self_us(SpanKind::invflux) / steps);
  set_monitor_metrics(led, t, wall_us * sp.ranks * sp.lanes);
  led.set("cca.assemble_us",
          t.self_us(SpanKind::assemble) / static_cast<double>(t.n(SpanKind::assemble)));
  led.set("residual_pct", 100.0 * (window_ns - covered_ns) / window_ns);
}

}  // namespace

Result run_amr(const Options& opt, const References& ref) {
  const AmrSpec sp = amr_spec(opt.workload, opt.seed);
  Result res;
  res.config_json = config_json(opt.workload, sp);
  const auto it = ref.digest.find(opt.workload);
  const std::uint64_t ref_digest = it == ref.digest.end() ? 0 : it->second;

  // The traced run measures an untraced phase first, then the traced one,
  // so trace_overhead_pct compares like with like in one process.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase plain = run_phase(sp, false, untraced_s, ref_digest, res);
  res.end_to_end = end_to_end_metrics(plain.unit_ms, plain.setup_s,
                                      static_cast<double>(plain.steps) / plain.loop_s,
                                      plain.rss_mb);
  double cells = 0.0, wall_s = 0.0;
  for (const double x : plain.cells) cells += x;
  for (const double ms : plain.unit_ms) wall_s += 1e-3 * ms;
  res.named = {{"step_ms_p50", quantile(plain.unit_ms, 0.5), "ms"},
               {"step_ms_p90", quantile(plain.unit_ms, 0.9), "ms"},
               {"steps", static_cast<double>(plain.steps), "count"},
               {"cell_updates_per_s", cells / wall_s, "1/s"}};
  if (opt.trace) {
    const Phase traced = run_phase(sp, true, opt.seconds - untraced_s, ref_digest, res);
    Ledger led;
    fill_ledger(led, sp, traced, res);
    res.spans = traced.episodes.front().spans;
    led.set("trace_overhead_pct", overhead_pct(traced.unit_ms, plain.unit_ms));
    res.per_layer = led.metrics();
  }
  return res;
}

}  // namespace perfbench
