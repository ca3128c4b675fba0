// characterize: the paper's measure -> model -> optimise flow, one pass at
// a time on one thread. A pass builds a KernelRig and the patch set
// (set-up), sweeps the proxied States / Godunov / EFM components over the
// paper's Q range in both access modes, counts L2 misses per shape on the
// simulated 512 kB Xeon L2, fits the Eq. 1-2 models, builds the dual graph
// and asks the AssemblyOptimizer for the fast and the accurate assembly.

#include <cmath>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "bench_common.hpp"
#include "core/dual_graph.hpp"
#include "core/optimizer.hpp"
#include "timing_ports.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 1;
/// Paper Q range (1e3 to 1.5e5) at a doubling step: 8 shapes.
constexpr double kQFactor = 2.0;
constexpr double kAccurateWeight = 10.0;
/// Simulated misses depend on where malloc places the probed arrays
/// relative to each other modulo the L2 set span (64 kB): the same probe
/// reads up to ~6% apart between a process's first pass and later ones.
/// A count is accepted within this share of its reference.
constexpr double kMissTolerance = 0.10;

const char* const kRecords[3] = {"sc_proxy::compute()", "g_proxy::compute()",
                                 "efm_proxy::compute()"};

struct Pass {
  double setup_s = 0.0;
  double unit_ms = 0.0;
  std::vector<std::uint64_t> misses;  ///< per (shape, dir)
  std::string fast, accurate;
};

/// Timing ports on both sides of the rig's three proxies; the rig's port
/// pointers are re-aimed at the outer ones.
void wire_timers(bench::KernelRig& rig, RankCtx* ctx) {
  cca::Framework& fw = rig.fw;
  register_timing_ports(fw, ctx);
  interpose(fw, "t_states_in", "TimedStatesInner", "states", {"sc_proxy"},
            "states_real", "states", "states");
  interpose(fw, "t_g_in", "TimedFluxInner", "flux", {"g_proxy"}, "flux_real",
            "godunov", "flux");
  interpose(fw, "t_efm_in", "TimedFluxInner", "flux", {"efm_proxy"}, "flux_real",
            "efm", "flux");
  fw.instantiate("t_states_out", "TimedStatesOuter");
  fw.connect("t_states_out", "inner", "sc_proxy", "states");
  fw.instantiate("t_g_out", "TimedFluxOuter");
  fw.connect("t_g_out", "inner", "g_proxy", "flux");
  fw.instantiate("t_efm_out", "TimedFluxOuter");
  fw.connect("t_efm_out", "inner", "efm_proxy", "flux");
  for (const std::string& name : fw.instance_names())
    if (auto* t = dynamic_cast<TimingComponent*>(&fw.component(name))) t->bind();
  rig.states = fw.services("t_states_out").provided_as<components::StatesPort>("states");
  rig.godunov = fw.services("t_g_out").provided_as<components::FluxPort>("flux");
  rig.efm = fw.services("t_efm_out").provided_as<components::FluxPort>("flux");
}

std::unique_ptr<core::PowerLawModel> fit_binned(const std::vector<core::Sample>& all) {
  std::vector<core::Sample> means;
  for (const core::Bin& b : core::bin_by_q(all)) means.push_back({b.q, b.mean});
  return core::fit_power_law(means);
}

Pass run_pass(const std::vector<bench::PatchShape>& shapes, bool traced,
              std::uint32_t id) {
  const euler::GasModel gas;
  Pass p;
  RankCtx ctx;
  ctx.step = id;

  const std::int64_t s0 = now_ns();
  bench::KernelRig rig(gas);
  if (traced) wire_timers(rig, &ctx);
  std::vector<amr::PatchData<double>> patches;
  patches.reserve(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i)
    patches.push_back(bench::workload_patch(shapes[i].interior, gas, 0xbeef + i));
  const std::int64_t t0 = now_ns();
  p.setup_s = 1e-9 * static_cast<double>(t0 - s0);

  {
    ScopedSpan span(SpanKind::sweep, 0, id);
    for (const auto& u : patches)
      for (int rep = 0; rep < kReps; ++rep)
        for (components::FluxPort* flux : {rig.godunov, rig.efm}) {
          rig.invoke(u, euler::Dir::x, flux);
          rig.invoke(u, euler::Dir::y, flux);
        }
  }
  {
    ScopedSpan span(SpanKind::probe, 0, id);
    for (const auto& u : patches)
      for (const euler::Dir dir : {euler::Dir::x, euler::Dir::y}) {
        hwc::XeonHierarchy xeon;
        hwc::CacheProbe probe(&xeon.l1);
        int nx = 0, ny = 0;
        euler::face_dims(u.interior(), dir, nx, ny);
        euler::Array2 l(nx, ny, euler::kNcomp), r(nx, ny, euler::kNcomp);
        euler::compute_states(u, u.interior(), dir, gas, l, r, probe);
        p.misses.push_back(xeon.l2.counters().misses);
      }
  }
  {
    ScopedSpan span(SpanKind::raw_states, 0, id);
    for (const auto& u : patches)
      for (const euler::Dir dir : {euler::Dir::x, euler::Dir::y}) {
        hwc::NullProbe probe;
        int nx = 0, ny = 0;
        euler::face_dims(u.interior(), dir, nx, ny);
        euler::Array2 l(nx, ny, euler::kNcomp), r(nx, ny, euler::kNcomp);
        euler::compute_states(u, u.interior(), dir, gas, l, r, probe);
      }
  }

  std::vector<core::Sample> samples[3];
  std::unique_ptr<core::PowerLawModel> godunov, efm;
  {
    ScopedSpan span(SpanKind::fit, 0, id);
    for (int c = 0; c < 3; ++c) {
      const core::Record* rec = rig.mm->record(kRecords[c]);
      if (rec == nullptr) throw std::runtime_error("characterize: record missing");
      samples[c] = bench::record_samples(*rec, core::Record::Metric::wall);
      const core::MeanSigmaModels eq12 = core::build_mean_sigma_models(samples[c], 4);
      if (!eq12.mean) throw std::runtime_error("characterize: no mean model");
    }
    godunov = fit_binned(samples[1]);
    efm = fit_binned(samples[2]);
  }
  {
    ScopedSpan span(SpanKind::optimize, 0, id);
    std::map<std::string, std::pair<double, double>> weights;
    std::map<std::string, double> calls;
    const std::map<std::string, std::string> proxies{{"sc_proxy", kRecords[0]},
                                                     {"g_proxy", kRecords[1]},
                                                     {"efm_proxy", kRecords[2]}};
    for (const auto& [inst, key] : proxies) {
      const core::Record* rec = rig.mm->record(key);
      double compute = 0.0, comm = 0.0;
      for (std::size_t i = 0; i < rec->count(); ++i) {
        compute += rec->compute_us(i);
        comm += rec->mpi_us(i);
      }
      weights[inst] = {compute, comm};
      calls[inst] = static_cast<double>(rec->count());
    }
    const core::DualGraph dual = core::DualGraph::build(
        rig.fw.wiring(),
        [&](const std::string& inst) {
          const auto it = weights.find(inst);
          return it == weights.end() ? std::pair{0.0, 0.0} : it->second;
        },
        [&](const cca::Connection& c) {
          const auto it = calls.find(c.provider_instance);
          return it == calls.end() ? 1.0 : it->second;
        });
    const core::DualGraph pruned = dual.pruned(0.02);
    if (pruned.vertices().empty()) throw std::runtime_error("characterize: empty dual");

    core::Slot slot;
    slot.functionality = "euler.FluxPort";
    slot.candidates = {core::Candidate{"EFMFlux", efm.get(), 0.7},
                       core::Candidate{"GodunovFlux", godunov.get(), 1.0}};
    std::map<double, double> workload;
    for (const core::Sample& s : samples[1]) workload[s.q] += 1.0;
    for (const auto& [q, n] : workload) slot.workload.emplace_back(q, n);
    core::AssemblyOptimizer opt;
    opt.add_slot(slot);
    p.fast = opt.best(0.0).selection.at("euler.FluxPort");
    p.accurate = opt.best(kAccurateWeight).selection.at("euler.FluxPort");
  }
  p.unit_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  return p;
}

bool misses_match(const std::vector<std::uint64_t>& got,
                  const std::vector<std::uint64_t>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double w = static_cast<double>(want[i]);
    if (std::abs(static_cast<double>(got[i]) - w) > kMissTolerance * w) return false;
  }
  return true;
}

struct Phase {
  std::vector<double> unit_ms, setup_s, rss_mb;
  std::uint64_t misses = 0;  ///< per pass
  double loop_s = 0.0;
  std::vector<Span> spans;
};

Phase run_phase(const std::vector<bench::PatchShape>& shapes, bool traced,
                double seconds, const References& ref, Result& res) {
  Phase ph;
  Tracer::set_on(traced);
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint32_t id = 0; now_ns() < deadline || id < 3; ++id) {
    reset_peak_rss();
    const Pass p = run_pass(shapes, traced, id);
    ph.rss_mb.push_back(peak_rss_mb());
    ph.unit_ms.push_back(p.unit_ms);
    ph.setup_s.push_back(p.setup_s);
    ph.misses = 0;
    for (const std::uint64_t m : p.misses) ph.misses += m;
    ++res.attempted;
    std::string why;
    if (!misses_match(p.misses, ref.l2_misses))
      why = "an L2 miss count is more than 10% off its reference";
    if (p.fast != ref.flux_fast || p.accurate != ref.flux_accurate)
      why = "optimizer chose " + p.fast + " / " + p.accurate + ", expected " +
            ref.flux_fast + " / " + ref.flux_accurate;
    if (!why.empty()) {
      ++res.failed;
      res.fail(why);
    }
    if (!why.empty() || (id == 0 && !traced)) {
      std::string line = "l2_misses";
      for (const std::uint64_t m : p.misses) line += " " + std::to_string(m);
      res.digests.push_back(line);
    }
  }
  ph.loop_s = 1e-9 * static_cast<double>(now_ns() - t0);
  Tracer::set_on(false);
  if (traced) ph.spans = Tracer::take_all();
  return ph;
}

std::string config_json(const std::vector<bench::PatchShape>& shapes) {
  std::ostringstream os;
  os << "{\"workload\": \"characterize\", \"shapes\": " << shapes.size()
     << ", \"q_min\": " << shapes.front().q << ", \"q_max\": " << shapes.back().q
     << ", \"q_factor\": " << kQFactor
     << ", \"modes\": [\"x\", \"y\"], \"reps\": " << kReps
     << ", \"fluxes\": [\"GodunovFlux\", \"EFMFlux\"], \"cache\": \"XeonHierarchy "
        "8kB L1 + 512kB L2\", \"mean_sigma_poly_degree\": 4, \"prune_fraction\": 0.02,"
        " \"qos_weights\": [0, "
     << kAccurateWeight << "], \"threads\": 1}";
  return os.str();
}

}  // namespace

Result run_characterize(const Options& opt, const References& ref) {
  const std::vector<bench::PatchShape> shapes =
      bench::paper_q_sweep(150'000, 1'000, kQFactor);
  Result res;
  res.config_json = config_json(shapes);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase plain = run_phase(shapes, false, untraced_s, ref, res);
  res.end_to_end = end_to_end_metrics(plain.unit_ms, plain.setup_s,
                                      static_cast<double>(plain.unit_ms.size()) / plain.loop_s,
                                      plain.rss_mb);
  res.named = {{"model_build_s", 1e-3 * median(plain.unit_ms), "s"},
               {"passes", static_cast<double>(plain.unit_ms.size()), "count"}};
  if (opt.trace) {
    const Phase traced = run_phase(shapes, true, opt.seconds - untraced_s, ref, res);
    KindTotals t;
    t.add(traced.spans);
    const double passes = static_cast<double>(traced.unit_ms.size());
    double wall_us = 0.0;
    for (const double ms : traced.unit_ms) wall_us += 1e3 * ms;
    Ledger led;
    set_euler_metrics(led, t, passes);
    set_monitor_metrics(led, t, wall_us);
    led.set("core.sweep_us", t.dur_us(SpanKind::sweep) / passes);
    led.set("core.fit_us", t.dur_us(SpanKind::fit) / passes);
    led.set("core.optimize_us", t.dur_us(SpanKind::optimize) / passes);
    led.set("hwc.traced_us", t.dur_us(SpanKind::probe) / passes);
    led.set("hwc.traced_slowdown",
            t.dur_us(SpanKind::probe) / t.dur_us(SpanKind::raw_states));
    led.set("hwc.l2_misses", static_cast<double>(traced.misses));
    double covered_us = 0.0;
    for (const SpanKind k : {SpanKind::sweep, SpanKind::probe, SpanKind::raw_states,
                             SpanKind::fit, SpanKind::optimize})
      covered_us += t.dur_us(k);
    led.set("residual_pct", 100.0 * (wall_us - covered_us) / wall_us);
    led.set("trace_overhead_pct", overhead_pct(traced.unit_ms, plain.unit_ms));
    res.per_layer = led.metrics();
    res.spans = traced.spans;
  }
  return res;
}

}  // namespace perfbench
