// tenants: one TelemetryHub, three closed-loop clients. Each client
// alternates LU and AMR sessions back to back: open_session -> run_session
// -> close -> session_text read-back, with telemetry on every record. The
// LU size makes an LU session about as long as an AMR one, so the session
// times form one mode and their median does not sit between two.

#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/session_workloads.hpp"
#include "core/telemetry_hub.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr int kSetups = 201;
/// Session names are reused per client slot so the retained store (and
/// the process's memory) stays bounded however long the run is.
constexpr int kNameSlots = 4;

core::TelemetryHub::Config hub_config() {
  core::TelemetryHub::Config c;
  c.shards = 8;
  c.shard_capacity = 4096;
  c.memory_budget_bytes = 32u << 20;
  c.session_line_cap = 8192;
  c.drain_interval = std::chrono::microseconds(1000);
  c.aggregate_interval = std::chrono::microseconds(0);
  return c;
}

core::SessionScenario lu_scenario(std::uint64_t seed) {
  core::SessionScenario sc;
  sc.kind = "lu";
  sc.seed = seed;
  sc.lu_n = 384;
  sc.lu_block = 32;
  sc.lu_reps = 2;
  sc.telemetry_interval = 1;
  return sc;
}

core::SessionScenario amr_scenario() {
  core::SessionScenario sc;
  sc.kind = "amr";
  sc.ranks = 1;
  sc.threads = 1;
  sc.nx = 24;
  sc.ny = 12;
  sc.steps = 3;
  sc.telemetry_interval = 1;
  return sc;
}

struct SessionOutcome {
  double ms = 0.0;
  bool ok = true;
  std::string why;
  std::uint64_t digest = 0;
  std::uint64_t lines = 0;
};

/// One session end to end, with spans around each hub call when tracing.
SessionOutcome run_one(core::TelemetryHub& hub, const std::string& name,
                       const core::SessionScenario& sc, int client,
                       std::uint32_t unit) {
  SessionOutcome out;
  const std::int64_t t0 = now_ns();
  core::SessionHandle h;
  {
    ScopedSpan span(SpanKind::hub_open, client, unit);
    h = hub.open_session(name, sc.kind);
  }
  const core::SessionId id = h.id();
  core::SessionResult r;
  try {
    ScopedSpan span(sc.kind == "lu" ? SpanKind::lu_session : SpanKind::amr_session,
                    client, unit);
    r = core::run_session(h, sc);
  } catch (const std::exception& e) {
    out.ok = false;
    out.why = std::string("run_session threw: ") + e.what();
  }
  {
    ScopedSpan span(SpanKind::hub_close, client, unit);
    h.close();
  }
  std::string text;
  core::SessionStats st;
  {
    ScopedSpan span(SpanKind::hub_read, client, unit);
    text = hub.session_text(id);
    st = hub.session_stats(id);
  }
  out.ms = 1e-6 * static_cast<double>(now_ns() - t0);
  out.digest = r.physics_digest;
  out.lines = r.telemetry_lines;
  std::uint64_t read_lines = 0;
  for (const char ch : text) read_lines += ch == '\n' ? 1 : 0;
  if (out.ok && st.dropped_ring != 0) {
    out.ok = false;
    out.why = "hub ring dropped " + std::to_string(st.dropped_ring) + " lines";
  }
  if (out.ok && read_lines != r.telemetry_lines) {
    out.ok = false;
    out.why = "read-back has " + std::to_string(read_lines) + " lines, session emitted " +
              std::to_string(r.telemetry_lines);
  }
  return out;
}

/// Peak-RSS windows of the tenants loop, sampled by the waiting main thread.
constexpr auto kRssWindow = std::chrono::milliseconds(250);

struct Phase {
  std::vector<double> unit_ms, rss_mb;
  std::uint64_t sessions = 0;
  double loop_s = 0.0;
  std::uint64_t lines = 0;  ///< telemetry lines of all sessions
  std::vector<Span> spans;
};

Phase run_phase(core::TelemetryHub& hub, bool traced, double seconds,
                const std::uint64_t ref[2], std::uint64_t seed, Result& res) {
  Phase ph;
  std::mutex mu;  // guards ph and res
  Tracer::set_on(traced);
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const core::SessionScenario lu = lu_scenario(seed);
      const core::SessionScenario amr = amr_scenario();
      std::uint32_t unit = 0;
      for (int cycle = 0; now_ns() < deadline || cycle == 0; ++cycle) {
        const std::string slot = std::to_string(c) + "-" + std::to_string(cycle % kNameSlots);
        const core::SessionScenario* order[2] = {&lu, &amr};
        for (int k = 0; k < 2; ++k) {
          const core::SessionScenario& sc = *order[k];
          SessionOutcome o = run_one(hub, sc.kind + slot + "-" + std::to_string(k), sc,
                                     c, unit++);
          const std::uint64_t want = ref[sc.kind == "lu" ? 0 : 1];
          if (o.ok && o.digest != want) {
            o.ok = false;
            o.why = sc.kind + " digest " + hex64(o.digest) + " != reference " + hex64(want);
          }
          std::lock_guard<std::mutex> lock(mu);
          ph.unit_ms.push_back(o.ms);
          ++ph.sessions;
          ph.lines += o.lines;
          ++res.attempted;
          if (!o.ok) {
            ++res.failed;
            res.fail(o.why);
          }
        }
      }
    });
  }
  reset_peak_rss();
  do {
    std::this_thread::sleep_for(kRssWindow);
    ph.rss_mb.push_back(peak_rss_mb());
    reset_peak_rss();
  } while (now_ns() < deadline);
  for (std::thread& t : clients) t.join();
  ph.loop_s = 1e-9 * static_cast<double>(now_ns() - t0);
  Tracer::set_on(false);
  if (traced) ph.spans = Tracer::take_all();
  return ph;
}

std::string config_json(std::uint64_t seed) {
  const core::TelemetryHub::Config hc = hub_config();
  const core::SessionScenario lu = lu_scenario(seed);
  const core::SessionScenario amr = amr_scenario();
  std::ostringstream os;
  os << "{\"workload\": \"tenants\", \"clients\": " << kClients
     << ", \"cycle\": [\"lu\", \"amr\"], \"hub\": {\"shards\": " << hc.shards
     << ", \"shard_capacity\": " << hc.shard_capacity
     << ", \"memory_budget_bytes\": " << hc.memory_budget_bytes
     << ", \"session_line_cap\": " << hc.session_line_cap
     << ", \"drain_interval_us\": " << hc.drain_interval.count()
     << "}, \"name_slots\": " << kNameSlots << ", \"lu\": {\"n\": " << lu.lu_n
     << ", \"block\": " << lu.lu_block << ", \"reps\": " << lu.lu_reps
     << ", \"seed\": " << lu.seed << "}, \"amr\": \"" << amr.describe()
     << "\", \"telemetry_interval\": " << lu.telemetry_interval
     << ", \"hub_setups\": " << kSetups << "}";
  return os.str();
}

}  // namespace

Result run_tenants(const Options& opt, const References& ref) {
  Result res;
  res.config_json = config_json(opt.seed);

  // Set-up: hub construction, several times; the last hub serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<core::TelemetryHub> hub;
  for (int i = 0; i < kSetups; ++i) {
    hub.reset();
    const std::int64_t t0 = now_ns();
    hub = std::make_unique<core::TelemetryHub>(hub_config());
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }

  // References: a solo session of each kind. The AMR physics is seed-free
  // and checked against the stored digest; the LU digest depends on the
  // seed, so the solo run is its reference (run_session checks the
  // residual itself).
  std::uint64_t solo[2] = {0, 0};
  {
    const SessionOutcome lu = run_one(*hub, "ref-lu", lu_scenario(opt.seed), 0, 0);
    const SessionOutcome amr = run_one(*hub, "ref-amr", amr_scenario(), 0, 0);
    if (!lu.ok || !amr.ok) throw std::runtime_error("tenants reference: " + lu.why + amr.why);
    solo[0] = lu.digest;
    solo[1] = amr.digest;
    res.digests = {hex64(lu.digest), hex64(amr.digest)};
    const auto it = ref.digest.find("tenants_amr");
    const std::uint64_t want = it == ref.digest.end() ? 0 : it->second;
    if (amr.digest != want) {
      res.fail("tenants amr digest " + hex64(amr.digest) + " != reference " + hex64(want));
      res.failed += 1;
      res.attempted += 1;
    }
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const core::HubStats before = hub->stats();
  const Phase plain = run_phase(*hub, false, untraced_s, solo, opt.seed, res);
  res.end_to_end = end_to_end_metrics(plain.unit_ms, setup_s,
                                      static_cast<double>(plain.sessions) / plain.loop_s,
                                      plain.rss_mb);
  res.named = {{"sessions_per_s", static_cast<double>(plain.sessions) / plain.loop_s, "1/s"},
               {"session_ms_p50", quantile(plain.unit_ms, 0.5), "ms"},
               {"session_ms_p90", quantile(plain.unit_ms, 0.9), "ms"},
               {"sessions", static_cast<double>(plain.sessions), "count"}};
  if (opt.trace) {
    const Phase traced =
        run_phase(*hub, true, opt.seconds - untraced_s, solo, opt.seed, res);
    hub->drain_now();
    const core::HubStats after = hub->stats();
    KindTotals t;
    t.add(traced.spans);
    const double n = static_cast<double>(traced.sessions);
    Ledger led;
    led.set("components.lu_session_us",
            t.dur_us(SpanKind::lu_session) / static_cast<double>(t.n(SpanKind::lu_session)));
    led.set("components.amr_session_us",
            t.dur_us(SpanKind::amr_session) / static_cast<double>(t.n(SpanKind::amr_session)));
    led.set("core.hub_open_us", t.dur_us(SpanKind::hub_open) / n);
    led.set("core.hub_close_us", t.dur_us(SpanKind::hub_close) / n);
    led.set("core.hub_read_us", t.dur_us(SpanKind::hub_read) / n);
    led.set("core.hub_lines", static_cast<double>(traced.lines) / n);
    led.set("core.hub_dropped",
            static_cast<double>(after.dropped_ring - before.dropped_ring));
    led.set("core.hub_evicted",
            static_cast<double>(after.dropped_evicted - before.dropped_evicted));
    led.set("core.hub_bytes_peak", static_cast<double>(after.bytes_peak));
    // Residual: client wall minus the spans around the hub and the session.
    double covered = 0.0;
    for (const Span& s : traced.spans)
      if (s.parent < 0) covered += static_cast<double>(s.dur());
    double wall = 0.0;
    for (const double ms : traced.unit_ms) wall += 1e6 * ms;
    led.set("residual_pct", 100.0 * (wall - covered) / wall);
    led.set("trace_overhead_pct", overhead_pct(traced.unit_ms, plain.unit_ms));
    res.per_layer = led.metrics();
    res.spans = traced.spans;
  }
  return res;
}

}  // namespace perfbench
