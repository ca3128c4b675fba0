#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "hwc/perf_events.hpp"
#include "tau/registry.hpp"

namespace perfbench {

// --- tracer -----------------------------------------------------------------

std::atomic<bool> Tracer::on_{false};
std::mutex Tracer::mu_;
std::vector<std::unique_ptr<ThreadLog>> Tracer::logs_;

ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->id = static_cast<std::int32_t>(logs_.size() - 1);
    log->spans.reserve(1 << 14);
  }
  return *log;
}

std::int32_t Tracer::begin(SpanKind kind, int rank, std::uint32_t unit) {
  if (!on()) return -1;
  ThreadLog& log = local();
  Span s;
  s.kind = kind;
  s.rank = rank;
  s.thread = log.id;
  s.parent = log.open.empty() ? -1 : log.open.back();
  s.unit = unit;
  const auto idx = static_cast<std::int32_t>(log.spans.size());
  log.open.push_back(idx);
  s.t0 = now_ns();
  log.spans.push_back(s);
  return idx;
}

Span* Tracer::end(std::int32_t idx) {
  if (idx < 0) return nullptr;
  const std::int64_t t1 = now_ns();
  ThreadLog& log = local();
  Span& s = log.spans[static_cast<std::size_t>(idx)];
  s.t1 = t1;
  log.open.pop_back();
  if (s.parent >= 0) log.spans[static_cast<std::size_t>(s.parent)].child_ns += s.dur();
  return &s;
}

std::vector<Span> Tracer::take_all() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
    log->spans.clear();
  }
  return all;
}

const char* span_name(SpanKind kind) {
  static constexpr const char* kNames[] = {
      "advance",       "stable_dt",    "invflux",      "monitor_states",
      "monitor_flux",  "monitor_mesh", "states",       "flux",
      "initialize",    "ghost_update", "prolong",      "restrict",
      "regrid",        "mpp_wait",     "mpp_p2p",      "mpp_collective",
      "mpp_other",     "assemble",     "lu_session",   "amr_session",
      "hub_open",      "hub_close",    "hub_read",     "sweep",
      "probe",         "raw_states",   "fit",          "optimize"};
  static_assert(sizeof kNames / sizeof kNames[0] ==
                static_cast<std::size_t>(SpanKind::kCount));
  return kNames[static_cast<int>(kind)];
}

// --- helpers ----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void reset_peak_rss() {
  // "5" resets the peak RSS counter (VmHWM) to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string counter_backend() {
  tau::Registry reg;
  hwc::PerfBackend backend;
  return backend.install(reg.counters()).active == hwc::HwcBackend::perf ? "perf" : "sim";
}

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open references file " + path);
  References ref;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;
    if (key == "digest") {
      std::string name, hex;
      ls >> name >> hex;
      ref.digest[name] = std::stoull(hex, nullptr, 16);
    } else if (key == "l2_misses") {
      std::uint64_t m = 0;
      while (ls >> m) ref.l2_misses.push_back(m);
    } else if (key == "flux_fast") {
      ls >> ref.flux_fast;
    } else if (key == "flux_accurate") {
      ls >> ref.flux_accurate;
    } else {
      throw std::runtime_error("references: unknown key '" + key + "'");
    }
  }
  return ref;
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& unit_ms,
                                       const std::vector<double>& setup_s,
                                       double units_per_s,
                                       const std::vector<double>& rss_mb) {
  return {{"setup_s", median(setup_s), "s"},
          {"unit_ms_p50", quantile(unit_ms, 0.5), "ms"},
          {"units_per_s", units_per_s, "1/s"},
          {"peak_rss_mb", median(rss_mb), "MB"}};
}

void KindTotals::add(const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    const int k = static_cast<int>(s.kind);
    self_ns[k] += s.self();
    dur_ns[k] += s.dur();
    ++count[k];
    a[k] += s.a;
    b[k] += s.b;
  }
}

void split_collectives(const std::vector<Span>& spans, double& skew_ns,
                       double& algo_ns) {
  // Every rank runs the same collective sequence on the hierarchy's
  // communicators (SCMD), so the k-th collective of each rank is one call.
  std::map<std::uint64_t, std::int64_t> last_arrival;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::mpp_collective) continue;
    auto [it, fresh] = last_arrival.emplace(s.seq, s.t0);
    if (!fresh) it->second = std::max(it->second, s.t0);
  }
  for (const Span& s : spans) {
    if (s.kind != SpanKind::mpp_collective) continue;
    const std::int64_t last = last_arrival[s.seq];
    const std::int64_t algo = std::max<std::int64_t>(0, s.t1 - std::max(last, s.t0));
    algo_ns += static_cast<double>(algo);
    skew_ns += static_cast<double>(s.dur() - algo);
  }
}

namespace {

/// Every per-layer metric in report order, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"euler.states_us", "us"},
      {"euler.flux_us", "us"},
      {"euler.faces", "count"},
      {"euler.ns_per_face", "ns"},
      {"mpp.wait_us", "us"},
      {"mpp.p2p_post_us", "us"},
      {"mpp.collective_algo_us", "us"},
      {"mpp.collective_skew_us", "us"},
      {"mpp.messages", "count"},
      {"mpp.bytes", "bytes"},
      {"mpp.hops", "count"},
      {"amr.ghost_update_self_us", "us"},
      {"amr.prolong_self_us", "us"},
      {"amr.restrict_self_us", "us"},
      {"amr.regrid_self_us", "us"},
      {"amr.initialize_self_us", "us"},
      {"amr.cells", "count"},
      {"amr.ghost_messages", "count"},
      {"amr.ghost_bytes", "bytes"},
      {"support.lane_util", "ratio"},
      {"components.advance_us", "us"},
      {"components.stable_dt_us", "us"},
      {"components.invflux_us", "us"},
      {"components.lu_session_us", "us"},
      {"components.amr_session_us", "us"},
      {"core.monitor_self_ns_per_call", "ns"},
      {"core.monitor_self_pct", "%"},
      {"core.hub_open_us", "us"},
      {"core.hub_close_us", "us"},
      {"core.hub_read_us", "us"},
      {"core.hub_lines", "count"},
      {"core.hub_dropped", "count"},
      {"core.hub_evicted", "count"},
      {"core.hub_bytes_peak", "bytes"},
      {"core.sweep_us", "us"},
      {"core.fit_us", "us"},
      {"core.optimize_us", "us"},
      {"hwc.traced_us", "us"},
      {"hwc.traced_slowdown", "ratio"},
      {"hwc.l2_misses", "count"},
      {"cca.assemble_us", "us"},
      {"residual_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  return kList;
}

}  // namespace

std::vector<Metric> Ledger::metrics() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_catalogue()) {
    auto it = v.find(name);
    out.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : v) {
    bool known = false;
    for (const auto& entry : layer_catalogue()) known = known || entry.first == name;
    if (!known) throw std::logic_error("ledger: metric not in catalogue: " + name);
  }
  return out;
}

double overhead_pct(const std::vector<double>& traced_ms,
                    const std::vector<double>& plain_ms) {
  return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);
}

void set_monitor_metrics(Ledger& led, const KindTotals& t, double thread_wall_us) {
  const double self_us = t.self_us(SpanKind::monitor_states) +
                         t.self_us(SpanKind::monitor_flux) +
                         t.self_us(SpanKind::monitor_mesh);
  const double calls = static_cast<double>(t.n(SpanKind::monitor_states) +
                                           t.n(SpanKind::monitor_flux) +
                                           t.n(SpanKind::monitor_mesh));
  led.set("core.monitor_self_ns_per_call", calls > 0 ? 1e3 * self_us / calls : 0.0);
  led.set("core.monitor_self_pct",
          thread_wall_us > 0 ? 100.0 * self_us / thread_wall_us : 0.0);
}

void set_euler_metrics(Ledger& led, const KindTotals& t, double units) {
  const double faces = static_cast<double>(t.work_a(SpanKind::states));
  led.set("euler.states_us", t.self_us(SpanKind::states) / units);
  led.set("euler.flux_us", t.self_us(SpanKind::flux) / units);
  led.set("euler.faces", faces / units);
  led.set("euler.ns_per_face",
          faces > 0 ? 1e3 * (t.self_us(SpanKind::states) + t.self_us(SpanKind::flux)) /
                          faces
                    : 0.0);
}

}  // namespace perfbench
