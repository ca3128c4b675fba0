#include "core/governor.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "cca/framework.hpp"
#include "core/mastermind.hpp"
#include "support/env.hpp"

namespace core {

// ---------------------------------------------------------------------------
// GovernorConfig
// ---------------------------------------------------------------------------

GovernorConfig GovernorConfig::from_env() {
  GovernorConfig cfg;
  const double v = ccaperf::env_positive_double("CCAPERF_OVERHEAD_PCT", 0.0);
  if (v == 0.0) return cfg;  // disabled: byte-identical
  cfg.enabled = true;
  cfg.budget_pct = v;
  // Keep the hysteresis band proportional for large budgets but never wider
  // than the default so a 2% budget still means "converged by 2.5%".
  cfg.band_pct = std::min(0.25, v * 0.125) + (v >= 2.0 ? 0.25 : v * 0.125);
  return cfg;
}

// ---------------------------------------------------------------------------
// OverheadGovernor
// ---------------------------------------------------------------------------

OverheadGovernor::Settings OverheadGovernor::settings_for(int level) {
  // The ladder trades information for cost in order of regret: stretching
  // the telemetry interval loses nothing but resolution, dropping trace
  // verbosity loses post-hoc detail, coarsening the counter stride widens
  // sampled-counter error bars, and thinning monitor records slows (but,
  // thanks to realized-fraction rescaling, never biases) the streaming fits.
  static constexpr Settings kLadder[kMaxLevel + 1] = {
      /*0*/ {1, tau::TraceTier::full, 1, 1},
      /*1*/ {2, tau::TraceTier::full, 1, 4},
      /*2*/ {4, tau::TraceTier::slices, 1, 8},
      /*3*/ {4, tau::TraceTier::slices, 2, 16},
      /*4*/ {8, tau::TraceTier::counters, 4, 32},
      /*5*/ {8, tau::TraceTier::counters, 8, 64},
      /*6*/ {16, tau::TraceTier::off, 16, 64},
      /*7*/ {16, tau::TraceTier::off, 32, 128},
  };
  if (level < 0) level = 0;
  if (level > kMaxLevel) level = kMaxLevel;
  return kLadder[level];
}

OverheadGovernor::Decision OverheadGovernor::observe(const Window& w) {
  Decision d;
  d.prev_level = level_;
  d.level = level_;
  if (!(w.wall_us >= cfg_.min_window_us) || w.wall_us <= 0.0) {
    return d;  // degenerate window: hold everything, including settle state
  }
  const double overhead = 100.0 * std::max(0.0, w.self_us) / w.wall_us;
  d.evaluated = true;
  d.overhead_pct = overhead;
  d.headroom_pct = cfg_.budget_pct - overhead;
  last_overhead_pct_ = overhead;
  last_overhead_bp_ =
      static_cast<std::uint64_t>(std::llround(overhead * 100.0));
  ++decisions_;

  const double high = cfg_.budget_pct + cfg_.band_pct;
  const double low = cfg_.budget_pct - cfg_.band_pct;

  if (settle_left_ > 0) {
    // An actuation just happened; its effect is not yet fully reflected in
    // the window. Hold so one throttle cannot trigger the next.
    --settle_left_;
    calm_run_ = 0;
    d.level = level_;
    history_.push_back(d);
    return d;
  }

  if (overhead > high && level_ < kMaxLevel) {
    ++level_;
    ++throttles_;
    settle_left_ = cfg_.settle_windows;
    calm_run_ = 0;
    d.changed = true;
  } else if (overhead < low && level_ > 0) {
    // Relaxing needs sustained calm: `calm_windows` consecutive windows
    // below the lower band edge. A single quiet window (a barrier, an I/O
    // stall) must not reopen the expensive tiers.
    if (++calm_run_ >= cfg_.calm_windows) {
      --level_;
      ++unthrottles_;
      settle_left_ = cfg_.settle_windows;
      calm_run_ = 0;
      d.changed = true;
    }
  } else {
    calm_run_ = 0;  // inside the band (or pinned at an end): steady state
  }
  d.level = level_;
  history_.push_back(d);
  return d;
}

// ---------------------------------------------------------------------------
// OnlineRefitter
// ---------------------------------------------------------------------------

OnlineRefitter::OnlineRefitter(cca::Framework& fw, MastermindComponent& mm,
                               std::string proxy_instance,
                               std::string proxy_uses_port,
                               std::string method_key,
                               std::vector<Candidate> candidates,
                               double accuracy_weight, std::size_t min_samples)
    : fw_(fw),
      mm_(mm),
      proxy_instance_(std::move(proxy_instance)),
      proxy_uses_port_(std::move(proxy_uses_port)),
      method_key_(std::move(method_key)),
      candidates_(std::move(candidates)),
      accuracy_weight_(accuracy_weight),
      min_samples_(min_samples) {
  if (candidates_.empty()) {
    throw std::invalid_argument("OnlineRefitter needs at least one candidate");
  }
  fits_.reserve(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) fits_.emplace_back();
}

void OnlineRefitter::log_event(const Event& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"boundary\":%llu,\"action\":\"%s\",\"from\":\"%s\","
                "\"to\":\"%s\",\"predicted_us\":%.3f",
                static_cast<unsigned long long>(e.boundary), e.kind.c_str(),
                e.from.c_str(), e.to.c_str(), e.predicted_us);
  mm_.emit_governor_event("refit", buf);
  events_.push_back(e);
}

void OnlineRefitter::swap_to(std::size_t idx, const char* kind,
                             double predicted_us) {
  const Candidate& c = candidates_[idx];
  if (!fw_.has_instance(c.instance)) {
    fw_.instantiate(c.instance, c.class_name);
  }
  Event e;
  e.boundary = boundaries_;
  e.kind = kind;
  e.from = candidates_[active_].class_name;
  e.to = c.class_name;
  e.predicted_us = predicted_us;
  fw_.reconnect(proxy_instance_, proxy_uses_port_, c.instance, "flux");
  active_ = idx;
  ++swaps_;
  log_event(e);
}

void OnlineRefitter::on_boundary() {
  ++boundaries_;
  const Record* rec = mm_.record(method_key_);
  if (rec == nullptr) return;

  // Attribute every row recorded since the previous boundary to the
  // candidate that was wired up during that interval. The proxy's monitored
  // key never changes across a hot-swap, so row-index ranges are the
  // attribution mechanism.
  const std::size_t end = rec->count();
  for (std::size_t i = next_row_; i < end; ++i) {
    const double q = rec->param_at(i, "Q");
    if (std::isnan(q) || q <= 0.0) continue;
    fits_[active_].add(q, rec->wall_us(i));
  }
  next_row_ = end;

  // Exploration: any candidate with too few samples gets one measurement
  // interval before the optimizer is trusted. Deterministic order (lowest
  // index first) keeps the swap sequence reproducible.
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (fits_[i].count() < min_samples_) {
      if (i != active_) swap_to(i, "explore", 0.0);
      return;
    }
  }

  // Exploitation: per-candidate best streaming model, workload = the Q
  // histogram of everything recorded, rescaled by the realized recording
  // fraction so sampled monitoring stays unbiased.
  std::vector<std::unique_ptr<PerfModel>> models;
  Slot slot;
  slot.functionality = proxy_uses_port_;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    models.push_back(fits_[i].best());
    if (!models.back()) return;  // degenerate fit: hold
    ::core::Candidate cand;
    cand.class_name = candidates_[i].class_name;
    cand.time_model = models.back().get();
    cand.accuracy = candidates_[i].accuracy;
    slot.candidates.push_back(std::move(cand));
  }
  std::map<double, double> histogram;
  for (std::size_t i = 0; i < end; ++i) {
    const double q = rec->param_at(i, "Q");
    if (std::isnan(q) || q <= 0.0) continue;
    histogram[q] += 1.0;
  }
  const double frac = mm_.realized_fraction(method_key_);
  const double scale = frac > 0.0 ? 1.0 / frac : 1.0;
  for (const auto& [q, n] : histogram) slot.workload.emplace_back(q, n * scale);
  if (slot.workload.empty()) return;

  AssemblyOptimizer opt(0.0);
  opt.add_slot(std::move(slot));
  const AssemblyChoice choice = opt.best(accuracy_weight_);
  const auto it = choice.selection.find(proxy_uses_port_);
  if (it == choice.selection.end()) return;

  std::size_t winner = active_;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].class_name == it->second) {
      winner = i;
      break;
    }
  }
  if (winner != active_) {
    swap_to(winner, "swap", choice.predicted_time_us);
  } else {
    Event e;
    e.boundary = boundaries_;
    e.kind = "hold";
    e.from = candidates_[active_].class_name;
    e.to = candidates_[active_].class_name;
    e.predicted_us = choice.predicted_time_us;
    log_event(e);
  }
}

}  // namespace core
