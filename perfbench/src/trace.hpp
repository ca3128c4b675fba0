#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Every timing port and the chained comm hooks open a span around the
// call they forward: kind, rank, unit id (coarse step / session / pass),
// start, end and the same-thread parent that was open when it started.
// Spans stay in per-thread logs until the run folds them into the ledger;
// self time is a span's duration minus the time its same-thread children
// cover. With tracing off, begin() is one relaxed load and a branch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  // components (self time of the component behind the port)
  advance, stable_dt, invflux,
  // monitoring: outer side of a proxy (proxy + Mastermind + TAU)
  monitor_states, monitor_flux, monitor_mesh,
  // euler kernels: inner side of the States / flux proxies
  states, flux,
  // amr: inner side of the mesh proxy
  initialize, ghost_update, prolong, restrict_level, regrid,
  // mpp: outermost communication call on a rank thread
  mpp_wait, mpp_p2p, mpp_collective, mpp_other,
  // set-up
  assemble,
  // tenants
  lu_session, amr_session, hub_open, hub_close, hub_read,
  // characterize phases
  sweep, probe, raw_states, fit, optimize,
  kCount
};

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kCount;
  std::int32_t rank = 0;     ///< rank, client or 0
  std::int32_t thread = 0;   ///< recording thread's log id
  std::int32_t parent = -1;  ///< index of the parent in the same log
  std::uint32_t unit = 0;    ///< step / session / pass id
  std::int64_t t0 = 0, t1 = 0;
  std::int64_t child_ns = 0; ///< covered by same-thread children
  std::uint64_t seq = 0;     ///< collective ordinal on its rank (mpp spans)
  std::uint64_t a = 0, b = 0;  ///< work counts (faces, messages, bytes)

  std::int64_t dur() const { return t1 - t0; }
  std::int64_t self() const { return t1 - t0 - child_ns; }
};

struct ThreadLog {
  std::int32_t id = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

class Tracer {
 public:
  static bool on() { return on_.load(std::memory_order_relaxed); }
  static void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  static std::int32_t begin(SpanKind kind, int rank, std::uint32_t unit);
  /// Closes the span `idx` opened by begin() on this thread.
  static Span* end(std::int32_t idx);

  /// Moves every recorded span out of every thread log. Call only while
  /// no thread is recording (after joins).
  static std::vector<Span> take_all();

 private:
  static ThreadLog& local();
  static std::atomic<bool> on_;
  static std::mutex mu_;
  static std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; work counts may be attached before it closes.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, int rank, std::uint32_t unit)
      : idx_(Tracer::begin(kind, rank, unit)) {}
  ~ScopedSpan() {
    if (Span* s = Tracer::end(idx_)) {
      s->a = a;
      s->b = b;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t a = 0, b = 0;

 private:
  std::int32_t idx_;
};

}  // namespace perfbench
