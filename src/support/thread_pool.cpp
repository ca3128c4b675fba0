#include "support/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "support/env.hpp"
#include "support/error.hpp"

namespace ccaperf {

namespace {

// Lane of the calling thread inside an active region; -1 outside. Kept
// separate from the public current_lane() so nesting detection can tell
// "lane 0 inside a region" apart from "not in a region".
thread_local int t_lane = -1;

}  // namespace

int ThreadPool::current_lane() { return t_lane < 0 ? 0 : t_lane; }

ThreadPool::ThreadPool(int nlanes) : nlanes_(std::max(1, nlanes)) {
  lanes_.reserve(static_cast<std::size_t>(nlanes_));
  for (int l = 0; l < nlanes_; ++l) lanes_.push_back(std::make_unique<Lane>());
  workers_.reserve(static_cast<std::size_t>(nlanes_ - 1));
  for (int l = 1; l < nlanes_; ++l)
    workers_.emplace_back([this, l] { worker_main(l); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::set_region_end_hook(std::function<void()> hook) {
  region_end_hook_ = std::move(hook);
}

bool ThreadPool::grab_chunk(int lane, std::size_t& b, std::size_t& e) {
  Lane& L = *lanes_[static_cast<std::size_t>(lane)];
  std::lock_guard<std::mutex> lock(L.mu);
  if (L.next >= L.end) return false;
  // Take a fraction from the front; thieves halve from the back, so the
  // owner's chunks shrink as the range drains (lazy binary splitting).
  const std::size_t avail = L.end - L.next;
  const std::size_t take =
      std::max<std::size_t>(1, avail / (2 * static_cast<std::size_t>(nlanes_)));
  b = L.next;
  e = L.next + take;
  L.next = e;
  return true;
}

bool ThreadPool::steal_chunk(int lane) {
  // Scan victims round-robin from our right neighbour; move the back half
  // of the first non-empty range into our own (empty) lane so other
  // thieves can keep splitting it.
  for (int k = 1; k < nlanes_; ++k) {
    const int victim = (lane + k) % nlanes_;
    Lane& V = *lanes_[static_cast<std::size_t>(victim)];
    std::size_t sb = 0, se = 0;
    {
      std::lock_guard<std::mutex> lock(V.mu);
      const std::size_t avail = V.end - V.next;
      if (avail == 0) continue;
      const std::size_t take = (avail + 1) / 2;
      sb = V.end - take;
      se = V.end;
      V.end = sb;
    }
    Lane& L = *lanes_[static_cast<std::size_t>(lane)];
    {
      std::lock_guard<std::mutex> lock(L.mu);
      L.next = sb;
      L.end = se;
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::run_lane(Region& rgn, int lane) {
  while (!rgn.abort.load(std::memory_order_relaxed)) {
    std::size_t b = 0, e = 0;
    if (!grab_chunk(lane, b, e)) {
      if (!steal_chunk(lane)) break;
      continue;
    }
    for (std::size_t i = b; i < e; ++i) {
      if (rgn.abort.load(std::memory_order_relaxed)) break;
      try {
        (*rgn.body)(i, lane);
        rgn.done.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(rgn.err_mu);
          if (!rgn.error) rgn.error = std::current_exception();
        }
        rgn.abort.store(true, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::worker_main(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    Region* rgn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return shutdown_ || (region_ != nullptr && epoch_ != seen);
      });
      if (shutdown_) return;
      rgn = region_;
      seen = epoch_;
    }
    t_lane = lane;
    run_lane(*rgn, lane);
    t_lane = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++rgn->exited;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, int)>& body) {
  if (t_lane >= 0) {
    // Nested region: run inline on the calling lane, no hook (the
    // enclosing top-level region fires it once).
    const int lane = t_lane;
    for (std::size_t i = 0; i < n; ++i) body(i, lane);
    return;
  }
  if (nlanes_ == 1 || n == 0) {
    t_lane = 0;
    try {
      for (std::size_t i = 0; i < n; ++i) body(i, 0);
    } catch (...) {
      t_lane = -1;
      ++regions_;
      if (region_end_hook_) region_end_hook_();
      throw;
    }
    t_lane = -1;
    ++regions_;
    if (region_end_hook_) region_end_hook_();
    return;
  }

  Region rgn;
  rgn.body = &body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int l = 0; l < nlanes_; ++l) {
      Lane& L = *lanes_[static_cast<std::size_t>(l)];
      std::lock_guard<std::mutex> lane_lock(L.mu);
      L.next = n * static_cast<std::size_t>(l) /
               static_cast<std::size_t>(nlanes_);
      L.end = n * static_cast<std::size_t>(l + 1) /
              static_cast<std::size_t>(nlanes_);
    }
    region_ = &rgn;
    ++epoch_;
  }
  cv_work_.notify_all();

  t_lane = 0;
  run_lane(rgn, 0);
  t_lane = -1;

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return rgn.exited == nlanes_ - 1; });
    region_ = nullptr;
  }
  ++regions_;
  if (region_end_hook_) region_end_hook_();
  if (rgn.error) std::rethrow_exception(rgn.error);
  CCAPERF_REQUIRE(rgn.done.load(std::memory_order_relaxed) == n,
                  "ThreadPool::parallel_for: lost tasks");
}

int configured_threads() {
  const std::uint64_t n = env_uint("CCAPERF_THREADS", 1, 0, UINT64_MAX);
  return static_cast<int>(std::clamp<std::uint64_t>(n, 1, 256));
}

namespace {

std::unique_ptr<ThreadPool>& rank_pool_slot() {
  thread_local std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& rank_pool() {
  std::unique_ptr<ThreadPool>& slot = rank_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(configured_threads());
  return *slot;
}

void set_rank_pool_threads(int nlanes) {
  rank_pool_slot() = std::make_unique<ThreadPool>(nlanes);
}

}  // namespace ccaperf
