// Discrete-event simulation engine.
//
// Deterministic: pending events sit in one binary heap ordered by
// (timestamp, insertion sequence). The sequence number is unique per
// engine, so the key is a total order and equal-time events dispatch in
// the order they were scheduled, independent of container internals
// (DESIGN.md §"Event-queue ordering"). Simulated time is a double in
// seconds. The engine is single-threaded: every coroutine is
// resumed from run()/step() on the caller's thread.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/task.h"

namespace hmr::sim {

using Time = double;

class Tracer;

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules a bare coroutine resume. `at` must be >= now().
  void schedule_at(Time at, std::coroutine_handle<> h);
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  // Awaitable: suspends the current task until simulated time `at`.
  struct [[nodiscard]] DelayAwaiter {
    Engine& engine;
    Time at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine.schedule_at(at, h);
    }
    void await_resume() const noexcept {}
  };
  // Suspends the current task for dt simulated seconds.
  DelayAwaiter delay(Time dt) {
    HMR_CHECK_MSG(dt >= 0.0, "negative delay");
    return DelayAwaiter{*this, now_ + dt};
  }
  // Suspends the current task until absolute time `at` (>= now()). One
  // event where back-to-back delays would take several:
  // `delay_until((now() + a) + b)` resumes at exactly the time
  // `delay(a)` followed by `delay(b)` would.
  DelayAwaiter delay_until(Time at) {
    HMR_CHECK_MSG(at >= now_, "delay into the past");
    return DelayAwaiter{*this, at};
  }

  // Detaches the task: the engine starts it at the current time and the
  // frame self-destroys on completion.
  void spawn(Task<> task);

  // Runs until the event queue drains. Returns the final simulated time.
  Time run();
  // Runs until the queue drains or simulated time would pass `deadline`.
  Time run_until(Time deadline);
  // Dispatches at most one event; returns false if the queue was empty.
  bool step();

  // Number of spawned processes that have not yet finished. A nonzero
  // value after run() means processes are blocked forever (deadlock or
  // an unclosed channel) — tests assert on this.
  std::int64_t live_processes() const { return live_processes_; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  std::size_t pending_events() const { return queue_.size(); }
  // True once the destructor has started tearing down detached frames;
  // scheduling is disabled and sinks (e.g. the tracer) must not assume
  // engine services beyond now().
  bool shutting_down() const { return shutting_down_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // Optional execution tracer (sim/trace.h); null when tracing is off.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }
  // Deterministic per-component stream: Rng(seed, name).
  Rng make_rng(std::string_view stream) const {
    return Rng(seed_, stream);
  }
  std::uint64_t seed() const { return seed_; }

 private:
  friend void detail::on_detached_done(detail::PromiseBase&) noexcept;

  void unlink_detached(detail::PromiseBase& promise) noexcept;

  struct Event {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  // Heap order for std::priority_queue: the top is the minimal (at, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::int64_t live_processes_ = 0;
  std::uint64_t seed_;
  MetricsRegistry metrics_;
  Tracer* tracer_ = nullptr;
  // Frames of spawned-but-unfinished processes in spawn order, linked
  // through their promises (O(1) link on spawn and unlink on finish);
  // shutdown destroys the leftovers front to back.
  detail::PromiseBase* detached_head_ = nullptr;
  detail::PromiseBase* detached_tail_ = nullptr;
  bool shutting_down_ = false;
};

}  // namespace hmr::sim
