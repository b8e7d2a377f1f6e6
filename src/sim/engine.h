// Discrete-event simulation engine.
//
// Deterministic: the event queue is ordered by (timestamp, insertion
// sequence), so equal-time events dispatch in the order they were
// scheduled, independent of container internals. Simulated time is a
// double in seconds.
//
// Coroutine resumption always happens on the engine thread. The only
// concurrency is conservative parallel execution of *work events*
// (co_await engine.parallel(host, fn), sim/parallel.h): pure compute
// closures batched by timestamp, partitioned by host, executed on a
// worker pool, with side effects staged and drained in (timestamp, seq)
// order — byte-identical to the serial engine by construction
// (DESIGN.md §6.4).
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/task.h"

namespace hmr::sim {

class Tracer;

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1,
                  EventQueue::Impl queue_impl = EventQueue::Impl::kFourAry);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules a bare coroutine resume. `at` must be >= now().
  void schedule_at(Time at, std::coroutine_handle<> h);
  void schedule_after(Time dt, std::coroutine_handle<> h) {
    schedule_at(now_ + dt, h);
  }
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

  // Awaitable: runs `fn` as a work event at the current simulated time,
  // attributed to `host` for batch partitioning. Same-timestamp work
  // events on distinct hosts may execute concurrently on the worker
  // pool; fns must obey the confinement contract in sim/parallel.h and
  // report shared-state effects through the ParallelEffects argument.
  // Consumes zero simulated time. If fn throws, the exception resurfaces
  // here on the engine thread.
  class [[nodiscard]] ParallelAwaiter {
   public:
    ParallelAwaiter(Engine& engine, int host,
                    std::function<void(ParallelEffects&)> fn)
        : engine_(engine) {
      work_.host = host;
      work_.fn = std::move(fn);
    }
    ParallelAwaiter(const ParallelAwaiter&) = delete;
    ParallelAwaiter& operator=(const ParallelAwaiter&) = delete;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      work_.continuation = h;
      engine_.schedule_work(work_);
    }
    void await_resume() {
      if (work_.error) std::rethrow_exception(work_.error);
    }

   private:
    Engine& engine_;
    ParallelWork work_;
  };
  ParallelAwaiter parallel(int host, std::function<void(ParallelEffects&)> fn) {
    return ParallelAwaiter(*this, host, std::move(fn));
  }

  // Worker-pool width for work-event batches; 1 (the default) is the
  // serial engine — fns run inline on the engine thread, interleaved
  // with their continuations exactly as plain events would. Values > 1
  // change only where fn bodies execute in real time, never the
  // simulated outcome. Settable between batches at any point.
  void set_parallel_workers(int workers);
  int parallel_workers() const { return parallel_workers_; }

  // Runs until the event queue drains. Returns the final simulated time.
  Time run();
  // Runs until the queue drains or simulated time would pass `deadline`.
  Time run_until(Time deadline);
  // Dispatches at most one event; returns false if the queue was empty
  // or the max_events valve tripped (see overrun()).
  bool step();

  // Number of spawned processes that have not yet finished. A nonzero
  // value after run() means processes are blocked forever (deadlock or
  // an unclosed channel) — tests assert on this.
  std::int64_t live_processes() const { return live_processes_; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  // Safety valve for runaway simulations; 0 disables the limit. When the
  // limit is hit, run()/run_until() return cleanly with overrun() true
  // and the remaining events still queued, so harnesses (simfuzz,
  // benches) can report the overrun as a failure instead of crashing.
  void set_max_events(std::uint64_t max_events) { max_events_ = max_events; }
  bool overrun() const { return overrun_; }
  std::size_t pending_events() const { return queue_.size(); }
  // True once the destructor has started tearing down detached frames;
  // scheduling is disabled and sinks (e.g. the tracer) must not assume
  // engine services beyond now(). Atomic so guards (Tracer::Span) stay
  // valid even when spans die on worker threads.
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // Optional execution tracer (sim/trace.h); null when tracing is off.
  // Atomic for the same reason as shutting_down(): the Span teardown
  // guard must read a coherent pointer from any thread.
  void set_tracer(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }
  // Deterministic per-component stream: Rng(seed, name).
  Rng make_rng(std::string_view stream) const {
    return Rng(seed_, stream);
  }
  std::uint64_t seed() const { return seed_; }

 private:
  friend void detail::on_detached_done(detail::PromiseBase&) noexcept;

  void unlink_detached(detail::PromiseBase& promise) noexcept;

  // Enqueues a work event at now(); called from ParallelAwaiter.
  void schedule_work(ParallelWork& work);
  // Collects the contiguous run of same-timestamp work events starting
  // at `first`, partitions by host, executes, drains, resumes.
  void dispatch_parallel_batch(ParallelWork* first);
  // Applies one work item's staged effects in order, then resumes its
  // continuation (after which the work object must not be touched).
  void drain_and_resume(ParallelWork& work);

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t max_events_ = 0;
  bool overrun_ = false;
  std::int64_t live_processes_ = 0;
  std::uint64_t seed_;
  MetricsRegistry metrics_;
  std::atomic<Tracer*> tracer_{nullptr};
  // Frames of spawned-but-unfinished processes in spawn order, linked
  // through their promises (O(1) link on spawn and unlink on finish);
  // shutdown destroys the leftovers front to back.
  detail::PromiseBase* detached_head_ = nullptr;
  detail::PromiseBase* detached_tail_ = nullptr;
  std::atomic<bool> shutting_down_{false};

  // --- parallel work-event state (sim/parallel.h) ---
  int parallel_workers_ = 1;
  std::unique_ptr<WorkerPool> pool_;  // created on first multi-chain batch
  // Reused batch scratch: the events of the current batch in seq order,
  // and their partition into per-host chains.
  std::vector<ParallelWork*> batch_;
  std::vector<std::vector<ParallelWork*>> chains_;
  // Batch accounting handles, registered lazily on the first batch (the
  // identical code path runs at every worker count, so serial and
  // parallel runs register — and count — identically).
  Counter* parallel_batches_ = nullptr;
  Counter* parallel_batch_events_ = nullptr;
  Counter* parallel_chains_ = nullptr;
};

}  // namespace hmr::sim
