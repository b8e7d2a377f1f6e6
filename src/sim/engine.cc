#include "sim/engine.h"

#include <cstdio>
#include <map>

#include "common/logging.h"
#include "sim/trace.h"

namespace hmr::sim {

namespace detail {

void on_detached_done(PromiseBase& promise) noexcept {
  if (promise.exception) {
    try {
      std::rethrow_exception(promise.exception);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fatal: detached sim task threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "fatal: detached sim task threw\n");
    }
    std::abort();
  }
  Engine* engine = promise.engine;
  HMR_CHECK(engine != nullptr);
  --engine->live_processes_;
  engine->unlink_detached(promise);
}

}  // namespace detail

Engine::Engine(std::uint64_t seed, EventQueue::Impl queue_impl)
    : queue_(queue_impl), seed_(seed) {
  Logger::instance().set_time_source([this] { return now_; });
}

Engine::~Engine() {
  Logger::instance().clear_time_source();
  shutting_down_ = true;
  // Destroy still-suspended detached frames in spawn order. Their locals'
  // destructors may try to schedule wakeups; schedule_at ignores those
  // while shutting down, so no other frame can finish (and unlink itself)
  // while one is being destroyed.
  while (detail::PromiseBase* promise = detached_head_) {
    unlink_detached(*promise);
    Task<>::Handle::from_promise(static_cast<Task<>::promise_type&>(*promise))
        .destroy();
  }
}

void Engine::unlink_detached(detail::PromiseBase& promise) noexcept {
  (promise.prev_detached ? promise.prev_detached->next_detached
                         : detached_head_) = promise.next_detached;
  (promise.next_detached ? promise.next_detached->prev_detached
                         : detached_tail_) = promise.prev_detached;
  promise.prev_detached = promise.next_detached = nullptr;
}

void Engine::schedule_at(Time at, std::coroutine_handle<> h) {
  if (shutting_down()) return;
  HMR_CHECK_MSG(at >= now_, "scheduling into the past");
  queue_.push(now_, EventQueue::Event{at, next_seq_++, h});
}

void Engine::schedule_work(ParallelWork& work) {
  // Mirrors schedule_at's shutdown behaviour: a parallel() awaited
  // during teardown never resumes; the frame is reclaimed with the rest
  // of the detached set.
  if (shutting_down()) return;
  work.seq = next_seq_;
  queue_.push(now_,
              EventQueue::Event{now_, next_seq_++, work.continuation, &work});
}

void Engine::set_parallel_workers(int workers) {
  HMR_CHECK_MSG(workers >= 1, "sim.parallel.workers must be >= 1");
  if (workers == parallel_workers_) return;
  parallel_workers_ = workers;
  // Drop a mismatched pool; the right-sized one is built lazily on the
  // next multi-chain batch (serial runs never spawn threads at all).
  pool_.reset();
}

void Engine::spawn(Task<> task) {
  auto handle = task.release();
  HMR_CHECK_MSG(handle, "spawning an empty task");
  auto& promise = handle.promise();
  promise.detached = true;
  promise.engine = this;
  ++live_processes_;
  promise.prev_detached = detached_tail_;
  (detached_tail_ ? detached_tail_->next_detached : detached_head_) = &promise;
  detached_tail_ = &promise;
  schedule_now(handle);
}

bool Engine::step() {
  if (queue_.empty()) return false;
  if (max_events_ != 0 && events_dispatched_ >= max_events_) {
    // Runaway valve: stop dispatching and let run()/run_until() return
    // with overrun() set, leaving the queue intact for inspection. The
    // caller decides whether that is fatal.
    overrun_ = true;
    return false;
  }
  EventQueue::Event event = queue_.pop();
  HMR_CHECK(event.at >= now_);
  now_ = event.at;
  ++events_dispatched_;
  if (event.work == nullptr) {
    event.handle.resume();
  } else {
    dispatch_parallel_batch(event.work);
  }
  return true;
}

void Engine::dispatch_parallel_batch(ParallelWork* first) {
  batch_.clear();
  batch_.push_back(first);
  // Extend with the contiguous run of work events at the same timestamp;
  // pops come out in seq order, so batch_ is ordered by construction.
  // Stopping at the first plain (or later) event preserves the global
  // (timestamp, seq) resume order: nothing a work continuation schedules
  // can precede the rest of the batch (new events get larger seqs), and
  // a plain event interleaved between work events simply splits the run.
  // The max-events valve counts each batched event exactly as the serial
  // pop loop would, so an overrun trips at the identical event at every
  // worker count.
  while (!queue_.empty() &&
         !(max_events_ != 0 && events_dispatched_ >= max_events_)) {
    const EventQueue::Event& next = queue_.front();
    if (next.at != now_ || next.work == nullptr) break;
    batch_.push_back(queue_.pop().work);
    ++events_dispatched_;
  }

  // Partition by owning host, chains in first-appearance order and seq
  // order within a chain. This accounting runs identically at every
  // worker count, so the engine.parallel.* counters — and with them the
  // serialized metrics snapshot — never depend on the pool width.
  std::map<int, std::size_t> chain_of_host;
  std::size_t used = 0;
  for (ParallelWork* work : batch_) {
    const auto [it, inserted] = chain_of_host.try_emplace(work->host, used);
    if (inserted) {
      if (used == chains_.size()) chains_.emplace_back();
      chains_[used].clear();
      ++used;
    }
    chains_[it->second].push_back(work);
  }
  chains_.resize(used);
  if (parallel_batches_ == nullptr) {
    parallel_batches_ = &metrics_.counter("engine.parallel.batches");
    parallel_batch_events_ = &metrics_.counter("engine.parallel.batch_events");
    parallel_chains_ = &metrics_.counter("engine.parallel.chains");
  }
  parallel_batches_->add();
  parallel_batch_events_->add(std::int64_t(batch_.size()));
  parallel_chains_->add(std::int64_t(used));

  if (parallel_workers_ <= 1) {
    // Serial reference semantics: fn, effects drain, and continuation
    // run back-to-back per event in seq order — indistinguishable from
    // an engine with no batching at all, because a work continuation
    // cannot advance time and everything it schedules sorts after the
    // remaining batch events.
    for (ParallelWork* work : batch_) {
      work->execute();
      drain_and_resume(*work);
    }
    return;
  }
  if (used > 1) {
    if (pool_ == nullptr || pool_->workers() != parallel_workers_) {
      pool_ = std::make_unique<WorkerPool>(parallel_workers_);
    }
    pool_->run(chains_);
  } else {
    // One chain parallelizes with nothing; run it here and skip the
    // pool entirely (same fns-then-drains order as the pooled path).
    for (ParallelWork* work : batch_) work->execute();
  }
  for (ParallelWork* work : batch_) drain_and_resume(*work);
}

void Engine::drain_and_resume(ParallelWork& work) {
  ParallelEffects& effects = work.effects;
  for (const auto& [counter, delta] : effects.counters_) counter->add(delta);
  if (!effects.traces_.empty()) {
    if (Tracer* t = tracer()) {
      for (const auto& s : effects.traces_) {
        if (s.instant) {
          t->instant(s.track, s.category, s.name);
        } else {
          t->complete(s.track, s.category, s.name, s.start);
        }
      }
    }
  }
  for (const auto& fn : effects.deferred_) fn();
  // resume() may complete the awaiting task and free its frame — and
  // `work` lives in that frame — so it is strictly the last touch.
  const std::coroutine_handle<> continuation = work.continuation;
  continuation.resume();
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  while (!queue_.empty() && queue_.next_at() <= deadline) {
    if (!step()) break;
  }
  // Don't jump time past still-queued events after an overrun stop.
  if (!overrun_ && now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace hmr::sim
