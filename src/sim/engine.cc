#include "sim/engine.h"

#include <cstdio>

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

Engine::Engine(std::uint64_t seed) : seed_(seed) {}

Engine::~Engine() {
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
  queue_.push(Event{at, next_seq_++, h});
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
  const Event event = queue_.top();
  queue_.pop();
  HMR_CHECK(event.at >= now_);
  now_ = event.at;
  ++events_dispatched_;
  event.handle.resume();
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) step();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace hmr::sim
