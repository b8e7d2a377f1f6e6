// Coroutine task type for the discrete-event engine.
//
// A sim process is an ordinary function returning sim::Task<T>. Tasks are
// lazy (nothing runs until awaited or spawned) and support two lifetimes:
//
//  * structured: `T r = co_await child(...);` — the parent owns the frame
//    and the child resumes the parent on completion (symmetric transfer);
//  * detached:   `engine.spawn(child(...));` — the engine takes ownership
//    and the frame self-destroys at final suspend.
//
// Coroutines are created, resumed, and destroyed on the engine thread
// only, so the promise machinery (and the frame pool below) needs no
// atomics. Determinism comes from all cross-task wakeups being routed
// through the engine's ordered event queue.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "common/status.h"

namespace hmr::sim {

class Engine;

namespace detail {

// Frame recycling (DESIGN.md §6.3): every Task frame comes from one
// free list per size class. A class is a multiple of kFrameGranule up
// to kMaxPooledFrame; a larger frame goes straight to ::operator new.
// A released block returns to its class unless the class already holds
// kFramesPerClass blocks, a cap chosen by a peak-RSS sweep. Released
// blocks and each frame's rounding slack are ASan-poisoned, so a
// resumed dangling handle still reports under the sanitizer build.
inline constexpr std::size_t kFrameGranule = 64;
inline constexpr std::size_t kMaxPooledFrame = 4096;
inline constexpr std::size_t kFramesPerClass = 4096;

void* allocate_frame(std::size_t size);
void release_frame(void* frame, std::size_t size) noexcept;
// Blocks the pool holds for frames of `size` bytes; 0 above
// kMaxPooledFrame.
std::size_t retained_frames(std::size_t size) noexcept;

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  bool detached = false;
  Engine* engine = nullptr;  // set on spawn, for live-process accounting
  // Links in the engine's spawn-ordered list of live detached frames.
  PromiseBase* prev_detached = nullptr;
  PromiseBase* next_detached = nullptr;

  static void* operator new(std::size_t size) { return allocate_frame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    release_frame(frame, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

void on_detached_done(PromiseBase& promise) noexcept;

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& promise = h.promise();
    if (promise.detached) {
      on_detached_done(promise);
      h.destroy();
      return std::noop_coroutine();
    }
    if (promise.continuation) return promise.continuation;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> result;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    template <typename U>
    void return_value(U&& value) {
      result.emplace(std::forward<U>(value));
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  Handle release() { return std::exchange(handle_, {}); }

  // Awaitable interface: starts the child and resumes the awaiter when the
  // child completes.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
    HMR_CHECK_MSG(promise.result.has_value(), "task finished without a value");
    return std::move(*promise.result);
  }

 private:
  friend class Engine;
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  Handle release() { return std::exchange(handle_, {}); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
  }

 private:
  friend class Engine;
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

}  // namespace hmr::sim
