// Synchronization primitives for sim tasks.
//
// All wakeups are routed through Engine::schedule_now so same-time
// resumption order is deterministic and recursion depth stays bounded.
// These types are not thread-safe by design — the engine is
// single-threaded (see sim/engine.h).
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/engine.h"
#include "sim/fifo.h"

namespace hmr::sim {

// One-shot (or manually reset) event. set() wakes every current waiter.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }
  void set();
  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter {
      Event& event;
      bool await_ready() const noexcept { return event.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  Engine& engine() { return engine_; }

 private:
  Engine& engine_;
  bool set_ = false;
  Fifo<std::coroutine_handle<>> waiters_;
};

// Counted resource with FIFO admission (no starvation: a queued large
// request blocks later small ones). Models CPU cores, disk queue slots,
// memory budgets, thread-pool slots.
class Resource {
 public:
  Resource(Engine& engine, std::int64_t capacity, std::string name = {});
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t queued() const { return std::int64_t(waiters_.size()); }
  const std::string& name() const { return name_; }

  // Awaitable; resumes once `amount` units have been granted. Fast path
  // debits in await_resume; parked waiters are debited at grant time (in
  // grant_waiters) so units cannot be double-booked while the wakeup sits
  // in the engine queue.
  struct [[nodiscard]] AcquireAwaiter {
    Resource& resource;
    std::int64_t amount;
    bool parked = false;
    bool await_ready() const noexcept {
      return resource.waiters_.empty() && resource.available_ >= amount;
    }
    void await_suspend(std::coroutine_handle<> h) {
      parked = true;
      resource.waiters_.push_back({h, amount});
    }
    void await_resume() const noexcept {
      if (!parked) resource.available_ -= amount;
    }
  };
  AcquireAwaiter acquire(std::int64_t amount = 1) {
    HMR_CHECK_MSG(amount >= 0 && amount <= capacity_,
                  "acquire amount exceeds resource capacity: " + name_);
    return AcquireAwaiter{*this, amount};
  }
  void release(std::int64_t amount = 1);

  // Non-blocking acquire: true (and debited) only when no one is queued
  // and enough units are free.
  bool try_acquire(std::int64_t amount = 1) {
    if (!waiters_.empty() || available_ < amount) return false;
    available_ -= amount;
    return true;
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t amount;
  };
  void grant_waiters();

  Engine& engine_;
  std::int64_t capacity_;
  std::int64_t available_;
  std::string name_;
  Fifo<Waiter> waiters_;
};

// RAII hold on a Resource. Obtain via `co_await hold(resource, n)`.
class ResourceHold {
 public:
  ResourceHold() = default;
  ResourceHold(Resource& resource, std::int64_t amount)
      : resource_(&resource), amount_(amount) {}
  ResourceHold(ResourceHold&& other) noexcept
      : resource_(std::exchange(other.resource_, nullptr)),
        amount_(other.amount_) {}
  ResourceHold& operator=(ResourceHold&& other) noexcept {
    if (this != &other) {
      release();
      resource_ = std::exchange(other.resource_, nullptr);
      amount_ = other.amount_;
    }
    return *this;
  }
  ResourceHold(const ResourceHold&) = delete;
  ResourceHold& operator=(const ResourceHold&) = delete;
  ~ResourceHold() { release(); }

  void release() {
    if (resource_ != nullptr) {
      resource_->release(amount_);
      resource_ = nullptr;
    }
  }

 private:
  Resource* resource_ = nullptr;
  std::int64_t amount_ = 0;
};

// Acquires `amount` units and yields an RAII hold. A plain awaiter, not a
// coroutine: the wait parks the caller directly, so it costs no frame
// and wakes at the same event an acquire() would.
struct [[nodiscard]] HoldAwaiter {
  Resource::AcquireAwaiter acquire;
  bool await_ready() const noexcept { return acquire.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) { acquire.await_suspend(h); }
  ResourceHold await_resume() const noexcept {
    acquire.await_resume();
    return ResourceHold{acquire.resource, acquire.amount};
  }
};
inline HoldAwaiter hold(Resource& resource, std::int64_t amount = 1) {
  return HoldAwaiter{resource.acquire(amount)};
}

// Go-style wait group: add() work, done() it, wait() for zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : zero_(engine) { zero_.set(); }

  void add(std::int64_t n = 1) {
    count_ += n;
    HMR_CHECK(count_ >= 0);
    if (count_ > 0) zero_.reset();
    if (count_ == 0) zero_.set();
  }
  void done() { add(-1); }
  auto wait() { return zero_.wait(); }
  std::int64_t count() const { return count_; }

 private:
  std::int64_t count_ = 0;
  Event zero_;
};

}  // namespace hmr::sim
