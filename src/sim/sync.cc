#include "sim/sync.h"

namespace hmr::sim {

void Event::set() {
  if (set_) return;
  set_ = true;
  // Wake everyone queued right now; tasks that re-check after reset() must
  // re-await. Waiters added during wakeup (same timestamp) see set_ == true
  // in await_ready and never park.
  while (!waiters_.empty()) {
    engine_.schedule_now(waiters_.front());
    waiters_.pop_front();
  }
}

Resource::Resource(Engine& engine, std::int64_t capacity, std::string name)
    : engine_(engine),
      capacity_(capacity),
      available_(capacity),
      name_(std::move(name)) {
  HMR_CHECK_MSG(capacity > 0, "resource capacity must be positive: " + name_);
}

void Resource::release(std::int64_t amount) {
  available_ += amount;
  HMR_CHECK_MSG(available_ <= capacity_, "resource over-release: " + name_);
  grant_waiters();
}

void Resource::grant_waiters() {
  // Strict FIFO: only the head may be admitted. The debit happens here, on
  // the waiter's behalf, so units stay booked while the wakeup travels
  // through the engine queue.
  while (!waiters_.empty() && available_ >= waiters_.front().amount) {
    Waiter waiter = waiters_.front();
    waiters_.pop_front();
    available_ -= waiter.amount;
    engine_.schedule_now(waiter.handle);
  }
}

}  // namespace hmr::sim
