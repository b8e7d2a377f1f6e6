#include "mapred/recovery.h"

#include <algorithm>
#include <cmath>

namespace hmr::mapred {

FetchRetryPolicy FetchRetryPolicy::from_conf(const Conf& conf) {
  FetchRetryPolicy policy;
  policy.fetch_timeout =
      conf.get_double(kFetchTimeoutSec, policy.fetch_timeout);
  policy.max_retries =
      int(conf.get_int(kFetchMaxRetries, policy.max_retries));
  policy.backoff_base =
      conf.get_double(kFetchBackoffBaseSec, policy.backoff_base);
  policy.backoff_max =
      conf.get_double(kFetchBackoffMaxSec, policy.backoff_max);
  policy.backoff_jitter =
      conf.get_double(kFetchBackoffJitter, policy.backoff_jitter);
  policy.blacklist_threshold =
      int(conf.get_int(kBlacklistFailures, policy.blacklist_threshold));
  return policy;
}

double FetchRetryPolicy::backoff(int attempt, Rng& rng) const {
  const double exponential =
      backoff_base * std::pow(2.0, double(std::max(0, attempt - 1)));
  const double capped = std::min(exponential, backoff_max);
  return capped * (1.0 + backoff_jitter * rng.uniform());
}

void FetchTimeouts::arm(std::shared_ptr<FetchWatch> watch, std::uint64_t id) {
  if (timeout_ <= 0) return;
  const sim::Time deadline = engine_.now() + timeout_;
  HMR_CHECK_MSG(queue_.empty() || deadline >= queue_.back().deadline,
                "fetch deadlines out of order");
  watch->armed_id = id;
  queue_.push_back(Entry{deadline, id, std::move(watch)});
  if (!sleeping_) {
    sleeping_ = true;
    engine_.spawn(sleeper(shared_from_this()));
  }
}

sim::Task<> FetchTimeouts::sleeper(std::shared_ptr<FetchTimeouts> self) {
  sim::Engine& engine = self->engine_;
  std::deque<Entry>& queue = self->queue_;
  while (!queue.empty()) {
    Entry& front = queue.front();
    if (front.watch->armed_id != front.id) {
      queue.pop_front();  // answered or re-armed: stale whatever its deadline
      continue;
    }
    if (front.deadline > engine.now()) {
      co_await engine.delay_until(front.deadline);
      continue;  // re-check: it may have been answered meanwhile
    }
    front.watch->armed_id = 0;
    FetchEvent expired;
    expired.timer_id = front.id;
    // Dropped if the waiter is long gone and the buffer is full.
    (void)front.watch->events.try_send(std::move(expired));
    queue.pop_front();
  }
  self->sleeping_ = false;
}

}  // namespace hmr::mapred
