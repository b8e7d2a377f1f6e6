#include "mapred/recovery.h"

#include <algorithm>
#include <cmath>

#include "common/crc32.h"
#include "mapred/integrity.h"
#include "sim/trace.h"

namespace hmr::mapred {

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
  sim::Fifo<Entry>& queue = self->queue_;
  while (!queue.empty()) {
    // arm() may grow the ring while this coroutine is suspended, which
    // moves its entries: `front` is re-read after every await.
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

sim::Task<std::optional<net::Message>> fetch_exchange(
    JobRuntime& job, net::Host& host, int map_id, FetchTimeouts& timeouts,
    std::shared_ptr<FetchWatch> watch, const FetchTransport& transport) {
  job.metric.fetch_requests.add();
  co_await transport.send();
  const std::uint64_t timer_id = ++watch->timer_seq;
  timeouts.arm(watch, timer_id);
  while (true) {
    auto event = co_await watch->events.recv();
    HMR_CHECK(event.has_value());  // the events channel is never closed
    if (!event->msg.has_value()) {
      if (event->timer_id == timer_id) co_return std::nullopt;
      continue;  // an expiry that raced an already-accepted response
    }
    const FetchVerdict verdict = transport.classify(*event->msg);
    if (verdict.kind == FetchVerdict::kMalformed) {
      job.metric.malformed_msgs.add();
      continue;  // the timeout re-fetches
    }
    if (verdict.kind == FetchVerdict::kStale) {
      job.metric.fetch_stale_dropped.add();  // its request was retried
      continue;
    }
    if (verdict.verify && job.conf.integrity) {
      // End-to-end check against the checksum the server sent: for a
      // whole partition, the one MapOutputBuilder::build computed at
      // spill time; for a partial OSU-IB chunk, the responder's scan of
      // the bytes it sent. The scan runs after a kernel yield (DESIGN.md
      // §6.3).
      co_await charge_verify_cpu(job, host, verdict.modeled);
      co_await job.engine.delay(0);
      const std::uint32_t got = crc32c(verdict.body);
      if (auto* t = job.engine.tracer()) {
        t->instant(host.name(), "crc", "verify_crc_m" + std::to_string(map_id));
      }
      if (got != verdict.crc) {
        job.metric.malformed_msgs.add();  // rotted in flight: re-fetch
        continue;
      }
    }
    watch->armed_id = 0;
    co_return std::move(event->msg);
  }
}

}  // namespace hmr::mapred
