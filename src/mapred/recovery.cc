#include "mapred/recovery.h"

#include <algorithm>
#include <cmath>

#include "common/crc32.h"
#include "mapred/integrity.h"
#include "mapred/maptask.h"
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

namespace {

bool blacklisted(const JobRuntime& job, int host_id) {
  return job.blacklisted_trackers.contains(host_id);
}

// Guarantees maps[map_id].ran_on points at a non-blacklisted tracker,
// re-executing the map on a healthy tracker if necessary. Concurrent
// callers for the same map share one re-execution.
sim::Task<> ensure_fetchable(JobRuntime& job, int map_id) {
  while (job.maps.at(map_id).ran_on < 0 ||
         blacklisted(job, job.maps.at(map_id).ran_on)) {
    auto inflight = job.reruns.find(map_id);
    if (inflight != job.reruns.end()) {
      // Another copier already kicked off the re-execution: share it.
      co_await inflight->second->wait();
      continue;
    }
    auto event = std::make_unique<sim::Event>(job.engine);
    sim::Event& rerun_done = *event;
    job.reruns.emplace(map_id, std::move(event));
    TaskTrackerState* target = nullptr;
    for (auto* tracker : job.trackers) {
      if (!blacklisted(job, tracker->host->id())) {
        target = tracker;
        break;
      }
    }
    HMR_CHECK_MSG(target != nullptr,
                  "every TaskTracker is blacklisted; map output for map " +
                      std::to_string(map_id) + " is unfetchable");
    job.metric.refetch_reruns.add();
    if (auto* tracer = job.engine.tracer()) {
      tracer->instant(target->host->name(), "fault",
                      "refetch_rerun map_" + std::to_string(map_id));
    }
    job.rerunning_maps.insert(map_id);
    {
      auto slot = co_await sim::hold(target->map_slots);
      TaskAttempt& attempt =
          job.start_attempt(TaskKind::kMap, map_id, target->host->id(),
                            /*speculative=*/false, /*rerun=*/true);
      co_await run_map_task(job, map_id, *target, 1.0, &attempt);
      if (attempt.running()) {
        job.finish_attempt(attempt, AttemptState::kSucceeded);
      }
    }
    rerun_done.set();
    job.reruns.erase(map_id);
  }
}

// Recovery after a copier on `host` saw its `failures`-th fetch of
// `map_id` from `server` time out: counts it (aborting past the retry
// budget), extends the tracker's failure streak (blacklisting it at the
// threshold), then waits for a re-execution (tracker blacklisted) or
// backs off.
sim::Task<> recover_fetch_timeout(JobRuntime& job, net::Host& host,
                                  int map_id, int server, int failures,
                                  Rng& rng) {
  job.metric.fetch_timeouts.add();
  if (auto* tracer = job.engine.tracer()) {
    tracer->instant(host.name(), "fault",
                    "fetch_timeout map_" + std::to_string(map_id));
  }
  HMR_CHECK_MSG(failures <= job.conf.retry.max_retries,
                "fetch of map " + std::to_string(map_id) + " exceeded " +
                    kFetchMaxRetries);
  if (!blacklisted(job, server) && ++job.fetch_failure_streak[server] >=
                                       job.conf.retry.blacklist_threshold) {
    job.blacklisted_trackers.insert(server);
    job.metric.trackers_blacklisted.add();
    if (auto* tracer = job.engine.tracer()) {
      tracer->instant(job.tracker_for_host(server).host->name(), "fault",
                      "tracker_blacklisted");
    }
  }
  if (blacklisted(job, server)) {
    co_await ensure_fetchable(job, map_id);
  } else {
    co_await job.engine.delay(job.conf.retry.backoff(failures, rng));
  }
  job.metric.fetch_retries.add();
}

// One request/response exchange: counts and sends the request, arms its
// fetch timeout, then drains `link.watch` until a frame that is mine
// verifies (returned, its modeled bytes in `*modeled`) or this
// request's own timeout expires (nullopt). An earlier request's expiry
// that raced its response is ignored.
sim::Task<std::optional<net::Message>> exchange(JobRuntime& job,
                                                net::Host& host, int map_id,
                                                FetchTimeouts& timeouts,
                                                const FetchLink& link,
                                                std::uint64_t* modeled) {
  FetchWatch& watch = *link.watch;
  job.metric.fetch_requests.add();
  co_await link.send();
  const std::uint64_t timer_id = ++watch.timer_seq;
  timeouts.arm(link.watch, timer_id);
  while (true) {
    auto event = co_await watch.events.recv();
    HMR_CHECK(event.has_value());  // the events channel is never closed
    if (!event->msg.has_value()) {
      if (event->timer_id == timer_id) co_return std::nullopt;
      continue;  // an expiry that raced an already-accepted response
    }
    const FetchVerdict verdict = link.classify(*event->msg);
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
    watch.armed_id = 0;
    *modeled = verdict.modeled;
    co_return std::move(event->msg);
  }
}

}  // namespace

sim::Task<std::optional<net::Message>> fetch_exchange(
    JobRuntime& job, net::Host& host, int map_id, FetchTimeouts& timeouts,
    FetchLink& link, Rng& rng, const TaskAttempt* attempt) {
  MapTaskInfo& map = job.maps.at(map_id);
  for (int failures = 0;;) {
    if (blacklisted(job, map.ran_on)) co_await ensure_fetchable(job, map_id);
    const int server = map.ran_on;
    const bool rerun_output = map.rerun_output;
    sim::ResourceHold held = co_await link.connect(server);
    std::uint64_t modeled = 0;
    auto response =
        co_await exchange(job, host, map_id, timeouts, link, &modeled);
    held.release();
    if (response.has_value()) {
      job.fetch_failure_streak[server] = 0;
      if (rerun_output) job.metric.refetch_bytes.add(std::int64_t(modeled));
      co_return response;
    }
    co_await recover_fetch_timeout(job, host, map_id, server, ++failures, rng);
    if (attempt != nullptr && attempt->kill_requested) co_return std::nullopt;
  }
}

}  // namespace hmr::mapred
