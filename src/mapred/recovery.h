// Shuffle-fetch recovery shared by the RDMA and vanilla HTTP copiers:
// one request/response exchange with per-request timeouts, capped
// exponential backoff with jitter, and the tracker-blacklist threshold.
// The paper's design (§III-B) assumes a healthy fabric and names fault
// handling as §VI future work; this is that extension.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/rng.h"
#include "mapred/types.h"
#include "net/message.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/fifo.h"

namespace hmr::net {
class Host;
}

namespace hmr::mapred {

struct JobRuntime;  // mapred/runtime.h, which includes this header

// The shuffle-fetch recovery knobs (JobConf::retry; docs/CONFIG.md has
// the keys and the rationale).
struct FetchRetryPolicy {
  double fetch_timeout = 60.0;   // seconds; 0 disables timeouts
  int max_retries = 10;          // per request, before the job aborts
  double backoff_base = 0.2;     // first retry delay, seconds
  double backoff_max = 5.0;      // exponential growth cap, seconds
  double backoff_jitter = 0.25;  // +[0, jitter) randomized fraction
  int blacklist_threshold = 3;   // consecutive failures per tracker

  // Delay before retry number `attempt` (1-based): capped exponential
  // with multiplicative jitter. Deterministic given the rng stream.
  double backoff(int attempt, Rng& rng) const;
};

// What a copier's response wait wakes up on: either a transport message
// or a request's fetch timeout expiring. `timer_id` identifies which
// request timed out, so an expiry that raced a late response is ignored.
struct FetchEvent {
  std::optional<net::Message> msg;
  std::uint64_t timer_id = 0;
};

// The part of a stream or connection that fetch timeouts act on: the
// channel its exchange loop waits on, and the id of its one request
// still awaiting a response (0 when none is).
struct FetchWatch {
  FetchWatch(sim::Engine& engine, size_t capacity) : events(engine, capacity) {}
  sim::Channel<FetchEvent> events;  // responses + timeout expiries
  std::uint64_t armed_id = 0;       // cleared by the matching response
  std::uint64_t timer_seq = 0;      // id of the latest request sent
};

// One copier's fetch timeouts. Every request of a job shares the same
// timeout, so deadlines arrive in send order and a FIFO stands in for a
// timer per request (libevent's "common timeouts"). One sleeper
// coroutine works the FIFO: it drops entries whose watch no longer holds
// their id, sleeps until the first live deadline, posts that request's
// FetchEvent, and exits once the FIFO is empty; the next arm() respawns
// it. Pending engine events stay at one per copier, however many
// requests were answered within their timeout.
class FetchTimeouts : public std::enable_shared_from_this<FetchTimeouts> {
 public:
  // `timeout` in simulated seconds; 0 disables timeouts.
  FetchTimeouts(sim::Engine& engine, double timeout)
      : engine_(engine), timeout_(timeout) {}

  // Arms request `id` on `watch`: unless `watch->armed_id` changes
  // first, FetchEvent{id} is posted to `watch->events` at exactly
  // now() + timeout. `watch` is pinned until then, so it may alias an
  // owner that outlives its copier (a finished or relocated stream).
  void arm(std::shared_ptr<FetchWatch> watch, std::uint64_t id);

 private:
  struct Entry {
    sim::Time deadline;
    std::uint64_t id;
    std::shared_ptr<FetchWatch> watch;
  };
  static sim::Task<> sleeper(std::shared_ptr<FetchTimeouts> self);

  sim::Engine& engine_;
  double timeout_;
  sim::Fifo<Entry> queue_;   // deadline order
  bool sleeping_ = false;    // a sleeper is spawned and not yet exited
};

// What a copier's transport makes of one response frame. A frame that
// is mine names its body, the CRC its server computed, and the modeled
// bytes of CRC CPU; `verify` is false when it has no body to check.
struct FetchVerdict {
  enum Kind { kMalformed, kStale, kMine } kind = kMalformed;
  bool verify = false;
  std::span<const std::uint8_t> body = {};
  std::uint32_t crc = 0;
  std::uint64_t modeled = 0;
};

// The narrow interface a copier's transport offers fetch_exchange.
struct FetchTransport {
  std::function<sim::Task<>()> send;  // sends the one request
  std::function<FetchVerdict(const net::Message&)> classify;
};

// One request/response exchange of either copier: counts and sends the
// request, arms its fetch timeout, then drains `watch->events`.
// Malformed frames (counted in malformed_msgs, as are CRC mismatches)
// and stale ones (fetch_stale_dropped) are dropped; the first frame that
// is mine and verifies disarms the timeout and is returned. Returns
// nullopt when this request's own timeout expires; an earlier request's
// expiry that raced its response is ignored.
sim::Task<std::optional<net::Message>> fetch_exchange(
    JobRuntime& job, net::Host& host, int map_id, FetchTimeouts& timeouts,
    std::shared_ptr<FetchWatch> watch, const FetchTransport& transport);

}  // namespace hmr::mapred
