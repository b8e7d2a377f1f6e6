// Shuffle-fetch recovery shared by the RDMA and vanilla HTTP copiers:
// one fetch loop with per-request timeouts, capped exponential backoff
// with jitter, the tracker-blacklist threshold and map re-execution.
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
#include "sim/sync.h"

namespace hmr::net {
class Host;
}

namespace hmr::mapred {

struct JobRuntime;  // mapred/runtime.h, which includes this header
struct TaskAttempt;

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
// bytes it carries (what the CRC CPU and shuffle.refetch.bytes charge);
// `verify` is false when it has no body to check.
struct FetchVerdict {
  enum Kind { kMalformed, kStale, kMine } kind = kMalformed;
  bool verify = false;
  std::span<const std::uint8_t> body = {};
  std::uint32_t crc = 0;
  std::uint64_t modeled = 0;
};

// One engine's link to the trackers that serve a map: the three
// callbacks the fetch loop drives, and the watch its exchanges drain.
struct FetchLink {
  // Run before every attempt with the tracker serving the map now. It
  // returns what the attempt holds until its exchange ends: vanilla's
  // keep-alive connection lock, or nothing. It may re-point `watch`
  // (vanilla's is per connection).
  std::function<sim::Task<sim::ResourceHold>(int server)> connect;
  std::function<sim::Task<>()> send;  // sends the one request
  std::function<FetchVerdict(const net::Message&)> classify;
  std::shared_ptr<FetchWatch> watch;
};

// The whole fetch of one request, with recovery, for either copier.
// Before every attempt the serving tracker is resolved: if it is
// blacklisted, the map's re-execution is waited for (or started) and
// the attempt fetches from where it ran. An attempt counts and sends
// the request, arms its fetch timeout, then drains `link.watch`:
// malformed frames (counted in malformed_msgs, as are CRC mismatches)
// and stale ones (fetch_stale_dropped) are dropped; the first frame
// that is mine and verifies is returned, and its bytes count in
// refetch_bytes when a re-executed map served them. A timeout counts,
// aborts past the retry budget, reports the tracker's failure, then
// waits for the re-execution (tracker blacklisted) or backs off.
// Returns nullopt only when the reduce `attempt` (nullable) was killed:
// it gives up between retries, never before the first.
sim::Task<std::optional<net::Message>> fetch_exchange(
    JobRuntime& job, net::Host& host, int map_id, FetchTimeouts& timeouts,
    FetchLink& link, Rng& rng, const TaskAttempt* attempt);

}  // namespace hmr::mapred
