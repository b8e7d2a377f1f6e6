// RDMA-based MapReduce shuffle engine — the paper's primary contribution
// (§III-B), built on UCR endpoints over the simulated verbs fabric.
//
// TaskTracker side (one service per tracker):
//   RdmaListener      — accepts UCR endpoint connections at startup
//   RdmaReceiver      — per-endpoint loop receiving DataRequests
//   DataRequestQueue  — holds requests until a responder picks them up
//   RdmaResponder     — pool of lightweight workers answering requests
//                       from the PrefetchCache, falling back to disk
//   MapOutputPrefetcher — daemon pool caching freshly-finished map
//                       outputs; misses are re-cached with raised
//                       priority (§III-B3). Only a job that caches
//                       (OSU-IB, mapred.local.caching.enabled) runs it.
//
// ReduceTask side:
//   RdmaCopier        — per-map stream fetchers with one chunk of
//                       read-ahead, feeding a streaming merge (a loser
//                       tree as its priority queue) whose sorted output
//                       flows into the DataToReduceQueue (the KvSink),
//                       overlapping shuffle, merge and reduce
//                       (§III-B2/B4)
//
// The Hadoop-A comparator is this engine run as RdmaDesign::kHadoopA.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "dataplane/cache.h"
#include "mapred/runtime.h"
#include "rdmashuffle/protocol.h"
#include "ucr/endpoint.h"

namespace hmr::rdmashuffle {

using mapred::Host;
using mapred::JobRuntime;
using mapred::KvSink;

// Tracker-side request hardening: a request that sat in the
// DataRequestQueue longer than this was already given up on by its
// copier (fetch timeout + retries) — serving it would waste responder
// and disk time, so it is evicted instead.
inline constexpr double kResponderDeadline = 120.0;  // seconds

// The two RDMA shuffle designs this engine runs. The engine reads each
// tunable from the job's mapred::JobConf where it is used; Hadoop-A
// fixes some of what OSU-IB lets the job tune.
enum class RdmaDesign {
  // The paper's design: a TaskTracker prefetch cache, byte-budgeted
  // packets, pipelined refill and a reduce overlapping the merge, with
  // caching, packet size, responder threads and overlap as user tunables
  // (§III-C(3)).
  kOsuIb,
  // Hadoop-A (Wang et al., SC'11 "Hadoop Acceleration through Network
  // Levitated Merge"), the paper's closest comparator, reconstructed
  // from its published description (§III-C). It shares the native-verbs
  // shuffle and the priority-queue merge over remote segments, but:
  //  * has no TaskTracker-side prefetch/cache: every responder request
  //    reads the map output from disk (its DataEngine "doesn't provide
  //    data caching to decrease the disk access"),
  //  * sends a fixed number of key-value pairs per packet regardless of
  //    their size (mapred.rdma.kv.per.packet, default 1024; the only
  //    packet control), the behaviour §IV-C blames for its Sort losses,
  //  * provisions each receive buffer for that count of the *largest*
  //    record, harmless for TeraSort's uniform 100-byte rows, ruinous
  //    for Sort's 20,000-byte records (§IV-C: "inefficiency in number of
  //    key-value pairs transferred each time that also affects proper
  //    overlapping"),
  //  * fetches on demand: the next packet of a segment is requested only
  //    when the merge exhausts it, putting the remote disk on the merge's
  //    critical path,
  //  * always overlaps the reduce with the merge.
  kHadoopA,
};

// The reducer-side response router's decision on one frame.
enum class RouteVerdict { kMalformed, kStale, kRouted };

// Routes one frame from a reducer's connection onto the FetchWatch of
// the stream fetching its map. `routes` is indexed by map id and null
// where no stream is fetching. A frame that is not a response, or too
// short to carry a map id, is malformed. A map id that is unrouted or
// past the end of `routes` is stale: a duplicate of a request its copier
// already gave up on (faults can stall responses past the stream's
// lifetime), or a corrupt id. Either is dropped, never indexed.
RouteVerdict route_response(std::span<mapred::FetchWatch* const> routes,
                            net::Message msg);

class RdmaShuffleEngine : public mapred::ShuffleEngine {
 public:
  explicit RdmaShuffleEngine(RdmaDesign design) : design_(design) {}

  sim::Task<> start(JobRuntime& job) override;
  void on_map_finished(JobRuntime& job, int map_id, int host_id) override;
  // Disk-full on `host_id`: drops that tracker's prefetch cache so the
  // spill can retry into the freed space (counted as
  // cache.pressure.evictions, distinct from integrity evictions).
  void on_disk_pressure(JobRuntime& job, int host_id) override;
  sim::Task<> fetch_and_merge(JobRuntime& job, int reduce_id, Host& host,
                              KvSink& sink,
                              mapred::TaskAttempt* attempt = nullptr) override;
  sim::Task<> stop(JobRuntime& job) override;

 private:
  struct PendingRequest {
    DataRequest request;
    ucr::Endpoint* endpoint;
    double enqueued_at = 0.0;  // for responder deadline eviction
  };
  // One fetched chunk flowing from a copier driver into the merge: the
  // response frame as received, and the span of its serialized records.
  struct StreamChunk {
    std::shared_ptr<const Bytes> payload;
    std::span<const std::uint8_t> records;
    std::uint64_t mem_charge = 0;
  };
  // The merge's read position in one stream: the chunk being merged,
  // read in place, and its current record. `head` borrows from the
  // frame `records` owns, so it stays valid until the merge loads the
  // stream's next chunk.
  struct MergeCursor {
    dataplane::SegmentReader records{nullptr};
    dataplane::KvView head;
    std::uint64_t mem_charge = 0;  // shuffle memory the chunk holds
  };
  // Per-map reduce-side stream state. Shared-owned because fetch
  // timeouts may still be pending after the driver finished.
  struct MapStream {
    explicit MapStream(sim::Engine& engine)
        : watch(engine, 64), chunks(engine, 2), demand(engine) {}
    // Responses (routed by map id) interleaved with timeout expiries.
    mapred::FetchWatch watch;
    sim::Channel<StreamChunk> chunks;
    // Set by the kill watcher when the reduce attempt loses its race:
    // the driver abandons between exchanges and closes its chunk queue.
    bool cancelled = false;
    // Set by the merge while it is blocked on this stream: the driver may
    // deliver uncharged instead of waiting for shuffle memory, and
    // on-demand (non-pipelined) drivers may issue the next request.
    bool urgent = false;
    sim::Event demand;  // pulsed when the merge starts waiting
  };
  // What a stream's driver keeps while it is parked between chunks: the
  // request at the stream's cursor, and the tracker serving the map with
  // the reducer's endpoint to it. Everything one exchange needs besides
  // lives on fetch_chunk's frame.
  struct StreamCursor {
    DataRequest req;
    int server = 0;
    ucr::Endpoint* endpoint = nullptr;
  };
  // One chunk fetch_chunk delivered, and whether it ends the partition.
  struct FetchedChunk {
    StreamChunk chunk;
    bool eof = false;
  };
  // Per-reducer copier state shared by that reducer's stream drivers.
  struct CopierState {
    CopierState(sim::Engine& engine, int reduce_id, std::uint64_t mem_bytes,
                double fetch_timeout, size_t maps)
        : reduce_id(reduce_id),
          routes(maps, nullptr),
          mem(engine, std::int64_t(mem_bytes), "shuffle.mem"),
          conn_lock(engine, 1, "copier.conn"),
          timeouts(std::make_shared<mapred::FetchTimeouts>(engine,
                                                           fetch_timeout)),
          drivers(engine) {}
    int reduce_id;
    std::map<int, ucr::Endpoint*> conns;  // tracker host id -> endpoint
    // One stream per map, indexed by map id, while the merge runs.
    std::vector<std::shared_ptr<MapStream>> streams;
    // Map id -> the watch of the stream fetching it; null while none is.
    std::vector<mapred::FetchWatch*> routes;
    sim::Resource mem;                    // reducer shuffle buffer
    sim::Resource conn_lock;
    std::shared_ptr<mapred::FetchTimeouts> timeouts;  // shared by all streams
    // The reduce attempt this copier serves (nullable): a killed one
    // gives up its fetches between retries.
    const mapred::TaskAttempt* attempt = nullptr;
    // Every request's budget (0 = unlimited; DataRequest) and the shuffle
    // memory each chunk's receive buffer is charged, set once per reducer
    // by fetch_and_merge.
    std::uint64_t max_pairs = 0;
    std::uint64_t max_real_bytes = 0;
    std::uint64_t chunk_charge = 0;
    sim::WaitGroup drivers;  // counts the stream drivers still running
  };
  // One map output for the prefetcher to cache; a miss re-queues it with
  // raised priority (§III-B3).
  struct PrefetchRequest {
    int map_id = 0;
    int priority = 0;
  };
  // The MapOutputPrefetcher pool's state on one tracker: the cache it
  // fills and its work queue. Only a job that caches builds it.
  struct PrefetchState {
    PrefetchState(sim::Engine& engine, std::uint64_t cache_bytes)
        : cache(cache_bytes), queue(engine, 1024) {}
    dataplane::PrefetchCache cache;
    sim::Channel<PrefetchRequest> queue;
    std::map<int, int> attempts;  // per map id
    std::set<int> inflight;
  };
  // Per-TaskTracker service state.
  struct TrackerService {
    explicit TrackerService(sim::Engine& engine)
        : request_queue(engine, 256) {}
    std::unique_ptr<ucr::Listener> listener;
    sim::Channel<PendingRequest> request_queue;  // DataRequestQueue
    std::unique_ptr<PrefetchState> prefetch;     // null unless caching
    std::vector<std::unique_ptr<ucr::Endpoint>> endpoints;
  };

  sim::Task<> rdma_listener(JobRuntime& job, TrackerService& service);
  sim::Task<> rdma_receiver(JobRuntime& job, TrackerService& service,
                            ucr::Endpoint& endpoint);
  sim::Task<> rdma_responder(JobRuntime& job, TrackerService& service,
                             int host_id);
  sim::Task<> prefetcher(JobRuntime& job, PrefetchState& prefetch,
                         int host_id);
  // Serves one request: cache lookup / disk read / chunk extraction.
  sim::Task<> respond(JobRuntime& job, TrackerService& service, int host_id,
                      PendingRequest pending);
  // Dials (once per tracker) and returns the reducer's endpoint to
  // `server`, spawning the response router on first connect.
  sim::Task<ucr::Endpoint*> ensure_client_endpoint(
      JobRuntime& job, Host& host, std::shared_ptr<CopierState> state,
      int server);
  // RdmaCopier: fetches map `map_id`'s partition chunk by chunk with
  // timeout/retry/blacklist recovery, feeding its stream's chunk queue.
  // Between chunks it parks holding only its StreamCursor, its retry
  // stream and its memory charge.
  sim::Task<> copier_driver(JobRuntime& job, Host& host,
                            std::shared_ptr<CopierState> state, int map_id);
  // One chunk of a copier stream: the fetch with recovery, a second
  // fetch when the chunk has no memory charge (the over-budget refetch),
  // then the cursor advance. Nullopt when the reduce attempt was killed
  // between retries. Awaited once per chunk, so the FetchLink and the
  // response live only for one exchange.
  sim::Task<std::optional<FetchedChunk>> fetch_chunk(
      JobRuntime& job, Host& host, const std::shared_ptr<CopierState>& state,
      StreamCursor& cursor, Rng& rng, bool charged);
  // Cached handles for the per-request/per-chunk metric sites, bound in
  // start() (registry references are stable for the engine's lifetime;
  // same idiom as mapred::JobRuntime::metric and net::Network).
  struct OsuMetrics {
    explicit OsuMetrics(MetricsRegistry& registry)
        : responder_evicted(registry.counter("osu.responder.evicted")),
          respond_orphaned(registry.counter("osu.respond.orphaned")),
          fetch_rtt(registry.latency_histogram("osu.fetch.rtt")),
          respond_disk(registry.latency_histogram("osu.respond.disk")),
          respond_send(registry.latency_histogram("osu.respond.send")),
          queue_wait(registry.latency_histogram("osu.responder.queue_wait")),
          merge_chunk_wait(
              registry.latency_histogram("osu.merge.chunk_wait")) {}

    Counter& responder_evicted;
    Counter& respond_orphaned;
    FixedHistogram& fetch_rtt;
    FixedHistogram& respond_disk;
    FixedHistogram& respond_send;
    FixedHistogram& queue_wait;
    FixedHistogram& merge_chunk_wait;
  };

  RdmaDesign design_;
  std::unique_ptr<OsuMetrics> metric_;  // bound in start()
  std::map<int, std::unique_ptr<TrackerService>> services_;  // by host id
  // Reducer-side endpoints; kept alive until stop() so the symmetric
  // close handshake can complete.
  std::vector<std::unique_ptr<ucr::Endpoint>> client_endpoints_;
  std::unique_ptr<sim::WaitGroup> daemons_;
};

}  // namespace hmr::rdmashuffle
