#include "rdmashuffle/engine.h"

#include <algorithm>

#include "common/crc32.h"
#include "dataplane/merger.h"
#include "mapred/integrity.h"
#include "mapred/recovery.h"
#include "sim/trace.h"

namespace hmr::rdmashuffle {

using mapred::MapOutputInfo;
using mapred::TaskTrackerState;

namespace {

// MapOutputPrefetcher daemons per TaskTracker.
constexpr int kPrefetchDaemons = 2;
// A map output is re-cached after misses at most this many times; beyond
// that the cache is thrashing and re-reading whole outputs from disk only
// steals bandwidth from the responders ("adjust caching based on data
// availability and necessity", §III-B3).
constexpr int kMaxRecacheAttempts = 2;
// A map output read within this window of its creation is still in the
// OS page cache (the map just wrote it): the prefetcher copies it at
// memory speed, kPageCacheBw, instead of re-reading the platters. This
// immediacy is what makes "cache as soon as it gets available" (§III-B3)
// cheap.
constexpr double kPageCacheWindow = 20.0;  // seconds
constexpr double kPageCacheBw = 2.5e9;     // bytes/sec
// Hadoop-A's fixed kv pairs per packet when the job sets none.
constexpr std::uint64_t kHadoopAKvPerPacket = 1024;

}  // namespace

// ---------------------------------------------------------------------
// TaskTracker side
// ---------------------------------------------------------------------

sim::Task<> RdmaShuffleEngine::start(JobRuntime& job) {
  // Rebound per job: a reused engine instance must never hold handles
  // into a previous run's registry.
  metric_ = std::make_unique<OsuMetrics>(job.engine.metrics());
  daemons_ = std::make_unique<sim::WaitGroup>(job.engine);
  const bool caches =
      design_ == RdmaDesign::kOsuIb && job.conf.caching_enabled;
  for (auto& tracker : job.trackers) {
    const int host_id = tracker->host->id();
    auto service = std::make_unique<TrackerService>(job.engine);
    service->listener =
        std::make_unique<ucr::Listener>(job.network, *tracker->host);
    daemons_->add();
    job.engine.spawn(rdma_listener(job, *service));
    for (int r = 0; r < job.conf.responder_threads; ++r) {
      daemons_->add();
      job.engine.spawn(rdma_responder(job, *service, host_id));
    }
    if (caches) {
      service->prefetch =
          std::make_unique<PrefetchState>(job.engine, job.conf.cache_bytes);
      for (int p = 0; p < kPrefetchDaemons; ++p) {
        daemons_->add();
        job.engine.spawn(prefetcher(job, *service->prefetch, host_id));
      }
    }
    services_.emplace(host_id, std::move(service));
  }
  co_return;
}

sim::Task<> RdmaShuffleEngine::rdma_listener(JobRuntime& job,
                                             TrackerService& service) {
  while (auto endpoint = co_await service.listener->accept()) {
    daemons_->add();
    ucr::Endpoint& ref = *endpoint;
    service.endpoints.push_back(std::move(endpoint));
    job.engine.spawn(rdma_receiver(job, service, ref));
  }
  daemons_->done();
}

sim::Task<> RdmaShuffleEngine::rdma_receiver(JobRuntime& job,
                                             TrackerService& service,
                                             ucr::Endpoint& endpoint) {
  while (auto msg = co_await endpoint.recv()) {
    auto req = DataRequest::from_frame(*msg);
    if (!req.ok()) {
      // Malformed frame: drop it rather than crash the responder; the
      // copier's fetch timeout re-issues the request.
      job.metric.malformed_msgs.add();
      continue;
    }
    PendingRequest pending{std::move(req).value(), &endpoint,
                           job.engine.now()};
    co_await service.request_queue.send(std::move(pending));
  }
  // Peer closed: complete the symmetric close so the peer's inbox drains.
  endpoint.close();
  daemons_->done();
}

sim::Task<> RdmaShuffleEngine::rdma_responder(JobRuntime& job,
                                              TrackerService& service,
                                              int host_id) {
  while (auto pending = co_await service.request_queue.recv()) {
    if (job.engine.now() - pending->enqueued_at > kResponderDeadline) {
      // Orphaned request: the copier that sent it timed out long ago and
      // has retried elsewhere. Serving it would waste responder and disk
      // time on an answer nobody is waiting for.
      metric_->responder_evicted.add();
      continue;
    }
    metric_->queue_wait.record(job.engine.now() - pending->enqueued_at);
    co_await respond(job, service, host_id, std::move(*pending));
  }
  daemons_->done();
}

sim::Task<> RdmaShuffleEngine::respond(JobRuntime& job,
                                       TrackerService& service, int host_id,
                                       PendingRequest pending) {
  const DataRequest& req = pending.request;
  const MapOutputInfo* found = co_await job.output_to_serve(
      host_id, req.job_id, req.map_id, req.reduce_id);
  if (found == nullptr) co_return;
  TaskTrackerState& tracker = job.tracker_for_host(host_id);
  const MapOutputInfo& info = *found;
  const auto& entry = info.output->index[req.reduce_id];

  // PrefetchCache lookup (§III-B3); a miss serves from disk immediately
  // and re-queues the output for caching with raised priority.
  const auto cache_key = dataplane::map_output_id(req.job_id, req.map_id);
  bool from_disk = true;
  std::shared_ptr<const dataplane::MapOutput> source = info.output;
  if (PrefetchState* prefetch = service.prefetch.get()) {
    if (auto hit = prefetch->cache.get(cache_key)) {
      if (tracker.host->fs().roll_cache_corrupt() && job.conf.integrity) {
        // Bit-rot in the cached copy, caught by the segment checksum
        // before anything is sent: evict the poisoned entry and serve
        // this request from disk (the on-disk copy verified clean at
        // spill time), then re-cache from the clean source.
        job.metric.checksum_mismatches.add();
        job.metric.cache_integrity_evictions.add();
        (void)prefetch->cache.erase(cache_key);
        (void)prefetch->queue.try_send({int(req.map_id), 1});
      } else {
        source = std::move(hit);
        from_disk = false;
      }
    } else {
      (void)prefetch->queue.try_send({int(req.map_id), 1});
    }
  }

  auto partition = source->partition_bytes(int(req.reduce_id));
  if (req.cursor_real > partition.size()) {
    job.metric.malformed_msgs.add();
    co_return;
  }
  dataplane::SegmentReader reader(source->data,
                                  partition.subspan(req.cursor_real));
  std::uint64_t n_pairs = 0;
  const auto chunk = reader.take_chunk(
      req.max_pairs == 0 ? UINT64_MAX : req.max_pairs,
      req.max_real_bytes == 0 ? UINT64_MAX : req.max_real_bytes, &n_pairs);

  if (from_disk && !chunk.empty()) {
    const double dt0 = job.engine.now();
    auto view = co_await mapred::read_range_verified(
        job, *tracker.host, info.local_path, entry.offset + req.cursor_real,
        chunk.size());
    if (!view.ok()) {
      // The on-disk map output is unreadable past bounded recovery
      // (at-rest rot or a persistent IO fault). Drop the request: the
      // copier's fetch times out, blacklists this tracker, and
      // re-executes the map on a healthy one (mapred/recovery.h).
      job.metric.mapout_unserved.add();
      co_return;
    }
    metric_->respond_disk.record(job.engine.now() - dt0);
  }

  DataResponse header;
  header.job_id = req.job_id;
  header.map_id = req.map_id;
  header.reduce_id = req.reduce_id;
  header.cursor_real = req.cursor_real;
  header.n_pairs = n_pairs;
  header.chunk_real_bytes = chunk.size();
  // A whole partition carries the checksum MapOutputBuilder::build
  // computed over it; a partial chunk is scanned here, over its bytes as
  // sent. The copier recomputes it over the received body, so a frame
  // that rots in flight is dropped and re-fetched. Both paths take the
  // kernel yield, to keep event order (DESIGN.md §6.3).
  co_await job.engine.delay(0);
  if (req.cursor_real == 0 && chunk.size() == partition.size()) {
    header.chunk_crc = source->index[req.reduce_id].crc;
  } else {
    header.chunk_crc = crc32c(chunk);
    if (auto* t = job.engine.tracer()) {
      t->instant(tracker.host->name(), "crc",
                 "respond_crc_m" + std::to_string(req.map_id));
    }
  }
  header.eof = req.cursor_real + chunk.size() >= partition.size();

  ByteWriter frame;
  header.encode_header(frame, chunk.size());
  frame.put_bytes(chunk);
  const auto modeled =
      kResponseHeaderBytes +
      static_cast<std::uint64_t>(double(chunk.size()) * info.scale);
  job.result.shuffled_modeled_bytes +=
      static_cast<std::uint64_t>(double(chunk.size()) * info.scale);
  if (pending.endpoint->closed()) {
    // The copier timed out, recovered elsewhere, and tore this
    // connection down while the response was stalled or reading disk.
    metric_->respond_orphaned.add();
    co_return;
  }
  const double st0 = job.engine.now();
  co_await pending.endpoint->send(net::Message::share(
      std::make_shared<const Bytes>(frame.take()), modeled,
      kTagDataResponse));
  metric_->respond_send.record(job.engine.now() - st0);
}

sim::Task<> RdmaShuffleEngine::prefetcher(JobRuntime& job,
                                          PrefetchState& prefetch,
                                          int host_id) {
  TaskTrackerState& tracker = job.tracker_for_host(host_id);
  while (auto request = co_await prefetch.queue.recv()) {
    const auto [map_id, priority] = *request;
    const auto cache_key = dataplane::map_output_id(
        std::uint32_t(job.job_id), std::uint32_t(map_id));
    if (prefetch.cache.contains(cache_key)) {
      prefetch.cache.boost(cache_key, priority);
      continue;
    }
    // Anti-thrash: never fetch the same output concurrently, and give up
    // re-caching outputs the cache keeps evicting. The in-flight set also
    // keeps put()'s precondition: no other prefetcher can cache this key
    // while this one reads it.
    if (prefetch.inflight.contains(map_id)) continue;
    if (prefetch.attempts[map_id] >= 1 + kMaxRecacheAttempts) continue;
    ++prefetch.attempts[map_id];
    prefetch.inflight.insert(map_id);
    struct InflightGuard {
      PrefetchState& prefetch;
      int map_id;
      ~InflightGuard() { prefetch.inflight.erase(map_id); }
    } inflight_guard{prefetch, map_id};
    const MapOutputInfo* found =
        tracker.find_output(std::uint32_t(job.job_id), std::uint32_t(map_id));
    if (found == nullptr) continue;
    const MapOutputInfo& info = *found;
    const auto modeled = static_cast<std::uint64_t>(
        double(info.output->total_bytes()) * info.scale);
    if (modeled > prefetch.cache.capacity_bytes()) continue;
    if (job.engine.now() - info.created_at < kPageCacheWindow) {
      // The map just wrote this file: it is still in the page cache, so
      // caching it is a memory copy, not a platter read.
      auto core = co_await sim::hold(tracker.host->cpu());
      co_await job.engine.delay(double(modeled) / kPageCacheBw);
    } else {
      // Verified fill: a cache loaded from a rotten platter read would
      // poison every subsequent hit. Unreadable outputs just stay
      // uncached — responders fall back to (verified) disk reads.
      auto view = co_await mapred::read_file_verified(job, *tracker.host,
                                                      info.local_path);
      if (!view.ok()) continue;
    }
    (void)prefetch.cache.put(cache_key, info.output, modeled, priority);
  }
  daemons_->done();
}

void RdmaShuffleEngine::on_disk_pressure(JobRuntime& job, int host_id) {
  auto it = services_.find(host_id);
  if (it == services_.end() || !it->second->prefetch) return;
  dataplane::PrefetchCache& cache = it->second->prefetch->cache;
  if (cache.entries() == 0) return;
  // A full disk on this host: the cached map outputs are the only
  // storage-adjacent memory the engine holds there, so shed them all and
  // let the spill retry. Dropped entries re-cache on demand later.
  job.metric.cache_pressure_evictions.add(std::int64_t(cache.entries()));
  cache.clear();
}

void RdmaShuffleEngine::on_map_finished(JobRuntime& /*job*/, int map_id,
                                        int host_id) {
  auto it = services_.find(host_id);
  if (it == services_.end() || !it->second->prefetch) return;
  // Priority 0 speculative prefetch; dropped if the queue is full.
  (void)it->second->prefetch->queue.try_send({map_id, 0});
}

// ---------------------------------------------------------------------
// ReduceTask side: RdmaCopier + streaming loser-tree merge
// ---------------------------------------------------------------------

RouteVerdict route_response(std::span<mapred::FetchWatch* const> routes,
                            net::Message msg) {
  if (msg.tag != kTagDataResponse || msg.payload == nullptr) {
    return RouteVerdict::kMalformed;
  }
  // Only map_id is read here; the stream's classify is the one full
  // decode of the header.
  const auto map_id = DataResponse::peek_map_id(*msg.payload);
  if (!map_id.ok()) return RouteVerdict::kMalformed;
  // The map id came off the wire: bounds-check it before it indexes.
  if (*map_id >= routes.size() || routes[*map_id] == nullptr) {
    return RouteVerdict::kStale;
  }
  mapred::FetchEvent event;
  event.msg = std::move(msg);
  // The events channel is sized so delivery never parks the router:
  // each stream has at most one outstanding request, so its buffer holds
  // a bounded number of stale duplicates plus at most one timeout expiry.
  HMR_CHECK(routes[*map_id]->events.try_send(std::move(event)));
  return RouteVerdict::kRouted;
}

sim::Task<ucr::Endpoint*> RdmaShuffleEngine::ensure_client_endpoint(
    JobRuntime& job, Host& host, std::shared_ptr<CopierState> state,
    int server) {
  // Connect once per TaskTracker (guarded against concurrent dials).
  auto lock = co_await sim::hold(state->conn_lock);
  auto it = state->conns.find(server);
  if (it != state->conns.end()) co_return it->second;
  auto ep = co_await ucr::connect(job.network, host,
                                  *services_.at(server)->listener);
  ucr::Endpoint* endpoint = ep.get();
  state->conns.emplace(server, endpoint);
  client_endpoints_.push_back(std::move(ep));
  // Response router for this connection: demultiplexes onto the per-map
  // stream event channels (see route_response).
  daemons_->add();
  job.engine.spawn([](RdmaShuffleEngine& self, JobRuntime& job,
                      ucr::Endpoint& ep,
                      std::shared_ptr<CopierState> state) -> sim::Task<> {
    while (auto msg = co_await ep.recv()) {
      switch (route_response(state->routes, std::move(*msg))) {
        case RouteVerdict::kMalformed:
          job.metric.malformed_msgs.add();
          break;
        case RouteVerdict::kStale:
          job.metric.fetch_stale_dropped.add();
          break;
        case RouteVerdict::kRouted:
          break;
      }
    }
    self.daemons_->done();
  }(*this, job, *endpoint, state));
  co_return endpoint;
}

sim::Task<> RdmaShuffleEngine::copier_driver(
    JobRuntime& job, Host& host, std::shared_ptr<CopierState> state,
    int map_id) {
  MapStream& stream = *state->streams[size_t(map_id)];
  co_await job.map_done.at(map_id)->wait();
  if (stream.cancelled) {
    // The reduce attempt was killed while this stream waited for its
    // map; nothing was routed or fetched yet.
    stream.chunks.close();
    state->drivers.done();
    co_return;
  }
  auto rng = job.engine.make_rng("shuffle.retry.r" +
                                 std::to_string(state->reduce_id) + ".m" +
                                 std::to_string(map_id));

  // The endpoint to the tracker serving the map is dialed up front and
  // redialed only when that tracker changes. Each request is
  // `cursor.req` at the stream's cursor.
  StreamCursor cursor;
  cursor.server = job.maps.at(map_id).ran_on;
  cursor.endpoint =
      co_await ensure_client_endpoint(job, host, state, cursor.server);
  cursor.req.job_id = std::uint32_t(job.job_id);
  cursor.req.map_id = std::uint32_t(map_id);
  cursor.req.reduce_id = std::uint32_t(state->reduce_id);
  cursor.req.max_pairs = state->max_pairs;
  cursor.req.max_real_bytes = state->max_real_bytes;

  state->routes[size_t(map_id)] = &stream.watch;
  bool first_request = true;
  while (true) {
    // Abandon between exchanges once the attempt is killed (the watcher
    // pulses `demand` so waits here don't outlive the race); any chunk
    // already sent is drained — and its memory charge released — by the
    // merge's cancellation drain.
    if (stream.cancelled) break;
    if (!first_request && design_ == RdmaDesign::kHadoopA &&
        !stream.urgent) {
      // Network-levitated merge (Hadoop-A): wait until the merge actually
      // needs the next packet of this segment.
      co_await stream.demand.wait();
      if (stream.cancelled) break;
    }
    first_request = false;

    // Provision the receive buffer *before* fetching (pre-allocated
    // buffers). The stream the merge is blocked on bypasses the wait
    // (uncharged emergency buffer) so memory pressure serializes fetches
    // onto the merge's critical path instead of deadlocking it.
    const std::uint64_t charge = state->chunk_charge;
    bool charged = state->mem.try_acquire(std::int64_t(charge));
    if (!charged && !stream.urgent) {
      // Buffers are full: degrade to on-demand fetching — sleep until
      // the merge actually blocks on this stream, then deliver as an
      // uncharged emergency chunk (or charged, if memory freed up).
      co_await stream.demand.wait();
      if (stream.cancelled) break;  // no charge held yet
      charged = state->mem.try_acquire(std::int64_t(charge));
    }

    auto fetched = co_await fetch_chunk(job, host, state, cursor, rng, charged);
    if (!fetched.has_value()) {
      // The reduce attempt was killed between retries.
      if (charged) state->mem.release(std::int64_t(charge));
      break;
    }
    fetched->chunk.mem_charge = charged ? charge : 0;
    // The send is named: a chunk passed inside the co_await operand
    // would also take a slot in the frame as the operand's temporary,
    // 40 bytes more in every stream's driver.
    auto deliver = stream.chunks.send(std::move(fetched->chunk));
    co_await deliver;
    if (fetched->eof) break;
  }
  stream.chunks.close();
  state->routes[size_t(map_id)] = nullptr;
  state->drivers.done();
}

sim::Task<std::optional<RdmaShuffleEngine::FetchedChunk>>
RdmaShuffleEngine::fetch_chunk(JobRuntime& job, Host& host,
                               const std::shared_ptr<CopierState>& state,
                               StreamCursor& cursor, Rng& rng, bool charged) {
  // What the link's callables touch, reached through one pointer each
  // so that every callable fits std::function's inline buffer: building
  // the link allocates nothing. Only the response echoing the cursor is
  // mine (others are stale duplicates); `header` and `records` keep the
  // decode of the last one accepted.
  struct Exchange {
    RdmaShuffleEngine& self;
    JobRuntime& job;
    Host& host;
    const std::shared_ptr<CopierState>& state;
    StreamCursor& cursor;
    DataResponse header = {};
    std::span<const std::uint8_t> records = {};
  };
  Exchange ex{*this, job, host, state, cursor};
  const int map_id = int(cursor.req.map_id);
  const std::shared_ptr<MapStream>& stream = state->streams[size_t(map_id)];
  mapred::FetchLink link;
  link.watch = std::shared_ptr<mapred::FetchWatch>(stream, &stream->watch);
  link.connect = [x = &ex](int to) -> sim::Task<sim::ResourceHold> {
    if (to != x->cursor.server) {
      x->cursor.endpoint = co_await x->self.ensure_client_endpoint(
          x->job, x->host, x->state, to);
      x->cursor.server = to;
    }
    co_return sim::ResourceHold{};
  };
  link.send = [x = &ex] {
    return x->cursor.endpoint->send(
        net::Message::data(x->cursor.req.encode(), 1.0, kTagDataRequest)
            .with_modeled(kRequestWireBytes));
  };
  // The router forwards only response frames with a payload.
  link.classify = [x = &ex](const net::Message& msg) -> mapred::FetchVerdict {
    ByteReader r(*msg.payload);
    const auto decoded = DataResponse::decode_header(r);
    if (!decoded.ok()) return {};  // malformed
    const auto body = r.bytes(decoded->chunk_real_bytes);
    if (!body.ok()) return {};  // short body
    if (decoded->cursor_real != x->cursor.req.cursor_real) {
      return {mapred::FetchVerdict::kStale};
    }
    x->header = *decoded;
    x->records = *body;
    return {mapred::FetchVerdict::kMine, x->header.chunk_real_bytes > 0,
            x->records, x->header.chunk_crc,
            static_cast<std::uint64_t>(double(x->header.chunk_real_bytes) *
                                       x->job.data_scale)};
  };
  // Recovery relocates a stream to a re-executed attempt and resumes it
  // from the SAME cursor: deterministic map execution makes the rerun's
  // partition byte-identical, so no delivered chunk is ever re-merged.
  const auto fetch = [&] {
    return mapred::fetch_exchange(job, host, map_id, *state->timeouts, link,
                                  rng, state->attempt);
  };

  const double rt0 = job.engine.now();
  std::optional<net::Message> response = co_await fetch();
  if (response.has_value() && !charged) {
    // Over-budget segment: the merge had no room to keep this buffer
    // resident, so an earlier delivery was dropped and the packet is
    // fetched again now that the merge demands it — the levitated-merge
    // thrash of fixed-count buffers (§IV-C).
    std::optional<net::Message> again = co_await fetch();
    response = std::move(again);
    job.metric.overbudget_refetches.add();
    job.metric.overbudget_bytes.add(static_cast<std::int64_t>(
        double(ex.header.chunk_real_bytes) * job.data_scale));
  }
  if (!response.has_value()) co_return std::nullopt;
  metric_->fetch_rtt.record(job.engine.now() - rt0);
  cursor.req.cursor_real += ex.header.chunk_real_bytes;

  // `records` points into `response`, the last frame classified mine;
  // the chunk keeps that frame alive for the merge to read in place.
  FetchedChunk fetched;
  fetched.chunk.payload = std::move(response->payload);
  fetched.chunk.records = ex.records;
  fetched.eof = ex.header.eof;
  co_return std::move(fetched);
}

sim::Task<> RdmaShuffleEngine::fetch_and_merge(JobRuntime& job,
                                               int reduce_id, Host& host,
                                               KvSink& sink,
                                               mapred::TaskAttempt* attempt) {
  const auto cancelled = [attempt] {
    return attempt != nullptr && attempt->kill_requested;
  };
  auto state = std::make_shared<CopierState>(
      job.engine, reduce_id, job.conf.shuffle_buffer_bytes,
      job.conf.retry.fetch_timeout, job.maps.size());
  state->attempt = attempt;
  // The fetch budget of every request: OSU-IB packets are byte-budgeted
  // (0 = unlimited) unless the job sets a kv count; Hadoop-A's kv count is
  // its only packet control.
  const bool hadoop_a = design_ == RdmaDesign::kHadoopA;
  const std::uint64_t kv_per_packet =
      job.conf.kv_per_packet.value_or(hadoop_a ? kHadoopAKvPerPacket : 0);
  const std::uint64_t packet_bytes = hadoop_a ? 0 : job.conf.packet_bytes;
  // kv-count budgets are in real-world pairs; each carried pair stands
  // for kv_inflation of them (mapred::kKvInflation).
  const double kv_inflation = job.conf.kv_inflation.value_or(job.data_scale);
  if (kv_per_packet != 0) {
    state->max_pairs = std::max<std::uint64_t>(
        1, std::uint64_t(double(kv_per_packet) / kv_inflation));
  }
  if (packet_bytes != 0) {
    state->max_real_bytes = job.real_from_modeled(packet_bytes);
  }
  // Each chunk's receive buffer: OSU-IB reserves the packet size, Hadoop-A
  // count x largest modeled record (the §IV-C pathology); either reserves
  // one largest record when that is 0.
  const std::uint64_t max_record_modeled = job.conf.max_record_bytes.value_or(
      static_cast<std::uint64_t>(102.0 * job.data_scale));
  std::uint64_t charge =
      hadoop_a ? state->max_pairs * max_record_modeled : packet_bytes;
  if (charge == 0) charge = max_record_modeled;
  state->chunk_charge =
      std::min<std::uint64_t>(charge, std::uint64_t(state->mem.capacity()));

  std::vector<std::shared_ptr<MapStream>>& streams = state->streams;
  streams.reserve(job.maps.size());
  for (size_t m = 0; m < job.maps.size(); ++m) {
    streams.push_back(std::make_shared<MapStream>(job.engine));
  }

  // Kill watcher: flags every stream cancelled and pulses its demand
  // event so drivers parked waiting for the merge wake up and unwind.
  // It shares the copier state, and `wake` is also set on the terminal
  // transition, so the watcher always completes safely.
  if (attempt != nullptr) {
    job.engine.spawn([](mapred::TaskAttempt& attempt,
                        std::shared_ptr<CopierState> state) -> sim::Task<> {
      co_await attempt.wake.wait();
      if (!attempt.kill_requested) co_return;
      for (auto& stream : state->streams) {
        stream->cancelled = true;
        stream->demand.set();
        stream->demand.reset();
      }
    }(*attempt, state));
  }

  // --- RdmaCopier: one driver per map stream -------------------------
  for (size_t m = 0; m < job.maps.size(); ++m) {
    state->drivers.add();
    job.engine.spawn(copier_driver(job, host, state, int(m)));
  }

  // --- streaming loser-tree merge (§III-B2) ---------------------------
  // The tree borrows each stream's current key from its cursor's head.
  std::vector<MergeCursor> cursors(streams.size());

  // Load the next non-empty chunk of stream s into its cursor, with the
  // chunk's first record as the head; false when the stream is done.
  auto advance_chunk = [&](size_t s) -> sim::Task<bool> {
    const double t0 = job.engine.now();
    MergeCursor& cursor = cursors[s];
    // The cursor's chunk is spent: free its frame and its memory charge.
    cursor.records = dataplane::SegmentReader(nullptr);
    if (cursor.mem_charge != 0) {
      state->mem.release(std::int64_t(cursor.mem_charge));
      cursor.mem_charge = 0;
    }
    while (true) {
      if (streams[s]->chunks.empty()) {
        streams[s]->urgent = true;
        streams[s]->demand.set();
        streams[s]->demand.reset();
      }
      auto chunk = co_await streams[s]->chunks.recv();
      streams[s]->urgent = false;
      if (!chunk) co_return false;
      if (chunk->records.empty()) {
        if (chunk->mem_charge != 0) {
          state->mem.release(std::int64_t(chunk->mem_charge));
        }
        continue;
      }
      cursor.records =
          dataplane::SegmentReader(std::move(chunk->payload), chunk->records);
      const bool has_head = cursor.records.next_view(&cursor.head);
      HMR_CHECK(has_head);
      cursor.mem_charge = chunk->mem_charge;
      metric_->merge_chunk_wait.record(job.engine.now() - t0);
      co_return true;
    }
  };

  dataplane::LoserTree tree(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    if (co_await advance_chunk(s)) {
      tree.set(s, cursors[s].head.key);
    } else {
      tree.set_exhausted(s);
    }
  }
  tree.build();
  job.shuffle_done(attempt);

  // Without overlap the batches are held back until every driver is done;
  // Hadoop-A always overlaps.
  mapred::KvBatcher batcher(job, host, sink,
                            !hadoop_a && !job.conf.overlap_reduce);
  while (!tree.empty()) {
    if (cancelled()) break;
    const size_t s = tree.winner();
    MergeCursor& cursor = cursors[s];
    // add() copies the record out of the chunk before the head moves
    // on, which may release the chunk.
    if (batcher.add(cursor.head)) co_await batcher.flush();

    if (cursor.records.next_view(&cursor.head)) {
      tree.set(s, cursor.head.key);
    } else if (co_await advance_chunk(s)) {
      tree.set(s, cursor.head.key);
    } else {
      tree.set_exhausted(s);
    }
    tree.replay();
  }
  if (cancelled()) {
    // Cancellation drain: every stream must be received to completion so
    // parked drivers can finish (Channel::close requires no parked
    // senders) and every chunk's shuffle-memory charge is released.
    for (size_t s = 0; s < streams.size(); ++s) {
      MergeCursor& cursor = cursors[s];
      if (cursor.mem_charge != 0) {
        state->mem.release(std::int64_t(cursor.mem_charge));
        cursor.mem_charge = 0;
      }
      while (true) {
        if (streams[s]->chunks.empty()) {
          streams[s]->urgent = true;
          streams[s]->demand.set();
          streams[s]->demand.reset();
        }
        auto chunk = co_await streams[s]->chunks.recv();
        if (!chunk) break;
        if (chunk->mem_charge != 0) {
          state->mem.release(std::int64_t(chunk->mem_charge));
        }
      }
    }
  } else {
    co_await batcher.flush();
  }
  co_await state->drivers.wait();
  // Every driver is done: the streams go now, not with the last holder
  // of the copier state (a router, or the kill watcher).
  streams.clear();
  if (!cancelled()) co_await batcher.send_held();
  sink.close();

  // Orderly close: tells every TaskTracker this reducer is done; the
  // endpoints themselves stay alive (owned by the engine) until stop().
  for (auto& [_, endpoint] : state->conns) endpoint->close();
}

sim::Task<> RdmaShuffleEngine::stop(JobRuntime& job) {
  for (auto& [_, service] : services_) {
    service->listener->close();
    service->request_queue.close();
    if (service->prefetch) service->prefetch->queue.close();
  }
  co_await daemons_->wait();
  // Each tracker's cache counted its own events. They are this job's
  // cache.* counters (JobRuntime::counter also adds them to the engine
  // totals); the used-bytes gauge takes each cache's peak, so its
  // high-water mark is the fullest tracker's.
  for (auto& [_, service] : services_) {
    if (!service->prefetch) continue;
    const dataplane::CacheStats& stats = service->prefetch->cache.stats();
    job.counter("cache.hits").add(std::int64_t(stats.hits));
    job.counter("cache.misses").add(std::int64_t(stats.misses));
    job.counter("cache.insertions").add(std::int64_t(stats.insertions));
    job.counter("cache.evictions").add(std::int64_t(stats.evictions));
    job.counter("cache.rejected").add(std::int64_t(stats.rejected));
    job.engine.metrics().gauge("cache.used_bytes").set(
        double(stats.peak_bytes));
  }
}

}  // namespace hmr::rdmashuffle
