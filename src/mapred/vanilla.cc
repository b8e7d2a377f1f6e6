#include "mapred/vanilla.h"

#include <algorithm>

#include "dataplane/merger.h"
#include "mapred/integrity.h"
#include "sim/trace.h"

namespace hmr::mapred {
namespace {

constexpr std::uint64_t kTagRequest = 1;
constexpr std::uint64_t kTagResponse = 2;
constexpr std::uint64_t kRequestWireBytes = 150;  // HTTP GET + headers
// Per-fetch HTTP response header overhead (part of what RDMA
// eliminates, §II).
constexpr std::uint64_t kHttpOverheadBytes = 300;
// Concurrent fetch threads per reduce task (Hadoop's
// mapred.reduce.parallel.copies default).
constexpr int kParallelCopies = 5;
// Responses echo {map_id, reduce_id, body_crc} ahead of the body: the
// ids let copiers match responses to requests and discard stale
// duplicates of timed-out fetches (stall faults can answer a request
// long after its retry); the CRC-32C carries the spill-time checksum
// end-to-end so the copier verifies what the mapper wrote.
constexpr std::uint64_t kResponsePrefixBytes = 12;

// The k-way merge of sorted sources, serialized as one run. Merging
// re-encodes every record byte for byte, so the run is exactly
// `run_bytes`, the sources' summed sizes, and is allocated once.
std::shared_ptr<const Bytes> merge_to_run(
    std::vector<std::unique_ptr<dataplane::KvSource>> sources,
    std::uint64_t run_bytes) {
  dataplane::StreamMerger merger(std::move(sources));
  ByteWriter writer;
  writer.reserve(run_bytes);
  dataplane::KvView record;
  while (merger.next_view(&record)) dataplane::encode_kv(record, writer);
  HMR_CHECK(writer.size() == run_bytes);
  return std::make_shared<const Bytes>(writer.take());
}

}  // namespace

net::Message ServletRequest::frame() const {
  ByteWriter w;
  w.put_u32(std::uint32_t(map_id));
  w.put_u32(std::uint32_t(reduce_id));
  return net::Message::data(w.take(), 1.0, kTagRequest)
      .with_modeled(kRequestWireBytes);
}

Result<ServletRequest> ServletRequest::from_frame(const net::Message& msg) {
  if (msg.tag != kTagRequest || msg.payload == nullptr) {
    return Status::InvalidArgument("not a shuffle request frame");
  }
  ByteReader r(*msg.payload);
  const auto map_id = r.u32();
  if (!map_id.ok()) return map_id.status();
  const auto reduce_id = r.u32();
  if (!reduce_id.ok()) return reduce_id.status();
  if (!r.at_end()) {
    return Status::InvalidArgument("trailing bytes after shuffle request");
  }
  return ServletRequest{int(*map_id), int(*reduce_id)};
}

// Per-reduce shuffle state shared by the copier pool.
struct VanillaShuffleEngine::ReduceShuffleState {
  ReduceShuffleState(JobRuntime& job, int reduce_id, Host& host)
      : engine(job.engine),
        reduce_id(reduce_id),
        host(host),
        ready(job.engine, std::max<size_t>(1, job.maps.size())),
        merge_lock(job.engine, 1, "inmem.merge"),
        dial_lock(job.engine, 1, "copier.dial"),
        budget(job.conf.shuffle_buffer_bytes),
        timeouts(std::make_shared<FetchTimeouts>(
            job.engine, job.conf.retry.fetch_timeout)) {}

  sim::Engine& engine;
  int reduce_id;
  Host& host;
  // The reduce attempt this shuffle serves (nullable). When its kill is
  // requested, copiers stop issuing fetches, merges are skipped, and the
  // engine unwinds straight to cleanup.
  TaskAttempt* attempt = nullptr;
  bool cancelled() const {
    return attempt != nullptr && attempt->kill_requested;
  }
  sim::Channel<int> ready;  // map ids in completion order

  // One keep-alive connection per tracker host. Shared-owned: the pump
  // coroutine and entries of `timeouts` may outlive the reducer's fetch
  // phase. `lock` serializes request/response exchange — HTTP
  // keep-alive connections are not multiplexed — so only the lock
  // holder ever reads `watch.events`.
  struct ConnState {
    explicit ConnState(sim::Engine& engine)
        : watch(engine, 64), lock(engine, 1, "copier.conn") {}
    std::unique_ptr<net::Socket> sock;
    FetchWatch watch;  // responses + timeout expiries
    sim::Resource lock;
  };
  std::map<int, std::shared_ptr<ConnState>> conns;  // by host id

  sim::Resource merge_lock;
  // Serializes connection setup per tracker host.
  sim::Resource dial_lock;

  std::uint64_t budget;
  std::shared_ptr<FetchTimeouts> timeouts;  // shared by all connections
  std::uint64_t in_mem_modeled = 0;
  std::vector<Segment> in_mem;
  std::vector<Segment> on_disk;
  int spill_seq = 0;

  // Writes `run` verified to this reduce's next shuffle file of `kind`
  // ("spill", "big" or "pass") and returns its path; a failed write
  // aborts, naming the `what` spill.
  sim::Task<std::string> write_spill(JobRuntime& job, const char* kind,
                                     std::shared_ptr<const Bytes> run,
                                     const char* what) {
    const std::string path = "shuffle/" + job.spec.name + "/r" +
                             std::to_string(reduce_id) + "/" + kind +
                             std::to_string(spill_seq++);
    const Status written = co_await write_file_verified(
        job, host, path, std::move(run), job.data_scale);
    HMR_CHECK_MSG(written.ok(),
                  std::string(what) + " spill failed: " + written.to_string());
    co_return path;
  }

  // The spill step of in-memory merges and merge passes: after a kernel
  // yield (DESIGN.md §6.3), merges `sources` (`run_bytes` serialized,
  // `modeled` modeled) into one run, traces it as `<label>_r<id>`,
  // charges the merge CPU and writes the run to the next `kind` file.
  sim::Task<std::string> merge_and_spill(
      JobRuntime& job,
      std::vector<std::unique_ptr<dataplane::KvSource>> sources,
      std::uint64_t run_bytes, std::uint64_t modeled, const char* label,
      const char* kind, const char* what) {
    co_await job.engine.delay(0);
    auto merged = merge_to_run(std::move(sources), run_bytes);
    if (auto* t = job.engine.tracer()) {
      t->instant(host.name(), "merge",
                 std::string(label) + "_r" + std::to_string(reduce_id));
    }
    co_await job.charge_cpu(host, modeled, CostModel::kMergeCpuBw);
    co_return co_await write_spill(job, kind, std::move(merged), what);
  }
};

sim::Task<> VanillaShuffleEngine::start(JobRuntime& job) {
  fetch_rtt_ = &job.engine.metrics().latency_histogram("vanilla.fetch.rtt");
  daemons_ = std::make_unique<sim::WaitGroup>(job.engine);
  for (auto& tracker : job.trackers) {
    const int host_id = tracker->host->id();
    auto listener =
        std::make_unique<net::Listener>(job.network, *tracker->host);
    daemons_->add();
    job.engine.spawn(servlet_accept_loop(job, *listener, host_id));
    listeners_.emplace(host_id, std::move(listener));
  }
  co_return;
}

sim::Task<> VanillaShuffleEngine::stop(JobRuntime& job) {
  (void)job;
  for (auto& [_, listener] : listeners_) listener->close();
  co_await daemons_->wait();
}

sim::Task<> VanillaShuffleEngine::servlet_accept_loop(JobRuntime& job,
                                                      net::Listener& listener,
                                                      int host_id) {
  while (auto sock = co_await listener.accept()) {
    daemons_->add();
    job.engine.spawn(servlet_conn_loop(job, std::move(sock), host_id));
  }
  daemons_->done();
}

sim::Task<> VanillaShuffleEngine::servlet_conn_loop(
    JobRuntime& job, std::unique_ptr<net::Socket> sock, int host_id) {
  TaskTrackerState& tracker = job.tracker_for_host(host_id);
  while (auto request = co_await sock->recv()) {
    const auto decoded = ServletRequest::from_frame(*request);
    if (!decoded.ok()) {
      // Malformed frame: drop it rather than crash the servlet; the
      // copier's fetch timeout re-issues the request.
      job.metric.malformed_msgs.add();
      continue;
    }
    const auto [map_id, reduce_id] = *decoded;
    if (job.spec.faults != nullptr) {
      const bool dropped = co_await job.drop_or_stall_response(host_id);
      if (dropped) continue;
    }
    const MapOutputInfo* found = tracker.find_output(
        std::uint32_t(job.job_id), std::uint32_t(map_id));
    if (found == nullptr || std::uint32_t(reduce_id) >=
                                found->output->index.size()) {
      // Names no partition this tracker serves: a corrupt request,
      // dropped like a malformed frame.
      job.metric.malformed_msgs.add();
      continue;
    }
    const MapOutputInfo& info = *found;
    const auto& entry = info.output->index[size_t(reduce_id)];

    // The servlet reads the partition from local disk for every request —
    // this is the I/O the paper's PrefetchCache removes in the RDMA design.
    auto view = co_await read_range_verified(job, *tracker.host,
                                             info.local_path, entry.offset,
                                             entry.length);
    if (!view.ok()) {
      // The on-disk map output is unreadable past bounded recovery.
      // Drop the request: the copier's fetch times out, blacklists
      // this tracker, and re-executes the map (mapred/recovery.h).
      job.metric.mapout_unserved.add();
      continue;
    }

    auto slice = info.output->partition_bytes(reduce_id);
    // The servlet always sends the whole partition, so it sends the
    // checksum MapOutputBuilder::build computed over it. The kernel
    // yield stays to keep event order (DESIGN.md §6.3).
    co_await job.engine.delay(0);
    ByteWriter prefix;
    prefix.put_u32(std::uint32_t(map_id));
    prefix.put_u32(std::uint32_t(reduce_id));
    prefix.put_u32(entry.crc);
    Bytes body = prefix.take();
    body.insert(body.end(), slice.begin(), slice.end());
    const auto modeled = info.modeled_partition_bytes(reduce_id);
    net::Message response = net::Message::data(std::move(body), 1.0,
                                               kTagResponse);
    response.modeled_bytes = modeled + kHttpOverheadBytes;
    co_await sock->send(std::move(response));
  }
  daemons_->done();
}

sim::Task<> VanillaShuffleEngine::in_memory_merge(JobRuntime& job,
                                                  ReduceShuffleState& state) {
  auto lock = co_await sim::hold(state.merge_lock);
  if (state.in_mem.empty()) co_return;
  std::vector<Segment> segments = std::move(state.in_mem);
  state.in_mem.clear();
  std::uint64_t modeled = state.in_mem_modeled;
  state.in_mem_modeled = 0;

  // Merge in memory, then spill the merged run to local disk.
  std::vector<std::unique_ptr<dataplane::KvSource>> sources;
  std::uint64_t run_bytes = 0;
  for (auto& segment : segments) {
    sources.push_back(std::make_unique<dataplane::SegmentReader>(
        segment.data, segment.records));
    run_bytes += segment.records.size();
  }
  std::string path =
      co_await state.merge_and_spill(job, std::move(sources), run_bytes,
                                     modeled, "in_mem_merge", "spill",
                                     "reduce-side");
  state.on_disk.push_back(Segment{nullptr, std::move(path), modeled, {}});
}

sim::Task<> VanillaShuffleEngine::copier_loop(JobRuntime& job,
                                              ReduceShuffleState& state,
                                              int copier_id) {
  auto rng = job.engine.make_rng("vanilla.retry.r" +
                                 std::to_string(state.reduce_id) + ".c" +
                                 std::to_string(copier_id));
  while (auto map_id = co_await state.ready.recv()) {
    // A killed attempt drains the ready channel without fetching, so the
    // completion fetcher and sibling copiers wind down normally.
    if (state.cancelled()) continue;
    co_await fetch_one(job, state, *map_id, rng);
  }
}

sim::Task<> VanillaShuffleEngine::fetch_one(JobRuntime& job,
                                            ReduceShuffleState& state,
                                            int map_id, Rng& rng) {
  using ConnState = ReduceShuffleState::ConnState;
  if (job.tracker_blacklisted(job.maps.at(map_id).ran_on)) {
    // The serving tracker was blacklisted before this fetch started:
    // wait for (or trigger) re-execution on a healthy tracker.
    co_await job.ensure_fetchable(map_id);
  }
  int attempt = 0;
  bool refetching = false;
  while (true) {
    // Abandon between exchanges once the reduce attempt is killed; an
    // in-flight request/response is bounded by its fetch timeout, so the
    // loser never parks past one timeout here.
    if (state.cancelled()) co_return;
    const int server_host = job.maps.at(map_id).ran_on;

    // Dial once per tracker; the pump turns socket deliveries into fetch
    // events so a fetch timeout can race them.
    std::shared_ptr<ConnState> conn;
    {
      auto dialing = co_await sim::hold(state.dial_lock);
      auto it = state.conns.find(server_host);
      if (it != state.conns.end()) {
        conn = it->second;
      } else {
        auto fresh = std::make_shared<ConnState>(state.engine);
        fresh->sock = co_await net::connect(job.network, state.host,
                                            *listeners_.at(server_host));
        job.engine.spawn([](std::shared_ptr<ConnState> conn) -> sim::Task<> {
          while (auto msg = co_await conn->sock->recv()) {
            FetchEvent event;
            event.msg = std::move(*msg);
            // Sized so delivery never parks the pump: one outstanding
            // request per connection plus bounded stale duplicates.
            (void)conn->watch.events.try_send(std::move(event));
          }
        }(fresh));
        state.conns.emplace(server_host, fresh);
        conn = std::move(fresh);
      }
    }

    // One request/response in flight per connection: only the lock
    // holder reads the event channel.
    auto exchange = co_await sim::hold(conn->lock);
    const double sent_at = job.engine.now();
    FetchTransport transport;
    transport.send = [&] {
      return conn->sock->send(ServletRequest{map_id, state.reduce_id}.frame());
    };
    transport.classify = [&](const net::Message& msg) -> FetchVerdict {
      if (msg.tag != kTagResponse || msg.payload == nullptr) return {};
      ByteReader r(*msg.payload);
      const auto got_map = r.u32();
      const auto got_reduce = r.u32();
      if (!got_map.ok() || !got_reduce.ok()) return {};  // malformed
      if (int(*got_map) != map_id || int(*got_reduce) != state.reduce_id) {
        return {FetchVerdict::kStale};
      }
      const auto body_crc = r.u32();
      if (!body_crc.ok()) return {};
      // Verified over the whole response, HTTP overhead included.
      return {FetchVerdict::kMine, true,
              std::span(*msg.payload).subspan(kResponsePrefixBytes),
              *body_crc, msg.modeled_bytes};
    };
    std::optional<net::Message> response = co_await fetch_exchange(
        job, state.host, map_id, *state.timeouts,
        std::shared_ptr<FetchWatch>(conn, &conn->watch), transport);
    exchange.release();

    if (!response.has_value()) {
      ++attempt;
      refetching |= co_await job.recover_fetch_timeout(
          state.host, map_id, server_host, attempt, rng);
      continue;
    }

    job.report_fetch_success(server_host);
    fetch_rtt_->record(job.engine.now() - sent_at);
    const std::uint64_t modeled = response->modeled_bytes;
    job.result.shuffled_modeled_bytes += modeled;
    if (refetching) job.metric.refetch_bytes.add(std::int64_t(modeled));
    Segment segment;
    // Past the {map_id, reduce_id, crc} match prefix: merge sources must
    // see clean kv data.
    segment.data = response->payload;
    segment.records = std::span(*segment.data).subspan(kResponsePrefixBytes);
    segment.modeled = modeled;

    if (modeled > state.budget / 4) {
      // Too big for the in-memory buffer: straight to disk (Copier
      // behaviour for oversized map outputs).
      auto body = std::make_shared<const Bytes>(segment.records.begin(),
                                                segment.records.end());
      segment.disk_path = co_await state.write_spill(
          job, "big", std::move(body), "oversized-segment");
      segment.data = nullptr;
      segment.records = {};
      state.on_disk.push_back(std::move(segment));
      co_return;
    }

    state.in_mem.push_back(std::move(segment));
    state.in_mem_modeled += modeled;
    if (state.in_mem_modeled > (state.budget * 2) / 3) {
      co_await in_memory_merge(job, state);
    }
    co_return;
  }
}

sim::Task<> VanillaShuffleEngine::fetch_and_merge(JobRuntime& job,
                                                  int reduce_id, Host& host,
                                                  KvSink& sink,
                                                  TaskAttempt* attempt) {
  ReduceShuffleState state(job, reduce_id, host);
  state.attempt = attempt;

  // Kill watcher: a killed attempt's completion fetcher may be parked on
  // completion_pulse with no map about to finish, so pulse it awake (a
  // spurious pulse is benign — every waiter re-checks its own state).
  // The watcher always completes: `wake` is also set on the terminal
  // transition, and it touches only job-level state.
  if (attempt != nullptr) {
    job.engine.spawn([](JobRuntime& job, TaskAttempt& attempt) -> sim::Task<> {
      co_await attempt.wake.wait();
      if (attempt.kill_requested) {
        job.completion_pulse.set();
        job.completion_pulse.reset();
      }
    }(job, *attempt));
  }

  // Map Completion Fetcher: feed map ids to the copiers in completion
  // order. `ready` is sized for every map, so send never parks; on a
  // kill the fetcher exits at the next pulse (the watcher guarantees
  // one) or when the last map completes.
  sim::WaitGroup fetch_done(job.engine);
  fetch_done.add();
  job.engine.spawn([](JobRuntime& job, ReduceShuffleState& state,
                      sim::WaitGroup& done) -> sim::Task<> {
    size_t seen = 0;
    while (seen < job.maps.size() && !state.cancelled()) {
      while (seen < job.completion_log.size()) {
        co_await state.ready.send(int(job.completion_log[seen++]));
      }
      if (seen < job.maps.size()) co_await job.completion_pulse.wait();
    }
    state.ready.close();
    done.done();
  }(job, state, fetch_done));

  sim::WaitGroup copiers(job.engine);
  for (int c = 0; c < kParallelCopies; ++c) {
    copiers.add();
    job.engine.spawn([](VanillaShuffleEngine& self, JobRuntime& job,
                        ReduceShuffleState& state, int copier_id,
                        sim::WaitGroup& done) -> sim::Task<> {
      co_await self.copier_loop(job, state, copier_id);
      done.done();
    }(*this, job, state, c, copiers));
  }
  co_await fetch_done.wait();
  co_await copiers.wait();
  // A speculation loser may unwind its fetches after the job's last
  // reduce committed (the commit and the kill request are issued without
  // suspension, so kill_requested is an exact "past finish_time" test);
  // its bookkeeping must not push shuffle_done_time past finish_time.
  if (attempt == nullptr || !attempt->kill_requested) {
    job.result.shuffle_done_time = job.engine.now();
  }

  // --- merge phase: reduce starts only after this setup completes ------
  // Local-FS merge passes keep at most io.sort.factor disk segments.
  // A killed attempt skips the merges entirely and falls through to
  // cleanup (spill removal, connection close, sink close).
  // JobConf keeps the factor >= 2, so every pass shrinks the list.
  const int factor = job.conf.io_sort_factor;
  while (!state.cancelled() && int(state.on_disk.size()) > factor) {
    std::vector<Segment> group(state.on_disk.begin(),
                               state.on_disk.begin() + factor);
    state.on_disk.erase(state.on_disk.begin(),
                        state.on_disk.begin() + factor);
    std::vector<std::unique_ptr<dataplane::KvSource>> sources;
    std::uint64_t modeled = 0;
    std::uint64_t run_bytes = 0;
    for (const auto& segment : group) {
      // Spills were write-verified at creation; this absorbs injected
      // transient read errors on the way back into the merge.
      auto view = co_await read_file_verified(job, host, segment.disk_path);
      HMR_CHECK_MSG(view.ok(), "merge-pass read failed: " +
                                   view.status().to_string());
      run_bytes += view->real_size();
      sources.push_back(std::make_unique<dataplane::SegmentReader>(view->data));
      modeled += segment.modeled;
    }
    std::string path =
        co_await state.merge_and_spill(job, std::move(sources), run_bytes,
                                       modeled, "merge_pass", "pass",
                                       "merge-pass");
    for (const auto& segment : group) {
      HMR_CHECK(host.fs().remove(segment.disk_path).ok());
    }
    state.on_disk.push_back(Segment{nullptr, std::move(path), modeled, {}});
  }

  // Final merge: disk segments (read back) + memory remainder, streamed
  // into the reduce sink. A killed attempt feeds the merger nothing.
  std::vector<std::unique_ptr<dataplane::KvSource>> sources;
  if (!state.cancelled()) {
    for (const auto& segment : state.on_disk) {
      auto view = co_await read_file_verified(job, host, segment.disk_path);
      HMR_CHECK_MSG(view.ok(), "final-merge read failed: " +
                                   view.status().to_string());
      sources.push_back(std::make_unique<dataplane::SegmentReader>(view->data));
    }
    for (const auto& segment : state.in_mem) {
      sources.push_back(std::make_unique<dataplane::SegmentReader>(
          segment.data, segment.records));
    }
  }
  dataplane::StreamMerger merger(std::move(sources));

  KvBatcher batcher(job, host, sink);
  dataplane::KvView record;
  while (!state.cancelled() && merger.next_view(&record)) {
    if (batcher.add(record)) co_await batcher.flush();
  }
  if (!state.cancelled()) co_await batcher.flush();

  // Clean up shuffle spill files and close connections. Closing our
  // outgoing half makes the servlet exit; its socket teardown then ends
  // the pump for this connection.
  for (const auto& segment : state.on_disk) {
    // lint:ignore(status-discipline): best-effort spill cleanup; a re-fetched segment may already be gone
    (void)host.fs().remove(segment.disk_path);
  }
  for (auto& [_, conn] : state.conns) conn->sock->close();
  sink.close();
}

}  // namespace hmr::mapred
