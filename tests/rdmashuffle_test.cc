// Unit tests for the RDMA shuffle engine's wire protocol and Hadoop-A's
// fixed design choices, plus targeted behaviour checks that the
// integration suite (engines_test.cc) doesn't isolate.
#include <gtest/gtest.h>

#include "common/units.h"
#include "mapred/types.h"
#include "rdmashuffle/engine.h"
#include "rdmashuffle/protocol.h"
#include "sim/fault.h"
#include "workloads/datagen.h"
#include "workloads/experiment.h"
#include "workloads/jobs.h"
#include "workloads/report.h"
#include "workloads/testbed.h"

namespace hmr::rdmashuffle {
namespace {

// ---------------------------------------------------------------- protocol

TEST(ProtocolTest, DataRequestRoundTrip) {
  DataRequest req;
  req.job_id = 3;
  req.map_id = 123;
  req.reduce_id = 45;
  req.cursor_real = 1'000'000;
  req.max_pairs = 1024;
  req.max_real_bytes = 65536;
  const auto decoded = DataRequest::decode(req.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->job_id, req.job_id);
  EXPECT_EQ(decoded->map_id, req.map_id);
  EXPECT_EQ(decoded->reduce_id, req.reduce_id);
  EXPECT_EQ(decoded->cursor_real, req.cursor_real);
  EXPECT_EQ(decoded->max_pairs, req.max_pairs);
  EXPECT_EQ(decoded->max_real_bytes, req.max_real_bytes);
}

TEST(ProtocolTest, DataResponseHeaderRoundTrip) {
  DataResponse resp;
  resp.job_id = 1;
  resp.map_id = 7;
  resp.reduce_id = 9;
  resp.cursor_real = 987654;
  resp.n_pairs = 333;
  resp.chunk_real_bytes = 44444;
  resp.eof = true;
  Bytes wire = resp.encode_header();
  // Responses carry the records after the header; make sure the decoder
  // leaves the reader positioned at them.
  wire.push_back(0xEE);
  ByteReader reader(wire);
  const auto decoded = DataResponse::decode_header(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->map_id, 7u);
  // The cursor echo is what lets a copier discard stale duplicates of
  // timed-out requests.
  EXPECT_EQ(decoded->cursor_real, 987654u);
  EXPECT_EQ(decoded->n_pairs, 333u);
  EXPECT_EQ(decoded->chunk_real_bytes, 44444u);
  EXPECT_TRUE(decoded->eof);
  EXPECT_EQ(reader.remaining(), 1u);
}

// Fuzz-shaped hardening checks: every truncation of a valid frame must
// come back as an error — never a crash — and never as a bogus value.

TEST(ProtocolTest, DataRequestDecodeRejectsEveryTruncation) {
  DataRequest req;
  req.job_id = 3;
  req.map_id = 123;
  req.reduce_id = 45;
  req.cursor_real = 1'000'000;
  req.max_pairs = 1024;
  req.max_real_bytes = 65536;
  const Bytes wire = req.encode();
  for (size_t len = 0; len < wire.size(); ++len) {
    const Bytes prefix(wire.begin(), wire.begin() + len);
    const auto decoded = DataRequest::decode(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is just as malformed as truncation.
  Bytes padded = wire;
  padded.push_back(0xAB);
  EXPECT_FALSE(DataRequest::decode(padded).ok());
}

TEST(ProtocolTest, DataResponseHeaderDecodeRejectsEveryTruncation) {
  DataResponse resp;
  resp.job_id = 1;
  resp.map_id = 7;
  resp.reduce_id = 9;
  resp.cursor_real = 987654;
  resp.n_pairs = 333;
  resp.chunk_real_bytes = 44444;
  resp.eof = true;
  const Bytes wire = resp.encode_header();
  for (size_t len = 0; len < wire.size(); ++len) {
    const Bytes prefix(wire.begin(), wire.begin() + len);
    ByteReader reader(prefix);
    const auto decoded = DataResponse::decode_header(reader);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(ProtocolTest, DecodeSurvivesGarbageBytes) {
  // Deterministic pseudo-garbage across a spread of lengths: decode must
  // always return (ok or error), never abort.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t len : {0u, 1u, 7u, 35u, 36u, 37u, 64u, 200u}) {
    Bytes noise(len);
    for (auto& b : noise) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = std::uint8_t(x);
    }
    // lint:ignore(status-discipline): decoding noise must not crash; the error Result is the point
    (void)DataRequest::decode(noise);
    ByteReader reader(noise);
    // lint:ignore(status-discipline): decoding noise must not crash; the error Result is the point
    (void)DataResponse::decode_header(reader);
  }
}

TEST(ProtocolTest, PeekMapIdAgreesWithFullDecode) {
  // The response router reads only map_id; it must drop exactly the
  // frames the full header decode rejects, and read the same map_id.
  DataResponse resp;
  resp.job_id = 2;
  resp.map_id = 0xA1B2C3D4;
  resp.reduce_id = 5;
  resp.chunk_real_bytes = 3;
  Bytes wire = resp.encode_header();
  EXPECT_EQ(wire.size(), DataResponse::kEncodedHeaderBytes);
  EXPECT_EQ(DataRequest{}.encode().size(), DataRequest::kEncodedBytes);
  for (size_t len = 0; len <= wire.size(); ++len) {
    const Bytes prefix(wire.begin(), wire.begin() + len);
    ByteReader reader(prefix);
    const auto decoded = DataResponse::decode_header(reader);
    const auto peeked = DataResponse::peek_map_id(prefix);
    ASSERT_EQ(peeked.ok(), decoded.ok()) << "prefix of " << len << " bytes";
    if (decoded.ok()) {
      EXPECT_EQ(*peeked, decoded->map_id);
    }
  }
  wire.insert(wire.end(), {1, 2, 3});
  const auto peeked = DataResponse::peek_map_id(wire);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, 0xA1B2C3D4u);
}

TEST(ProtocolTest, RequestFrameRejectsWrongTagOrMissingPayload) {
  // The receiver's one check of a frame: anything but a request-tagged
  // frame whose payload decodes is malformed, dropped and counted,
  // never an abort.
  DataRequest req;
  req.job_id = 1;
  req.map_id = 4;
  req.reduce_id = 2;
  const auto decoded = DataRequest::from_frame(
      net::Message::data(req.encode(), 1.0, kTagDataRequest));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->map_id, 4u);
  EXPECT_EQ(decoded->reduce_id, 2u);

  EXPECT_FALSE(DataRequest::from_frame(
                   net::Message::data(req.encode(), 1.0, kTagDataResponse))
                   .ok());
  EXPECT_FALSE(
      DataRequest::from_frame(net::Message::control(kTagDataRequest, 64))
          .ok());
  Bytes truncated = req.encode();
  truncated.pop_back();
  EXPECT_FALSE(DataRequest::from_frame(
                   net::Message::data(truncated, 1.0, kTagDataRequest))
                   .ok());
}

// ------------------------------------------------------------------ router

net::Message response_frame(std::uint32_t map_id) {
  DataResponse resp;
  resp.map_id = map_id;
  return net::Message::data(resp.encode_header(), 1.0, kTagDataResponse);
}

TEST(RouterTest, RoutesByMapIdAndDropsStaleOrMalformed) {
  sim::Engine engine;
  mapred::FetchWatch watch0(engine, 4);
  mapred::FetchWatch watch2(engine, 4);
  // Map 1 has no stream fetching it (finished, or not started).
  const std::vector<mapred::FetchWatch*> routes{&watch0, nullptr, &watch2};

  EXPECT_EQ(route_response(routes, response_frame(2)), RouteVerdict::kRouted);
  EXPECT_EQ(watch2.events.size(), 1u);
  EXPECT_TRUE(watch0.events.empty());
  EXPECT_EQ(route_response(routes, response_frame(0)), RouteVerdict::kRouted);
  EXPECT_EQ(watch0.events.size(), 1u);

  // Unrouted, and past the job's map count (a corrupt id off the wire):
  // both are stale drops that never index `routes`.
  EXPECT_EQ(route_response(routes, response_frame(1)), RouteVerdict::kStale);
  EXPECT_EQ(route_response(routes, response_frame(3)), RouteVerdict::kStale);
  EXPECT_EQ(route_response(routes, response_frame(0xffffffffu)),
            RouteVerdict::kStale);

  // Not a response, no payload, or too short to carry a map id.
  EXPECT_EQ(route_response(routes, net::Message::data(
                                       DataRequest{}.encode(), 1.0,
                                       kTagDataRequest)),
            RouteVerdict::kMalformed);
  EXPECT_EQ(route_response(routes,
                           net::Message::control(kTagDataResponse, 64)),
            RouteVerdict::kMalformed);
  EXPECT_EQ(route_response(routes, net::Message::data(Bytes{0, 0, 0}, 1.0,
                                                      kTagDataResponse)),
            RouteVerdict::kMalformed);

  // Nothing dropped reached a stream.
  EXPECT_EQ(watch0.events.size(), 1u);
  EXPECT_EQ(watch2.events.size(), 1u);
}

TEST(ProtocolTest, WireSizesAreSmall) {
  // The paper stresses light-weight control messages.
  EXPECT_LE(DataRequest{}.encode().size(), kRequestWireBytes);
  EXPECT_LE(DataResponse{}.encode_header().size(), kResponseHeaderBytes);
}

// ----------------------------------------------------------------- options
// Hadoop-A's fixed design choices, checked on running jobs; the OSU-IB
// tunables are covered by EngineBehaviourTest (engines_test.cc).

workloads::RunConfig tiny(workloads::EngineSetup setup) {
  workloads::RunConfig config;
  config.setup = std::move(setup);
  config.workload = "terasort";
  config.sort_modeled_bytes = 512 * kMiB;
  config.nodes = 3;
  config.block_size = 32 * kMiB;
  config.target_real_bytes = 2 * kMiB;
  return config;
}

TEST(OptionsTest, HadoopAIgnoresPacketBytesAndOverlap) {
  // Its kv count is the only packet control, and its reduce always
  // overlaps the merge: both keys leave the job unchanged.
  auto tuned = tiny(workloads::EngineSetup::hadoop_a());
  tuned.setup.extra.set_bytes(mapred::kRdmaPacketBytes, 64 * 1024);
  tuned.setup.extra.set_bool(mapred::kOverlapReduce, false);
  const auto base = workloads::run_experiment(
      tiny(workloads::EngineSetup::hadoop_a()));
  const auto outcome = workloads::run_experiment(tuned);
  EXPECT_TRUE(outcome.validated);
  EXPECT_EQ(outcome.seconds(), base.seconds());
  EXPECT_EQ(outcome.job.shuffled_modeled_bytes,
            base.job.shuffled_modeled_bytes);
  EXPECT_EQ(outcome.job.counter("shuffle.fetch.requests"),
            base.job.counter("shuffle.fetch.requests"));
}

TEST(OptionsTest, HadoopAKvCountTunable) {
  auto wide = tiny(workloads::EngineSetup::hadoop_a());
  wide.setup.extra.set_int(mapred::kRdmaKvPerPacket, 4096);
  const auto base = workloads::run_experiment(
      tiny(workloads::EngineSetup::hadoop_a()));  // 1024 pairs per packet
  const auto outcome = workloads::run_experiment(wide);
  EXPECT_TRUE(outcome.validated);
  EXPECT_LT(outcome.job.counter("shuffle.fetch.requests"),
            base.job.counter("shuffle.fetch.requests"));
}

// -------------------------------------------------- engine behaviour

TEST(RdmaEngineTest, SmallPacketsMeanMoreRequestsNotLoss) {
  auto small = tiny(workloads::EngineSetup::osu_ib());
  small.setup.extra.set_bytes(mapred::kRdmaPacketBytes, 32 * 1024);
  auto big = tiny(workloads::EngineSetup::osu_ib());
  big.setup.extra.set_bytes(mapred::kRdmaPacketBytes, 16 * kMiB);
  const auto small_run = workloads::run_experiment(small);
  const auto big_run = workloads::run_experiment(big);
  EXPECT_TRUE(small_run.validated);
  EXPECT_TRUE(big_run.validated);
  // Same payload either way.
  EXPECT_NEAR(double(small_run.job.shuffled_modeled_bytes),
              double(big_run.job.shuffled_modeled_bytes),
              double(big_run.job.shuffled_modeled_bytes) * 0.01);
}

TEST(RdmaEngineTest, SingleResponderStillCorrect) {
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.setup.extra.set_int(mapred::kResponderThreads, 1);
  EXPECT_TRUE(workloads::run_experiment(config).validated);
}

TEST(RdmaEngineTest, TinyCacheDegradesToMisses) {
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.setup.extra.set("mapred.local.caching.bytes", "1MB");
  const auto outcome = workloads::run_experiment(config);
  EXPECT_TRUE(outcome.validated);
  // Map outputs (~170 MB modeled each tracker) dwarf a 1 MB cache: most
  // requests must miss, yet the job still completes correctly.
  EXPECT_GT(outcome.job.counter("cache.misses"),
            outcome.job.counter("cache.hits"));
}

TEST(RdmaEngineTest, TightShuffleMemoryStillCompletes) {
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.setup.extra.set("mapred.job.shuffle.input.buffer.bytes", "8MB");
  EXPECT_TRUE(workloads::run_experiment(config).validated);
}

TEST(RdmaEngineTest, HadoopATightMemoryStillCompletes) {
  // The urgency bypass must keep the levitated merge live even when the
  // provisioned buffers dwarf the budget.
  auto config = tiny(workloads::EngineSetup::hadoop_a());
  config.setup.extra.set("mapred.job.shuffle.input.buffer.bytes", "4MB");
  EXPECT_TRUE(workloads::run_experiment(config).validated);
}

TEST(RdmaEngineTest, OverBudgetRefetchesAreCounted) {
  // A 256 KB budget against each design's receive buffers: chunks arrive
  // uncharged and are fetched a second time when the merge demands them.
  // The counts are pinned: each refetch is one more exchange of the
  // per-chunk fetch, and moving that fetch must not change them.
  struct Expected {
    workloads::EngineSetup setup;
    std::int64_t refetches;
    std::int64_t bytes;
    std::int64_t requests;
  };
  for (const Expected& want :
       {Expected{workloads::EngineSetup::osu_ib(), 569, 512004096, 1165},
        Expected{workloads::EngineSetup::hadoop_a(), 4677, 482523648, 9889}}) {
    SCOPED_TRACE(want.setup.label);
    auto config = tiny(want.setup);
    config.setup.extra.set("mapred.job.shuffle.input.buffer.bytes", "256KB");
    const auto outcome = workloads::run_experiment(config);
    EXPECT_TRUE(outcome.validated);
    EXPECT_EQ(outcome.job.counter("shuffle.overbudget.refetches"),
              want.refetches);
    EXPECT_EQ(outcome.job.counter("shuffle.overbudget.bytes"), want.bytes);
    EXPECT_EQ(outcome.job.counter("shuffle.fetch.requests"), want.requests);
  }
}

TEST(RdmaEngineTest, AmpleMemoryHasNoOverBudgetRefetch) {
  for (auto setup : {workloads::EngineSetup::osu_ib(),
                     workloads::EngineSetup::hadoop_a()}) {
    auto config = tiny(setup);
    config.setup.extra.set("mapred.job.shuffle.input.buffer.bytes", "1GB");
    const auto outcome = workloads::run_experiment(config);
    EXPECT_TRUE(outcome.validated);
    EXPECT_EQ(outcome.job.counter("shuffle.overbudget.refetches"), 0);
    EXPECT_EQ(outcome.job.counter("shuffle.overbudget.bytes"), 0);
  }
}

// One tiny TeraSort with `reduces` reduce tasks, while a probe coroutine
// samples Engine::pending_events() every simulated second.
struct PendingProbe {
  mapred::JobResult job;
  std::size_t peak_pending = 0;
};

PendingProbe probe_pending_events(workloads::EngineSetup setup, int reduces) {
  workloads::TestbedSpec bed_spec;
  bed_spec.nodes = 3;
  bed_spec.profile = setup.profile;
  bed_spec.hdfs.block_size = 32 * kMiB;
  workloads::Testbed bed(bed_spec);
  workloads::DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 512 * kMiB;
  gen.part_modeled = 32 * kMiB;
  gen.scale = 256;
  HMR_CHECK(bed.generate("teragen", gen).ok());

  Conf conf = setup.extra;
  conf.set(mapred::kShuffleEngine, setup.engine);
  conf.set_double(mapred::kKvInflation, gen.scale);
  conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * gen.scale));
  conf.set_int(mapred::kNumReduces, reduces);
  mapred::JobSpec job =
      workloads::terasort_job(bed.dfs(), gen.dir, "/out", conf);

  PendingProbe probe;
  bool done = false;
  sim::Engine& engine = bed.engine();
  engine.spawn([](workloads::Testbed& bed, mapred::JobSpec job,
                  PendingProbe& probe, bool& done) -> sim::Task<> {
    probe.job = co_await bed.runner().run(std::move(job));
    done = true;
  }(bed, std::move(job), probe, done));
  engine.spawn([](sim::Engine& engine, const bool& done,
                  PendingProbe& probe) -> sim::Task<> {
    while (!done) {
      probe.peak_pending =
          std::max(probe.peak_pending, engine.pending_events());
      co_await engine.delay(1.0);
    }
  }(engine, done, probe));
  engine.run();
  EXPECT_TRUE(done);
  return probe;
}

// A fetch answered within its timeout must leave no engine event behind:
// each copier (one per reduce task) owns one timeout FIFO with at most
// one pending sleeper event. The rest of the bound is the job's other
// live events (transfers, disk I/O, task loops): 45 at the peak here.
// With one timer event per request, the same jobs peaked at 2,091
// (OSU-IB) and 5,165 (Hadoop-A) pending events, over 10x this bound.
TEST(RdmaShuffleTest, AnsweredFetchesLeaveNoPendingTimers) {
  constexpr int kCopiers = 4;
  constexpr std::size_t kBound = 64 + 16 * kCopiers;
  auto osu = workloads::EngineSetup::osu_ib();
  osu.extra.set_bytes(mapred::kRdmaPacketBytes, 256 * 1024);
  for (const auto& setup : {osu, workloads::EngineSetup::hadoop_a()}) {
    SCOPED_TRACE(setup.engine);
    const PendingProbe probe = probe_pending_events(setup, kCopiers);
    EXPECT_GT(probe.job.counter("shuffle.fetch.requests"),
              std::int64_t(10 * kBound));
    EXPECT_EQ(probe.job.counter("shuffle.fetch.timeouts"), 0);
    EXPECT_LT(probe.peak_pending, kBound);
  }
}

TEST(RdmaEngineTest, CacheHitsDominateWhenCacheFits) {
  auto config = tiny(workloads::EngineSetup::osu_ib());
  const auto outcome = workloads::run_experiment(config);
  EXPECT_GT(outcome.job.counter("cache.hits"),
            outcome.job.counter("cache.misses") * 5);
}

// The engine's tracker daemons left parked once start() has run on a
// two-tracker job: listeners, responders and, for a caching job,
// prefetchers. stop() must release every one of them.
std::int64_t daemons_after_start(RdmaDesign design, bool caching) {
  const auto profile = net::NetProfile::verbs_qdr();
  sim::Engine engine;
  net::Cluster cluster(engine, profile, net::Cluster::uniform(3, 1));
  net::Network network(engine, profile);
  hdfs::MiniDfs dfs(cluster, network, hdfs::HdfsParams{}, 0, {1, 2});
  mapred::TaskTrackerState tracker1(engine, cluster.host(1));
  mapred::TaskTrackerState tracker2(engine, cluster.host(2));
  mapred::JobConf conf;
  conf.num_reduces = 1;
  conf.caching_enabled = caching;
  mapred::JobRuntime job(cluster, network, dfs, mapred::JobSpec{}, conf,
                         {&tracker1, &tracker2}, /*job_id=*/1);
  RdmaShuffleEngine shuffle(design);
  engine.spawn(shuffle.start(job));
  engine.run();
  const std::int64_t parked = engine.live_processes();
  engine.spawn(shuffle.stop(job));
  engine.run();
  EXPECT_EQ(engine.live_processes(), 0);
  return parked;
}

// Looks up what the responder on host 1 serves for `req`, as respond()
// does with a request off the wire.
const mapred::MapOutputInfo* serve(sim::Engine& engine, JobRuntime& job,
                                   const DataRequest& req) {
  const auto decoded = DataRequest::from_frame(
      net::Message::data(req.encode(), 1.0, kTagDataRequest));
  EXPECT_TRUE(decoded.ok());
  const mapred::MapOutputInfo* found = nullptr;
  engine.spawn([](JobRuntime& job, DataRequest req,
                  const mapred::MapOutputInfo*& found) -> sim::Task<> {
    found = co_await job.output_to_serve(1, req.job_id, req.map_id,
                                         req.reduce_id);
  }(job, *decoded, found));
  engine.run();
  return found;
}

TEST(RdmaServeTest, RequestNamingAnotherJobIsDroppedAsMalformed) {
  // A tracker running two jobs serves map 0 of each. The responders of
  // job 1 must serve job 1's output only: a DataRequest naming job 2 is
  // dropped and counted, never served from the other job's output.
  sim::Engine engine;
  const auto profile = net::NetProfile::verbs_qdr();
  net::Cluster cluster(engine, profile, net::Cluster::uniform(2, 1));
  net::Network network(engine, profile);
  hdfs::MiniDfs dfs(cluster, network, hdfs::HdfsParams{}, 0, {1});
  mapred::TaskTrackerState tracker(engine, cluster.host(1));
  mapred::JobConf conf;
  conf.num_reduces = 1;
  JobRuntime job(cluster, network, dfs, mapred::JobSpec{}, conf, {&tracker},
                 /*job_id=*/1);
  for (const std::uint32_t job_id : {1u, 2u}) {
    mapred::MapOutputInfo info;
    info.map_id = 0;
    info.host_id = 1;
    auto output = std::make_shared<dataplane::MapOutput>();
    output->index.resize(1);
    info.output = std::move(output);
    tracker.map_outputs.emplace(dataplane::map_output_id(job_id, 0), info);
  }

  DataRequest req;
  req.job_id = 2;
  EXPECT_EQ(serve(engine, job, req), nullptr);
  EXPECT_EQ(job.result.counter("shuffle.malformed_msgs"), 1);

  req.job_id = 1;
  EXPECT_EQ(serve(engine, job, req), tracker.find_output(1, 0));
  EXPECT_EQ(job.result.counter("shuffle.malformed_msgs"), 1);
  req.reduce_id = 1;  // past the map's one partition
  EXPECT_EQ(serve(engine, job, req), nullptr);
  EXPECT_EQ(job.result.counter("shuffle.malformed_msgs"), 2);
}

TEST(RdmaEngineTest, OnlyCachingJobsRunPrefetchers) {
  const int responders = mapred::JobConf{}.responder_threads;
  const std::int64_t serving = 2 * (1 + responders);  // per tracker
  EXPECT_EQ(daemons_after_start(RdmaDesign::kOsuIb, true), serving + 2 * 2);
  EXPECT_EQ(daemons_after_start(RdmaDesign::kOsuIb, false), serving);
  EXPECT_EQ(daemons_after_start(RdmaDesign::kHadoopA, true), serving);
}

// The PrefetchCache's own counts, which the engine books as job counters.
// (cache.integrity.evictions is the framework's, registered for every
// job.)
constexpr const char* kCacheCounts[] = {"cache.hits", "cache.misses",
                                        "cache.insertions", "cache.evictions",
                                        "cache.rejected"};

TEST(RdmaEngineTest, JobsThatDoNotCacheHaveNoCacheCounts) {
  for (const auto& setup : {workloads::EngineSetup::hadoop_a(),
                            workloads::EngineSetup::osu_ib_nocache()}) {
    SCOPED_TRACE(setup.label);
    const auto outcome = workloads::run_experiment(tiny(setup));
    for (const char* name : kCacheCounts) {
      EXPECT_FALSE(outcome.job.counters.contains(name)) << name;
      EXPECT_FALSE(outcome.job.metrics.counters.contains(name)) << name;
    }
    EXPECT_FALSE(outcome.job.metrics.gauges.contains("cache.used_bytes"));
  }
}

// Two concurrent caching jobs on one testbed: each job's cache.* counters
// are its own caches' counts. The budget holds every map output, so each
// job caches each of its outputs once, and every fetch request looks the
// cache up once.
TEST(RdmaEngineTest, ConcurrentJobsBookOnlyTheirOwnCacheCounts) {
  workloads::TestbedSpec bed_spec;
  bed_spec.nodes = 3;
  bed_spec.profile = workloads::EngineSetup::osu_ib().profile;
  bed_spec.hdfs.block_size = 32 * kMiB;
  workloads::Testbed bed(bed_spec);
  workloads::DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 512 * kMiB;
  gen.part_modeled = 32 * kMiB;
  gen.scale = 256;
  ASSERT_TRUE(bed.generate("teragen", gen).ok());
  Conf conf = workloads::EngineSetup::osu_ib().extra;
  conf.set(mapred::kShuffleEngine, "osu-ib");
  conf.set_double(mapred::kKvInflation, gen.scale);
  conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * gen.scale));
  std::vector<mapred::JobSpec> jobs;
  jobs.push_back(workloads::terasort_job(bed.dfs(), gen.dir, "/out1", conf));
  jobs.push_back(workloads::terasort_job(bed.dfs(), gen.dir, "/out2", conf));
  const auto results = bed.run_jobs(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);

  const MetricsRegistry& totals = bed.engine().metrics();
  for (const char* name : kCacheCounts) {
    ASSERT_TRUE(results[0].counters.contains(name)) << name;
    ASSERT_TRUE(results[1].counters.contains(name)) << name;
    EXPECT_EQ(results[0].counter(name) + results[1].counter(name),
              totals.counter_value(name))
        << name;
  }
  for (const auto& result : results) {
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.counter("cache.insertions"), result.num_maps);
    EXPECT_EQ(result.counter("cache.evictions"), 0);
    EXPECT_EQ(result.counter("cache.rejected"), 0);
    EXPECT_GT(result.counter("cache.hits"), 0);
    EXPECT_EQ(result.counter("cache.hits") + result.counter("cache.misses"),
              result.counter("shuffle.fetch.requests"));
  }
}

}  // namespace
}  // namespace hmr::rdmashuffle

namespace hmr::rdmashuffle {
namespace {

// ------------------------------------------------- fault recovery

// Short timeouts/backoffs keep the simulated recovery fast; threshold 2
// blacklists a dead tracker after two consecutive timeouts.
void arm_fast_recovery(workloads::RunConfig& config) {
  config.setup.extra.set_double(mapred::kFetchTimeoutSec, 2.0);
  config.setup.extra.set_double(mapred::kFetchBackoffBaseSec, 0.1);
  config.setup.extra.set_double(mapred::kFetchBackoffMaxSec, 0.5);
  config.setup.extra.set_int(mapred::kBlacklistFailures, 2);
}

TEST(RdmaRecoveryTest, KilledTrackerRecoversWithIdenticalOutput) {
  const auto clean = workloads::run_experiment(
      tiny(workloads::EngineSetup::osu_ib()));
  ASSERT_TRUE(clean.validated);

  // Kill tracker host 1's shuffle service mid-shuffle (host 0 is the
  // master and runs no TaskTracker).
  sim::FaultPlan plan(11);
  const double mid_shuffle =
      clean.job.submit_time +
      0.5 * (clean.job.shuffle_done_time - clean.job.submit_time);
  plan.kill_tracker(1, mid_shuffle);
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &plan;
  arm_fast_recovery(config);
  const auto faulted = workloads::run_experiment(config);

  ASSERT_TRUE(faulted.validated);
  // The acceptance bar: byte-identical output despite losing a tracker.
  EXPECT_EQ(faulted.validation.digest.records,
            clean.validation.digest.records);
  EXPECT_EQ(faulted.validation.digest.checksum,
            clean.validation.digest.checksum);
  // Recovery must be visible in the result counters and the report.
  EXPECT_GT(faulted.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_GT(faulted.job.counter("shuffle.fetch.retries"), 0);
  EXPECT_EQ(faulted.job.counter("shuffle.trackers.blacklisted"), 1);
  EXPECT_GT(faulted.job.counter("shuffle.refetch.reruns"), 0);
  EXPECT_GT(faulted.job.counter("shuffle.refetch.bytes"), 0);
  EXPECT_GT(faulted.job.elapsed(), clean.job.elapsed());
  const std::string report = workloads::job_report(faulted.job);
  EXPECT_NE(report.find("shuffle recovery"), std::string::npos);
  EXPECT_NE(report.find("refetched"), std::string::npos);
}

TEST(RdmaRecoveryTest, DroppedResponsesRetryToCompletion) {
  sim::FaultPlan plan(5);
  plan.drop_responses(1, 0.2);
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &plan;
  config.setup.extra.set_double(mapred::kFetchTimeoutSec, 1.0);
  config.setup.extra.set_double(mapred::kFetchBackoffBaseSec, 0.05);
  config.setup.extra.set_double(mapred::kFetchBackoffMaxSec, 0.2);
  // A 20%-lossy responder is degraded, not dead: keep it off the
  // blacklist and let retries absorb the losses.
  config.setup.extra.set_int(mapred::kBlacklistFailures, 1000000);
  config.setup.extra.set_int(mapred::kFetchMaxRetries, 50);
  const auto outcome = workloads::run_experiment(config);
  ASSERT_TRUE(outcome.validated);
  EXPECT_GT(outcome.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_EQ(outcome.job.counter("shuffle.trackers.blacklisted"), 0);
  EXPECT_EQ(outcome.job.counter("shuffle.refetch.reruns"), 0);
}

TEST(RdmaRecoveryTest, StalledResponsesAreDeduplicated) {
  // Stalls longer than the fetch timeout force retries whose original
  // responses still arrive later: each copier's match (the cursor echo
  // on the verbs path, {map, reduce} on HTTP) must drop the duplicates
  // without corrupting the merge.
  for (const auto& setup : {workloads::EngineSetup::osu_ib(),
                            workloads::EngineSetup::ipoib()}) {
    SCOPED_TRACE(setup.label);
    const auto clean = workloads::run_experiment(tiny(setup));
    ASSERT_TRUE(clean.validated);
    sim::FaultPlan plan(17);
    plan.stall_responses(1, 0.1, 2.0);
    auto config = tiny(setup);
    config.faults = &plan;
    config.setup.extra.set_double(mapred::kFetchTimeoutSec, 1.0);
    config.setup.extra.set_double(mapred::kFetchBackoffBaseSec, 0.05);
    config.setup.extra.set_double(mapred::kFetchBackoffMaxSec, 0.2);
    config.setup.extra.set_int(mapred::kBlacklistFailures, 1000000);
    config.setup.extra.set_int(mapred::kFetchMaxRetries, 50);
    // A stalled response pins its responder thread (like a hung disk
    // read); give the pool headroom so retries don't snowball into a
    // retry storm — that failure mode is real but not what this test is
    // about.
    config.setup.extra.set_int(mapred::kResponderThreads, 16);
    const auto outcome = workloads::run_experiment(config);
    ASSERT_TRUE(outcome.validated);
    EXPECT_GT(outcome.job.counter("shuffle.fetch.timeouts"), 0);
    EXPECT_GT(outcome.job.counter("shuffle.fetch.stale_dropped"), 0);
    EXPECT_EQ(outcome.validation.digest.checksum,
              clean.validation.digest.checksum);
  }
}

TEST(RdmaRecoveryTest, HadoopAKilledTrackerAlsoRecovers) {
  // The on-demand (network-levitated) refill path shares the recovery
  // machinery: timeouts fire on the merge's critical path.
  sim::FaultPlan plan(23);
  plan.kill_tracker(2, 0.0);  // dead before the shuffle even starts
  auto config = tiny(workloads::EngineSetup::hadoop_a());
  config.faults = &plan;
  arm_fast_recovery(config);
  const auto outcome = workloads::run_experiment(config);
  ASSERT_TRUE(outcome.validated);
  EXPECT_EQ(outcome.job.counter("shuffle.trackers.blacklisted"), 1);
  EXPECT_GT(outcome.job.counter("shuffle.refetch.reruns"), 0);
}

TEST(RdmaRecoveryTest, NicDegradeSlowsButCompletes) {
  const auto clean = workloads::run_experiment(
      tiny(workloads::EngineSetup::osu_ib()));
  sim::FaultPlan plan;
  // In this tiny config the shuffle overlaps the map phase and the
  // network is far from the bottleneck, so the cut must be near-fatal
  // (32 Gbps -> ~64 Mbps) to surface in the job time at all.
  plan.degrade_nic(1, 0.0, 0.002);
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &plan;
  const auto degraded = workloads::run_experiment(config);
  ASSERT_TRUE(degraded.validated);
  EXPECT_GT(degraded.job.elapsed(), clean.job.elapsed() * 1.05);
}

TEST(RdmaRecoveryTest, NicRestoreBoundsTheSlowdown) {
  // A transient NIC brownout (same near-fatal cut, restored at t=1s)
  // must cost strictly less than the permanent degrade above, and the
  // restore arming must be visible in the cluster metrics.
  sim::FaultPlan permanent;
  permanent.degrade_nic(1, 0.0, 0.002);
  auto perm_config = tiny(workloads::EngineSetup::osu_ib());
  perm_config.faults = &permanent;
  const auto perm = workloads::run_experiment(perm_config);

  sim::FaultPlan transient;
  transient.degrade_nic(1, 0.0, 0.002, /*restore_at=*/1.0);
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &transient;
  const auto restored = workloads::run_experiment(config);

  ASSERT_TRUE(perm.validated);
  ASSERT_TRUE(restored.validated);
  EXPECT_LT(restored.job.elapsed(), perm.job.elapsed());
  EXPECT_EQ(restored.job.metrics.counter("cluster.nic_restores_armed"), 1);
  EXPECT_EQ(perm.job.metrics.counter("cluster.nic_restores_armed"), 0);
}

TEST(RdmaRecoveryTest, KillAfterJobEndIsHarmless) {
  // A kill armed far past the job's lifetime must leave no trace: no
  // timeouts, no blacklisting, byte-identical output to a clean run.
  const auto clean = workloads::run_experiment(
      tiny(workloads::EngineSetup::osu_ib()));
  sim::FaultPlan plan(13);
  plan.kill_tracker(1, 1e9);
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &plan;
  arm_fast_recovery(config);
  const auto outcome = workloads::run_experiment(config);
  ASSERT_TRUE(outcome.validated);
  EXPECT_EQ(outcome.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_EQ(outcome.job.counter("shuffle.trackers.blacklisted"), 0);
  EXPECT_EQ(outcome.validation.digest.checksum,
            clean.validation.digest.checksum);
}

// ------------------------------------------- streaming merge over chunks

// One small TeraSort (2 MB real on three nodes) and its output parts.
struct MergeRun {
  mapred::JobResult job;
  std::vector<Bytes> parts;  // in reduce order
  workloads::ValidationReport report;
};

MergeRun run_merge_job(const std::string& engine, Conf conf,
                       mapred::MapFn map_fn = nullptr,
                       sim::FaultPlan* faults = nullptr) {
  workloads::TestbedSpec spec;
  spec.nodes = 3;
  spec.hdfs.block_size = 8 * kMiB;
  workloads::Testbed bed(spec);
  workloads::DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 64 * kMiB;
  gen.part_modeled = spec.hdfs.block_size;
  gen.scale = 32.0;
  gen.seed = 7;
  HMR_CHECK(bed.generate("teragen", gen).ok());
  if (faults != nullptr) bed.cluster().inject_faults(*faults);
  conf.set(mapred::kShuffleEngine, engine);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  job.map_fn = std::move(map_fn);
  job.faults = faults;
  MergeRun run;
  run.job = bed.run_job(std::move(job));
  for (const auto& part : bed.dfs().list("/out/")) {
    run.parts.push_back(bed.dfs().peek(part).value());
  }
  run.report = workloads::validate_output(bed.dfs(), "/out").value();
  return run;
}

TEST(RdmaMergeTest, ChunkBoundariesKeepTheOutputBytes) {
  // The reference fetches each partition in one chunk. 32 KiB modeled
  // packets (1 KiB real, ~10 records) and 7-pair Hadoop-A packets put a
  // chunk boundary every few records of every stream; without overlap
  // the batches are also held back until the merge ends. The merge
  // reads every chunk in place, so the output bytes must not move.
  Conf whole;
  whole.set_bytes(mapred::kRdmaPacketBytes, 16 * kMiB);
  const MergeRun reference = run_merge_job("osu-ib", whole);
  ASSERT_TRUE(reference.report.per_part_sorted);
  ASSERT_TRUE(reference.report.globally_sorted);

  Conf small_packets;
  small_packets.set_bytes(mapred::kRdmaPacketBytes, 32 * kKiB);
  Conf held_back = small_packets;
  held_back.set_bool(mapred::kOverlapReduce, false);
  Conf few_pairs;
  few_pairs.set_int(mapred::kRdmaKvPerPacket, 7);
  const std::vector<std::pair<const char*, Conf>> cases = {
      {"osu-ib", small_packets},
      {"osu-ib", held_back},
      {"hadoop-a", few_pairs}};
  for (const auto& [engine, conf] : cases) {
    const MergeRun run = run_merge_job(engine, conf);
    EXPECT_EQ(run.parts, reference.parts) << engine;
    EXPECT_EQ(run.job.counter("REDUCE_INPUT_RECORDS"),
              reference.job.counter("REDUCE_INPUT_RECORDS"))
        << engine;
  }
}

TEST(RdmaMergeTest, ZeroRecordChunksEndTheirStreams) {
  // The map keeps only keys whose first byte is below 0x10, and the
  // range partitioner sends all of those to reduce 0 of 4: every stream
  // of reduces 1-3 answers its one request with a zero-record chunk.
  const mapred::MapFn low_keys = [](const dataplane::KvPair& record,
                                    const mapred::Emit& emit) {
    if (!record.key.empty() && record.key[0] < 0x10) emit(record);
  };
  for (const char* engine : {"osu-ib", "hadoop-a"}) {
    Conf conf;
    conf.set_int(mapred::kNumReduces, 4);
    conf.set_bytes(mapred::kRdmaPacketBytes, 32 * kKiB);
    const MergeRun run = run_merge_job(engine, conf, low_keys);
    ASSERT_EQ(run.parts.size(), 4u) << engine;
    EXPECT_FALSE(run.parts[0].empty()) << engine;
    for (size_t r = 1; r < 4; ++r) EXPECT_TRUE(run.parts[r].empty()) << r;
    const auto kept = run.job.counter("MAP_OUTPUT_RECORDS");
    EXPECT_GT(kept, 0);
    EXPECT_LT(kept, run.job.counter("MAP_INPUT_RECORDS") / 8);
    EXPECT_EQ(run.job.counter("REDUCE_OUTPUT_RECORDS"), kept) << engine;
    EXPECT_TRUE(run.report.per_part_sorted) << engine;
  }
}

TEST(RdmaMergeTest, WholePartitionsAndPartialChunksVerifyClean) {
  // A whole partition goes out with the checksum its map computed at
  // build; a partial chunk is scanned by the responder. Skew the map
  // output so both happen in one job: reduce 0 of 4 (first key byte
  // below 0x40) keeps every record, ~66 KB real per map, and takes
  // several 32 KB chunks; reduces 1-3 keep 1/16 and fit in one.
  const mapred::MapFn skewed = [](const dataplane::KvPair& record,
                                  const mapred::Emit& emit) {
    if (record.key.size() < 2) return;
    if (record.key[0] < 0x40 || record.key[1] < 0x10) emit(record);
  };
  Conf whole;
  whole.set_int(mapred::kNumReduces, 4);
  whole.set_bytes(mapred::kRdmaPacketBytes, 16 * kMiB);
  const MergeRun reference = run_merge_job("osu-ib", whole, skewed);
  Conf chunked = whole;
  chunked.set_bytes(mapred::kRdmaPacketBytes, 1 * kMiB);  // 32 KB real
  const MergeRun run = run_merge_job("osu-ib", chunked, skewed);

  // The reference fetches each partition in one request. Fewer than
  // twice as many requests means some partitions still went whole; more
  // means some went in partial chunks.
  const auto partitions = reference.job.counter("shuffle.fetch.requests");
  const auto requests = run.job.counter("shuffle.fetch.requests");
  EXPECT_GT(requests, partitions);
  EXPECT_LT(requests, 2 * partitions);
  EXPECT_EQ(run.job.counter("shuffle.malformed_msgs"), 0);
  EXPECT_EQ(run.job.counter("shuffle.fetch.retries"), 0);
  EXPECT_TRUE(run.report.per_part_sorted);
  EXPECT_TRUE(run.report.globally_sorted);
  EXPECT_EQ(run.report.digest, reference.report.digest);
  EXPECT_EQ(run.parts, reference.parts);
}

TEST(RdmaMergeTest, KilledReduceAttemptDrainsItsChunks) {
  // Tasks on host 1 compute at a tenth of their speed, so LATE backs up
  // its reduces elsewhere and kills the slow attempts while their merge
  // still holds fetched chunks. The cancellation drain must release
  // every chunk (ASan builds catch a view that outlives its chunk), and
  // the committed output must match a run without the fault.
  for (const char* engine : {"osu-ib", "hadoop-a"}) {
    Conf conf;
    conf.set_bool(mapred::kReduceSpeculativeExecution, true);
    conf.set_double(mapred::kSpeculativeMinRuntimeSec, 0.5);
    conf.set_double(mapred::kSpeculativeIntervalSec, 0.1);
    const MergeRun clean = run_merge_job(engine, conf);
    sim::FaultPlan plan(5);
    plan.slow_tasks(/*host_id=*/1, /*at=*/0.0, /*duration=*/0.0,
                    /*factor=*/0.1);
    const MergeRun slowed = run_merge_job(engine, conf, nullptr, &plan);
    // Map speculation is off: every kill is a reduce attempt's.
    EXPECT_GT(slowed.job.counter("speculation.kills"), 0) << engine;
    EXPECT_EQ(slowed.parts, clean.parts) << engine;
  }
}

TEST(RdmaRecoveryDeathTest, AllTrackersKilledAborts) {
  // With every tracker dead there is nowhere left to re-execute map
  // output; the runtime refuses to spin forever and aborts with a
  // diagnostic naming the exhausted blacklist.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::FaultPlan plan(29);
        plan.kill_tracker(1, 0.0);
        plan.kill_tracker(2, 0.0);
        plan.kill_tracker(3, 0.0);
        auto config = tiny(workloads::EngineSetup::osu_ib());
        config.faults = &plan;
        arm_fast_recovery(config);
        config.setup.extra.set_int(mapred::kFetchMaxRetries, 1000);
        (void)workloads::run_experiment(config);
      },
      "every TaskTracker is blacklisted");
}

}  // namespace
}  // namespace hmr::rdmashuffle
