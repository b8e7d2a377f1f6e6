// End-to-end data integrity and storage-fault tolerance (DESIGN.md
// §6.2): LocalFS fault injection, the checksum-verify/recover ladders
// across spill, cache, shuffle and merge, HDFS replica failover, and
// the acceptance bar — a job hit by disk faults must finish with output
// byte-identical to the fault-free run, with the recovery visible in
// its counters.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapred/integrity.h"
#include "mapred/types.h"
#include "sim/fault.h"
#include "storage/disk.h"
#include "storage/localfs.h"
#include "workloads/experiment.h"
#include "workloads/report.h"
#include "workloads/testbed.h"

namespace hmr {
namespace {

using sim::Engine;
using sim::Task;

// ------------------------------------------------------ LocalFS injection

std::unique_ptr<storage::LocalFS> make_fs(Engine& engine) {
  std::vector<std::unique_ptr<storage::Disk>> disks;
  disks.push_back(
      std::make_unique<storage::Disk>(engine, storage::DiskSpec::hdd("d0")));
  return std::make_unique<storage::LocalFS>(engine, std::move(disks));
}

TEST(LocalFsFaultTest, TransientIoErrorsSurfaceAsUnavailable) {
  Engine engine;
  auto fs = make_fs(engine);
  sim::DiskFault fault;
  fault.io_error_prob = 1.0;
  fs->arm_fault(fault, engine.make_rng("test.disk"));
  Status write = Status::Ok();
  engine.spawn([](storage::LocalFS& fs, Status& out) -> Task<> {
    out = co_await fs.write_file("f", Bytes(1024), 1.0);
  }(*fs, write));
  engine.run();
  EXPECT_EQ(write.code(), StatusCode::kUnavailable);
  EXPECT_GT(engine.metrics().snapshot().counter("storage.io.errors"), 0);
}

TEST(LocalFsFaultTest, StickyWriteCorruptionClearsOnRewrite) {
  Engine engine;
  auto fs = make_fs(engine);
  sim::DiskFault fault;
  fault.write_corrupt_prob = 1.0;
  fs->arm_fault(fault, engine.make_rng("test.disk"));
  bool first_corrupt = false;
  bool second_corrupt = true;
  engine.spawn([](storage::LocalFS& fs, bool& first, bool& second) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", Bytes(1024), 1.0)).ok());
    auto view = co_await fs.read_file("f");
    EXPECT_TRUE(view.ok());
    if (!view.ok()) co_return;
    first = view->corrupted;
    // Disarm and rewrite: sticky corruption must clear with the payload.
    fs.arm_fault(sim::DiskFault{}, Rng(1, "test.disk2"));
    EXPECT_TRUE((co_await fs.write_file("f", Bytes(1024), 1.0)).ok());
    view = co_await fs.read_file("f");
    EXPECT_TRUE(view.ok());
    if (!view.ok()) co_return;
    second = view->corrupted;
  }(*fs, first_corrupt, second_corrupt));
  engine.run();
  EXPECT_TRUE(first_corrupt);
  EXPECT_FALSE(second_corrupt);
}

TEST(LocalFsFaultTest, MarkCorruptIsStickyUntilRewritten) {
  Engine engine;
  auto fs = make_fs(engine);
  bool corrupt = false;
  engine.spawn([](storage::LocalFS& fs, bool& corrupt) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", Bytes(64), 1.0)).ok());
    EXPECT_TRUE(fs.mark_corrupt("f").ok());
    auto view = co_await fs.read_file("f");
    EXPECT_TRUE(view.ok());
    if (view.ok()) corrupt = view->corrupted;
  }(*fs, corrupt));
  engine.run();
  EXPECT_TRUE(corrupt);
  EXPECT_FALSE(fs->mark_corrupt("missing").ok());
}

TEST(LocalFsFaultTest, DiskFullWindowRejectsThenRecovers) {
  Engine engine;
  auto fs = make_fs(engine);
  sim::DiskFault fault;
  fault.full_at = 0.0;
  fault.full_duration = 5.0;
  fs->arm_fault(fault, engine.make_rng("test.disk"));
  Status during = Status::Ok();
  Status after = Status::Ok();
  engine.spawn([](Engine& engine, storage::LocalFS& fs, Status& during,
                  Status& after) -> Task<> {
    during = co_await fs.write_file("f", Bytes(64), 1.0);
    co_await engine.delay(6.0);  // past the window
    after = co_await fs.write_file("f", Bytes(64), 1.0);
  }(engine, *fs, during, after));
  engine.run();
  EXPECT_EQ(during.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(after.ok());
  EXPECT_GT(engine.metrics().snapshot().counter("storage.io.full_rejections"),
            0);
}

TEST(LocalFsFaultTest, DegradedDiskIsProportionallySlower) {
  Engine engine;
  auto fs = make_fs(engine);
  const std::uint64_t bytes = 125'000'000;  // 1 second at HDD bandwidth
  double healthy = 0;
  double degraded = 0;
  engine.spawn([](Engine& engine, storage::LocalFS& fs, std::uint64_t n,
                  double& healthy, double& degraded) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", Bytes(size_t(n)), 1.0)).ok());
    const double t0 = engine.now();
    EXPECT_TRUE((co_await fs.read_file("f")).ok());
    healthy = engine.now() - t0;
    fs.degrade_disks(0.5);
    const double t1 = engine.now();
    EXPECT_TRUE((co_await fs.read_file("f")).ok());
    degraded = engine.now() - t1;
  }(engine, *fs, bytes, healthy, degraded));
  engine.run();
  EXPECT_GT(degraded, healthy * 1.8);
}

// ------------------------------------------------- end-to-end recovery

workloads::RunConfig tiny(workloads::EngineSetup setup) {
  workloads::RunConfig config;
  config.setup = std::move(setup);
  config.workload = "terasort";
  config.sort_modeled_bytes = 128 * kMiB;
  config.nodes = 3;
  config.block_size = 16 * kMiB;
  config.target_real_bytes = 1 * kMiB;
  config.seed = 31;
  return config;
}

workloads::EngineSetup setup_for(const std::string& engine) {
  if (engine == "vanilla") return workloads::EngineSetup::ipoib();
  if (engine == "hadoop-a") return workloads::EngineSetup::hadoop_a();
  return workloads::EngineSetup::osu_ib();
}

void arm_fast_recovery(workloads::RunConfig& config) {
  config.setup.extra.set_double(mapred::kFetchTimeoutSec, 2.0);
  config.setup.extra.set_double(mapred::kFetchBackoffBaseSec, 0.1);
  config.setup.extra.set_double(mapred::kFetchBackoffMaxSec, 0.5);
  config.setup.extra.set_int(mapred::kBlacklistFailures, 2);
  config.setup.extra.set_int(mapred::kFetchMaxRetries, 200);
}

// Disk faults on two of three hosts, put in `plan` (which must outlive
// the run). Probabilities are high because the test job is tiny — a
// handful of spills and fetches must still statistically hit every
// fault class.
void arm_disk_faults(workloads::RunConfig& config, sim::FaultPlan& plan) {
  sim::DiskFault disk;
  disk.io_error_prob = 0.25;
  disk.read_corrupt_prob = 0.15;
  disk.write_corrupt_prob = 0.4;
  disk.cache_corrupt_prob = 0.35;
  disk.full_at = 4.0;
  disk.full_duration = 3.0;
  plan.disk_fault(1, disk);
  plan.disk_fault(2, disk);
  config.faults = &plan;
  arm_fast_recovery(config);
}

class DiskFaultMatrix : public ::testing::TestWithParam<const char*> {};

// The acceptance bar: with IO errors, corruption, and a disk-full window
// on two of three hosts, every engine completes with output
// byte-identical to its fault-free run and the recovery machinery shows
// up in the counters.
TEST_P(DiskFaultMatrix, RecoversWithIdenticalOutput) {
  const std::string engine = GetParam();
  const auto clean = workloads::run_experiment(tiny(setup_for(engine)));
  ASSERT_TRUE(clean.validated);
  EXPECT_EQ(clean.job.counter("integrity.checksum.mismatches"), 0);
  EXPECT_EQ(clean.job.counter("storage.io.retries"), 0);

  auto config = tiny(setup_for(engine));
  sim::FaultPlan plan;
  arm_disk_faults(config, plan);
  const auto faulted = workloads::run_experiment(config);
  ASSERT_TRUE(faulted.validated);
  EXPECT_EQ(faulted.validation.digest.records, clean.validation.digest.records);
  EXPECT_EQ(faulted.validation.digest.checksum,
            clean.validation.digest.checksum);
  EXPECT_GT(faulted.job.counter("integrity.checksum.mismatches"), 0);
  EXPECT_GT(faulted.job.counter("storage.io.retries"), 0);
  EXPECT_GT(faulted.job.metrics.counter("storage.io.errors"), 0);
  const std::string report = workloads::job_report(faulted.job);
  EXPECT_NE(report.find("storage integrity"), std::string::npos);

  // Determinism: the recovery schedule replays exactly from the seed.
  const auto replay = workloads::run_experiment(config);
  EXPECT_EQ(replay.job.finish_time, faulted.job.finish_time);
  for (const char* name : {"integrity.checksum.mismatches",
                           "storage.io.retries", "storage.disk_full.events"}) {
    EXPECT_EQ(replay.job.counter(name), faulted.job.counter(name)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DiskFaultMatrix,
                         ::testing::Values("vanilla", "osu-ib", "hadoop-a"));

// A disk-full window on host 1 during the second of three map waves:
// the spills it rejects shed the outputs the prefetch cache holds for
// the first wave, and the job's own counters carry the evictions.
TEST(DiskPressureTest, CacheEvictionsAreJobCounters) {
  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.sort_modeled_bytes = 512 * kMiB;  // 32 maps: three waves
  const auto clean = workloads::run_experiment(config);
  ASSERT_TRUE(clean.validated);
  EXPECT_EQ(clean.job.counter("cache.pressure.evictions"), 0);

  sim::FaultPlan plan;
  sim::DiskFault full;
  full.full_at = 10.0;
  full.full_duration = 3.0;
  plan.disk_fault(1, full);
  config.faults = &plan;
  const auto faulted = workloads::run_experiment(config);
  ASSERT_TRUE(faulted.validated);
  EXPECT_EQ(faulted.validation.digest.checksum,
            clean.validation.digest.checksum);
  EXPECT_GT(faulted.job.counter("storage.disk_full.events"), 0);
  EXPECT_GT(faulted.job.counter("cache.pressure.evictions"), 0);
  EXPECT_EQ(faulted.job.counter("cache.pressure.evictions"),
            faulted.job.metrics.counter("cache.pressure.evictions"));
}

// Network faults and disk faults in the same run: dropped responses on
// host 1 while host 2's disk throws errors and corrupts reads.
TEST(CombinedFaultTest, NetworkAndDiskFaultsTogether) {
  const auto clean =
      workloads::run_experiment(tiny(workloads::EngineSetup::osu_ib()));
  ASSERT_TRUE(clean.validated);

  sim::FaultPlan plan(47);
  plan.drop_responses(1, 0.15);
  sim::DiskFault disk;
  disk.io_error_prob = 0.25;
  disk.read_corrupt_prob = 0.15;
  disk.write_corrupt_prob = 0.4;
  disk.cache_corrupt_prob = 0.35;
  plan.disk_fault(2, disk);

  auto config = tiny(workloads::EngineSetup::osu_ib());
  config.faults = &plan;
  arm_fast_recovery(config);
  // A 15%-lossy responder is degraded, not dead: let retries absorb it.
  config.setup.extra.set_int(mapred::kBlacklistFailures, 1000000);
  const auto faulted = workloads::run_experiment(config);

  ASSERT_TRUE(faulted.validated);
  EXPECT_EQ(faulted.validation.digest.checksum,
            clean.validation.digest.checksum);
  // Network, disk and integrity recovery all fired.
  EXPECT_GT(faulted.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_GT(faulted.job.counter("storage.io.retries"), 0);
  EXPECT_GT(faulted.job.counter("integrity.checksum.mismatches"), 0);
}

// At-rest rot of published map outputs: a timer keeps marking host 1's
// map output files sticky-corrupt, so the responder's verified reads
// fail, fetches time out, the tracker is blacklisted, and the maps
// re-execute on healthy hosts — with the final output unharmed.
TEST(MapOutputRotTest, AtRestCorruptionTriggersReExecution) {
  workloads::TestbedSpec spec;
  spec.nodes = 3;
  spec.hdfs.block_size = 16 * kMiB;
  spec.seed = 53;
  workloads::Testbed bed(spec);

  const double scale = double(256 * kMiB) / double(512 * kKiB);
  workloads::DataGenSpec gen;
  gen.dir = "/rot/in";
  gen.modeled_total = 256 * kMiB;  // 16 maps: publication staggers
  gen.part_modeled = 16 * kMiB;
  gen.scale = scale;
  gen.seed = 53;
  auto digest = bed.generate("teragen", gen);
  ASSERT_TRUE(digest.ok());

  Conf conf;
  conf.set(mapred::kShuffleEngine, "vanilla");
  conf.set_double(mapred::kKvInflation, scale);
  conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * scale));
  conf.set_double(mapred::kFetchTimeoutSec, 2.0);
  conf.set_double(mapred::kFetchBackoffBaseSec, 0.1);
  conf.set_double(mapred::kFetchBackoffMaxSec, 0.5);
  conf.set_int(mapred::kBlacklistFailures, 2);
  conf.set_int(mapred::kFetchMaxRetries, 200);
  mapred::JobSpec job =
      workloads::terasort_job(bed.dfs(), gen.dir, "/rot/out", conf);

  // Rot monitor: every 1.5 s, everything under mapout/ on host 1 goes
  // bad. Spill scratch files are spared (the producing map has no other
  // copy to fall back on), and the shots are spaced far enough apart
  // that a write-verify retry always gets a clean window to land in.
  bed.engine().spawn([](workloads::Testbed& bed) -> Task<> {
    auto& fs = bed.cluster().host(1).fs();
    for (int i = 0; i < 15; ++i) {
      co_await bed.engine().delay(1.5);
      for (const auto& path : fs.list("mapout/")) {
        if (path.find(".spills") != std::string::npos) continue;
        // lint:ignore(status-discipline): path came from list(), it exists
        (void)fs.mark_corrupt(path);
      }
    }
  }(bed));

  const auto result = bed.run_job(std::move(job));
  auto report = workloads::validate_output(bed.dfs(), "/rot/out");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->digest.records, digest->records);
  EXPECT_EQ(report->digest.checksum, digest->checksum);
  EXPECT_GT(result.counter("integrity.checksum.mismatches"), 0);
  EXPECT_GT(result.counter("shuffle.refetch.reruns"), 0);
  const auto snapshot = bed.engine().metrics().snapshot();
  EXPECT_GT(snapshot.counter("storage.mapout.unserved"), 0);
  EXPECT_GT(snapshot.counter("storage.corrupt.read_failures"), 0);
}

// ----------------------------------------------------- HDFS failover

struct DfsWorld {
  Engine engine;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<hdfs::MiniDfs> dfs;

  explicit DfsWorld(int hosts = 5, hdfs::HdfsParams params = {}) {
    cluster = std::make_unique<net::Cluster>(
        engine, net::NetProfile::ipoib_qdr(), net::Cluster::uniform(hosts, 1));
    network =
        std::make_unique<net::Network>(engine, net::NetProfile::ipoib_qdr());
    std::vector<int> datanodes;
    for (int i = 1; i < hosts; ++i) datanodes.push_back(i);
    dfs = std::make_unique<hdfs::MiniDfs>(*cluster, *network, params, 0,
                                          std::move(datanodes));
  }
  net::Host& host(int i) { return cluster->host(i); }
};

Bytes pattern(size_t n) {
  Bytes out(n);
  std::iota(out.begin(), out.end(), std::uint8_t(1));
  return out;
}

// A corrupt replica must not fail the read: the client retries, fails
// over to a clean replica, the block scanner prunes the bad copy, and
// the replication monitor restores the replica count.
TEST(HdfsFailoverTest, CorruptReplicaFailsOverPrunesAndRereplicates) {
  DfsWorld w;
  const Bytes data = pattern(10'000);
  Bytes got;
  w.engine.spawn([](DfsWorld& w, const Bytes& data, Bytes& got) -> Task<> {
    EXPECT_TRUE((co_await w.dfs->write(w.host(1), "/f", data)).ok());
    const auto info = w.dfs->stat("/f");
    EXPECT_TRUE(info.ok());
    if (!info.ok() || info->blocks.size() != 1u) co_return;
    const auto& block = info->blocks[0];
    EXPECT_EQ(block.replicas.size(), 3u);
    if (block.replicas.empty()) co_return;
    // Rot the first-choice replica at rest (block scanner not yet run).
    const int bad = block.replicas[0];
    EXPECT_TRUE(w.host(bad)
                    .fs()
                    .mark_corrupt("dfs/blk_" + std::to_string(block.id))
                    .ok());
    auto back = co_await w.dfs->read(w.host(0), "/f");
    EXPECT_TRUE(back.ok());
    if (back.ok()) got = std::move(back.value());
  }(w, data, got));
  w.engine.run();  // drains the re-replication the prune kicked off
  EXPECT_EQ(got, data);
  const auto snapshot = w.engine.metrics().snapshot();
  EXPECT_GE(snapshot.counter("hdfs.read.checksum_mismatches"), 3);
  EXPECT_GE(snapshot.counter("hdfs.replica.failovers"), 1);
  EXPECT_EQ(snapshot.counter("hdfs.corrupt.replicas_pruned"), 1);
  EXPECT_GE(snapshot.counter("hdfs.rereplications"), 1);
  const auto info = w.dfs->stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->blocks[0].replicas.size(), 3u);
  EXPECT_EQ(w.dfs->under_replicated_blocks(), 0);
}

// The block scanner never prunes the sole replica: a corruption streak
// on a replication-1 file must stay a read failure, not become silent
// permanent data loss.
TEST(HdfsFailoverTest, LastReplicaIsNeverPruned) {
  hdfs::HdfsParams params;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    EXPECT_TRUE((co_await w.dfs->write(w.host(1), "/f", pattern(500))).ok());
    const auto info = w.dfs->stat("/f");
    if (!info.ok() || info->blocks.empty()) co_return;
    const auto& block = info->blocks[0];
    EXPECT_EQ(block.replicas.size(), 1u);
    if (block.replicas.empty()) co_return;
    EXPECT_TRUE(w.host(block.replicas[0])
                    .fs()
                    .mark_corrupt("dfs/blk_" + std::to_string(block.id))
                    .ok());
    auto back = co_await w.dfs->read(w.host(2), "/f");
    EXPECT_FALSE(back.ok());
  }(w));
  w.engine.run();
  // The bad copy stays listed (readers keep retrying it) and the payload
  // is still reachable untimed — nothing was deleted.
  const auto info = w.dfs->stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->blocks[0].replicas.size(), 1u);
  EXPECT_TRUE(w.dfs->peek("/f").ok());
}

// DataNode block writes and job spills draw on one storage retry budget
// (storage/localfs.h): both ride out the same disk-full window on one
// DataNode and land once it closes.
TEST(HdfsFailoverTest, DiskFullWindowDelaysDfsAndSpillWrites) {
  constexpr double kWindow = 30.0;
  DfsWorld w;
  sim::DiskFault fault;
  fault.full_at = 0.0;
  fault.full_duration = kWindow;
  w.host(1).fs().arm_fault(fault, w.engine.make_rng("test.disk"));
  mapred::JobConf conf;
  conf.num_reduces = 1;
  mapred::JobRuntime job(*w.cluster, *w.network, *w.dfs, mapred::JobSpec{},
                         conf, /*trackers=*/{}, /*job_id=*/1);

  const Bytes data = pattern(10'000);
  Status dfs_write = Status::Internal("not run");
  Status spill = Status::Internal("not run");
  double dfs_done = 0;
  double spill_done = 0;
  // host1 writes the file, so it leads the replica pipeline.
  w.engine.spawn([](DfsWorld& w, const Bytes& data, Status& out,
                    double& done) -> Task<> {
    out = co_await w.dfs->write(w.host(1), "/f", data);
    done = w.engine.now();
  }(w, data, dfs_write, dfs_done));
  w.engine.spawn([](mapred::JobRuntime& job, net::Host& host,
                    const Bytes& data, Status& out, double& done) -> Task<> {
    out = co_await mapred::write_file_verified(
        job, host, "spill", std::make_shared<const Bytes>(data), 1.0);
    done = job.engine.now();
  }(job, w.host(1), data, spill, spill_done));
  w.engine.run();

  EXPECT_TRUE(dfs_write.ok()) << dfs_write.to_string();
  EXPECT_TRUE(spill.ok()) << spill.to_string();
  EXPECT_GE(dfs_done, kWindow);
  EXPECT_GE(spill_done, kWindow);
  const auto stored = w.dfs->peek("/f");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, data);
  const auto snapshot = w.engine.metrics().snapshot();
  EXPECT_GT(snapshot.counter("hdfs.write.retries"), 0);
  EXPECT_GT(snapshot.counter("storage.disk_full.events"), 0);
}

}  // namespace
}  // namespace hmr
