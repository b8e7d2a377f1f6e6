#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/units.h"
#include "mapred/jobconf.h"
#include "mapred/jobrunner.h"
#include "mapred/recovery.h"
#include "mapred/vanilla.h"
#include "sim/fault.h"
#include "workloads/datagen.h"
#include "workloads/experiment.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

namespace hmr::mapred {
namespace {

using workloads::DataGenSpec;
using workloads::DatasetDigest;
using workloads::Testbed;
using workloads::TestbedSpec;

struct SmallJob {
  TestbedSpec bed_spec;
  DataGenSpec gen;

  SmallJob() {
    bed_spec.nodes = 3;
    bed_spec.profile = net::NetProfile::ipoib_qdr();
    bed_spec.hdfs.block_size = 8 * kMiB;
    gen.dir = "/in";
    gen.modeled_total = 64 * kMiB;
    gen.part_modeled = bed_spec.hdfs.block_size;
    gen.scale = 32.0;  // 2 MB real
    gen.seed = 7;
  }
};

TEST(JobRunnerTest, EngineNameResolution) {
  Conf conf;
  EXPECT_EQ(JobConf::parse(conf)->engine, "vanilla");
  conf.set(kShuffleEngine, "hadoop-a");
  EXPECT_EQ(JobConf::parse(conf)->engine, "hadoop-a");
}

// A job the JobRunner rejects comes back with a non-OK status before
// anything ran: no simulated time passes, no output is written, and the
// Testbed still runs the next job.
void expect_rejected(const Conf& conf, const std::string& why) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  ASSERT_TRUE(bed.generate("teragen", small.gen).ok());
  const double before = bed.engine().now();
  const auto rejected = bed.run_job(
      workloads::terasort_job(bed.dfs(), "/in", "/bad", conf));
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status.message().find(why), std::string::npos)
      << rejected.status.to_string();
  EXPECT_EQ(rejected.num_maps, 0);
  EXPECT_EQ(bed.engine().now(), before);
  EXPECT_TRUE(bed.dfs().list("/bad").empty());

  const auto ok =
      bed.run_job(workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{}));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.num_maps, 8);
}

TEST(JobRunnerTest, UnknownEngineRejected) {
  Conf conf;
  conf.set(kShuffleEngine, "no-such-engine");
  expect_rejected(conf, "unknown shuffle engine: no-such-engine");
}

TEST(JobRunnerTest, BadConfRejected) {
  Conf zero_reduces;
  zero_reduces.set_int(kNumReduces, 0);
  expect_rejected(zero_reduces, kNumReduces);
  Conf unknown;
  unknown.set("mapred.no.such.key", "1");
  expect_rejected(unknown, "mapred.no.such.key");
}

// io.sort.factor 1 merged one segment into one per pass and never
// finished; zero responder threads answered no DataRequest. Both are
// rejected at submit instead of hanging the simulation.
TEST(JobRunnerTest, NonTerminatingConfRejected) {
  Conf factor;
  factor.set_int(kIoSortFactor, 1);
  expect_rejected(factor, kIoSortFactor);
  Conf responders;
  responders.set(kShuffleEngine, "osu-ib");
  responders.set_int(kResponderThreads, 0);
  expect_rejected(responders, kResponderThreads);
}

TEST(JobRunnerTest, TeraSortEndToEndValidates) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  EXPECT_GT(digest->records, 0u);

  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));

  EXPECT_EQ(result.num_maps, 8);  // 64 MB / 8 MB blocks
  EXPECT_GT(result.elapsed(), 0.0);
  EXPECT_GE(result.maps_done_time, result.submit_time);
  EXPECT_GE(result.finish_time, result.maps_done_time);
  EXPECT_EQ(result.counter("REDUCE_OUTPUT_RECORDS"),
            std::int64_t(digest->records));
  EXPECT_GT(result.shuffled_modeled_bytes, 60 * kMiB);

  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(JobRunnerTest, BlockSizeControlsMapCount) {
  SmallJob small;
  small.bed_spec.hdfs.block_size = 16 * kMiB;
  small.gen.part_modeled = 16 * kMiB;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  EXPECT_EQ(result.num_maps, 4);
}

TEST(JobRunnerTest, ReduceCountConfigured) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  Conf conf;
  conf.set_int(kNumReduces, 5);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  EXPECT_EQ(result.num_reduces, 5);
  EXPECT_EQ(bed.dfs().list("/out/").size(), 5u);
}

TEST(JobRunnerTest, DefaultReducesScaleWithTrackers) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  EXPECT_EQ(result.num_reduces, 3 * 4);  // nodes x reduce slots
}

TEST(JobRunnerTest, MapLocalityPreferred) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  const auto wire_before = bed.engine().metrics().counter_value("net.bytes");
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  // With replication 3 on 3 DataNodes every split is local: the wire
  // carries shuffle + output traffic, but no split reads. Shuffle moves
  // ~(n-1)/n of the data, output replication 1 pipelines locally.
  const auto wire =
      bed.engine().metrics().counter_value("net.bytes") - wire_before;
  EXPECT_LT(wire, std::int64_t(result.input_modeled_bytes * 2));
  (void)result;
}

TEST(JobRunnerTest, SpillsIncreaseWhenSortBufferSmall) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  Conf conf;
  conf.set_bytes(kIoSortMb, 2 * kMiB);  // each 8 MB split -> 4 spills
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  EXPECT_GE(result.counter("mapred.map.spills"), 8 * 4);
}

TEST(JobRunnerTest, SmallSortBufferSlowsJob) {
  auto run = [](std::uint64_t sort_mb) {
    SmallJob small;
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("teragen", small.gen).ok());
    Conf conf;
    conf.set_bytes(kIoSortMb, sort_mb);
    auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
    return bed.run_job(std::move(job)).elapsed();
  };
  EXPECT_GT(run(1 * kMiB), run(100 * kMiB));
}

TEST(JobRunnerTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    SmallJob small;
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("teragen", small.gen).ok());
    auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
    return bed.run_job(std::move(job)).elapsed();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(JobRunnerTest, SeedChangesScheduleButNotCorrectness) {
  SmallJob small;
  small.bed_spec.seed = 99;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  (void)bed.run_job(std::move(job));
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(JobRunnerTest, WordCountAggregatesCorrectly) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("textgen", small.gen);
  EXPECT_TRUE(digest.ok());

  auto job = workloads::wordcount_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  EXPECT_GT(result.counter("REDUCE_OUTPUT_RECORDS"), 0);
  // Vocabulary has 18 words; every word should appear as exactly one
  // output record across all reducers.
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const auto& part : bed.dfs().list("/out/")) {
    auto payload = bed.dfs().peek(part);
    EXPECT_TRUE(payload.ok());
    auto records = dataplane::decode_run(*payload);
    EXPECT_TRUE(records.ok());
    for (const auto& record : *records) {
      std::uint64_t count = 0;
      std::memcpy(&count, record.value.data(), 8);
      counts[std::string(record.key.begin(), record.key.end())] += count;
      total += count;
    }
  }
  EXPECT_EQ(counts.size(), 18u);
  EXPECT_GT(total, digest->records * 8);  // >= 8 words per line
}

TEST(JobRunnerTest, SortBenchmarkValidatesPerPart) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("randomwriter", small.gen);
  EXPECT_TRUE(digest.ok());
  auto job = workloads::sort_job(bed.dfs(), "/in", "/out", Conf{});
  (void)bed.run_job(std::move(job));
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_sort(*digest));
}

TEST(JobRunnerTest, ShuffleOverlapsMapPhase) {
  // With slowstart at 5%, reducers fetch while maps still run: the last
  // map completion must not precede all shuffle traffic.
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  Conf conf;
  conf.set_double(kSlowstart, 0.05);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  // Shuffle completed after maps (it needs the last map) but within a
  // fraction of the map phase duration afterwards - i.e. most copying
  // overlapped the maps.
  const double map_phase = result.maps_done_time - result.submit_time;
  const double shuffle_tail =
      result.shuffle_done_time - result.maps_done_time;
  EXPECT_GT(map_phase, 0.0);
  EXPECT_LT(shuffle_tail, map_phase);
}

JobSpec missing_input_job() {
  JobSpec spec;
  spec.name = "broken";
  spec.input_files = {"/in/part-00000", "/does/not/exist"};
  spec.output_dir = "/bad";
  return spec;
}

// A job naming a missing input file is rejected before anything runs,
// like a bad conf, instead of aborting the process.
TEST(JobRunnerTest, MissingInputRejected) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  ASSERT_TRUE(bed.generate("teragen", small.gen).ok());
  ASSERT_TRUE(bed.dfs().stat("/in/part-00000").ok());
  const double before = bed.engine().now();
  const auto rejected = bed.run_job(missing_input_job());
  EXPECT_EQ(rejected.status.code(), StatusCode::kNotFound);
  EXPECT_NE(rejected.status.message().find("/does/not/exist"),
            std::string::npos)
      << rejected.status.to_string();
  EXPECT_EQ(rejected.num_maps, 0);
  EXPECT_EQ(bed.engine().now(), before);
  EXPECT_TRUE(bed.dfs().list("/bad").empty());
}

}  // namespace
}  // namespace hmr::mapred

namespace hmr::mapred {
namespace {

TEST(FaultToleranceTest, JobSurvivesMapFailures) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  Conf conf;
  conf.set_double(kMapFailureProb, 0.4);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  EXPECT_GT(result.counter("mapred.map.failed_attempts"), 0);
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(FaultToleranceTest, FailuresCostTime) {
  auto run = [](double prob) {
    SmallJob small;
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("teragen", small.gen).ok());
    Conf conf;
    conf.set_double(kMapFailureProb, prob);
    auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
    return bed.run_job(std::move(job)).elapsed();
  };
  EXPECT_GT(run(0.5), run(0.0));
}

TEST(FaultToleranceTest, NoFailuresByDefault) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  EXPECT_EQ(
      bed.run_job(std::move(job)).counter("mapred.map.failed_attempts"), 0);
}

TEST(FaultToleranceTest, RdmaEngineSurvivesFailuresToo) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  Conf conf;
  conf.set(kShuffleEngine, "osu-ib");
  conf.set_double(kMapFailureProb, 0.3);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  EXPECT_GT(result.counter("mapred.map.failed_attempts"), 0);
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(CombinerTest, ShrinksShuffleAndPreservesResults) {
  // WordCount with and without the combiner must produce identical
  // outputs, but the combined run shuffles far fewer bytes.
  auto run = [](bool combine) {
    SmallJob small;
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("textgen", small.gen).ok());
    auto job = workloads::wordcount_job(bed.dfs(), "/in", "/out", Conf{});
    if (!combine) job.combine_fn = nullptr;
    auto result = bed.run_job(std::move(job));
    std::map<std::string, std::uint64_t> counts;
    for (const auto& part : bed.dfs().list("/out/")) {
      auto payload = bed.dfs().peek(part).value();
      auto records = dataplane::decode_run(payload).value();
      for (const auto& record : records) {
        std::uint64_t count = 0;
        std::memcpy(&count, record.value.data(), 8);
        counts[std::string(record.key.begin(), record.key.end())] = count;
      }
    }
    return std::pair{result.shuffled_modeled_bytes, counts};
  };
  const auto [with_bytes, with_counts] = run(true);
  const auto [without_bytes, without_counts] = run(false);
  EXPECT_EQ(with_counts, without_counts);
  EXPECT_LT(with_bytes, without_bytes / 10);  // tiny vocabulary collapses
}

}  // namespace
}  // namespace hmr::mapred

namespace hmr::mapred {
namespace {

TEST(SpeculationTest, BackupTasksCutStragglerTail) {
  auto run = [](bool speculate) {
    SmallJob small;
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("teragen", small.gen).ok());
    Conf conf;
    // Severe stragglers: the slowed CPU work dominates the job tail, so
    // a healthy backup attempt is a clear win.
    conf.set_double(kStragglerProb, 0.25);
    conf.set_double(kStragglerSlowdown, 60.0);
    conf.set_bool(kSpeculativeExecution, speculate);
    auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
    return bed.run_job(std::move(job));
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_GT(with.counter("speculation.attempts"), 0);
  EXPECT_LT(with.elapsed(), without.elapsed());
}

TEST(SpeculationTest, DuplicateAttemptsDoNotCorruptOutput) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  Conf conf;
  conf.set_double(kStragglerProb, 0.5);
  conf.set_double(kStragglerSlowdown, 6.0);
  conf.set_bool(kSpeculativeExecution, true);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  const auto result = bed.run_job(std::move(job));
  EXPECT_EQ(result.counter("REDUCE_OUTPUT_RECORDS"),
            std::int64_t(digest->records));
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(SpeculationTest, RdmaEngineToleratesBackups) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  Conf conf;
  conf.set(kShuffleEngine, "osu-ib");
  conf.set_double(kStragglerProb, 0.3);
  conf.set_bool(kSpeculativeExecution, true);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  (void)bed.run_job(std::move(job));
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(SpeculationTest, OffByDefault) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("teragen", small.gen).ok());
  Conf conf;
  conf.set_double(kStragglerProb, 0.5);  // stragglers but no backups
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  EXPECT_EQ(bed.run_job(std::move(job)).counter("speculation.attempts"), 0);
}

}  // namespace
}  // namespace hmr::mapred

namespace hmr::mapred {
namespace {

TEST(MultiJobTest, ConcurrentJobsBothValidate) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto gen_a = small.gen;
  gen_a.dir = "/a/in";
  auto gen_b = small.gen;
  gen_b.dir = "/b/in";
  gen_b.seed = 99;
  auto digest_a = bed.generate("teragen", gen_a);
  auto digest_b = bed.generate("teragen", gen_b);
  EXPECT_TRUE(digest_a.ok());
  EXPECT_TRUE(digest_b.ok());

  std::vector<JobSpec> jobs;
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/a/in", "/a/out", Conf{}));
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/b/in", "/b/out", Conf{}));
  const auto results = bed.run_jobs(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);

  auto report_a = workloads::validate_output(bed.dfs(), "/a/out");
  auto report_b = workloads::validate_output(bed.dfs(), "/b/out");
  EXPECT_TRUE(report_a.ok() && report_a->valid_terasort(*digest_a));
  EXPECT_TRUE(report_b.ok() && report_b->valid_terasort(*digest_b));
}

// Under the JobTracker a rejected job completes at once with its status;
// the job beside it runs as if alone. `bad` builds the rejected job
// against the testbed's DFS.
void expect_rejected_among_tenants(
    const std::function<JobSpec(hdfs::MiniDfs&)>& bad) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  ASSERT_TRUE(digest.ok());
  std::vector<JobSpec> jobs;
  jobs.push_back(bad(bed.dfs()));
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{}));
  const auto results = bed.run_jobs(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());
  auto report = workloads::validate_output(bed.dfs(), "/out");
  EXPECT_TRUE(report.ok() && report->valid_terasort(*digest));
  EXPECT_TRUE(bed.dfs().list("/bad").empty());

  // The scheduler books the rejected job as rejected, not completed, and
  // refunds its dispatch-time fair-share charge.
  const auto& metrics = bed.engine().metrics();
  EXPECT_EQ(metrics.counter_value("scheduler.jobs.rejected"), 1);
  EXPECT_EQ(metrics.counter_value("scheduler.jobs.completed"), 1);
  const FixedHistogram* latency =
      metrics.find_fixed_histogram("scheduler.job.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  const auto& handles = bed.tracker().jobs();
  ASSERT_EQ(handles.size(), 2u);
  const TenantStats& tenant = bed.tracker().tenant_stats().at("default");
  EXPECT_EQ(tenant.completed, 1);
  EXPECT_DOUBLE_EQ(tenant.total_latency, handles[1]->latency());
  EXPECT_DOUBLE_EQ(tenant.charged_cost,
                   handles[1]->cost +
                       double(results[1].counter("speculation.attempts")));
}

TEST(MultiJobTest, RejectedJobLeavesOthersRunning) {
  expect_rejected_among_tenants([](hdfs::MiniDfs& dfs) {
    Conf bad;
    bad.set(kSlowstart, "1.5");
    return workloads::terasort_job(dfs, "/in", "/bad", bad);
  });
}

TEST(MultiJobTest, MissingInputJobLeavesOthersRunning) {
  expect_rejected_among_tenants(
      [](hdfs::MiniDfs&) { return missing_input_job(); });
}

TEST(MultiJobTest, ConcurrentJobsContendForSlots) {
  // Two identical jobs sharing the cluster must each run slower than a
  // lone job, but the makespan must beat strictly serial execution.
  SmallJob small;
  double solo;
  {
    Testbed bed(small.bed_spec);
    HMR_CHECK(bed.generate("teragen", small.gen).ok());
    solo = bed
               .run_job(workloads::terasort_job(bed.dfs(), "/in", "/out",
                                                Conf{}))
               .elapsed();
  }
  Testbed bed(small.bed_spec);
  auto gen_a = small.gen;
  gen_a.dir = "/a/in";
  auto gen_b = small.gen;
  gen_b.dir = "/b/in";
  HMR_CHECK(bed.generate("teragen", gen_a).ok());
  HMR_CHECK(bed.generate("teragen", gen_b).ok());
  std::vector<JobSpec> jobs;
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/a/in", "/a/out", Conf{}));
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/b/in", "/b/out", Conf{}));
  const auto results = bed.run_jobs(std::move(jobs));
  const double makespan = std::max(results[0].finish_time,
                                   results[1].finish_time) -
                          std::min(results[0].submit_time,
                                   results[1].submit_time);
  EXPECT_GT(results[0].elapsed(), solo);   // contention slows each job
  EXPECT_LT(makespan, 2 * solo);           // but they do overlap
}

TEST(MultiJobTest, MixedEnginesShareTheCluster) {
  SmallJob small;
  small.bed_spec.profile = net::NetProfile::verbs_qdr();
  Testbed bed(small.bed_spec);
  auto gen_a = small.gen;
  gen_a.dir = "/a/in";
  auto gen_b = small.gen;
  gen_b.dir = "/b/in";
  auto digest_a = bed.generate("teragen", gen_a);
  auto digest_b = bed.generate("teragen", gen_b);
  Conf osu;
  osu.set(kShuffleEngine, "osu-ib");
  Conf hadoop_a;
  hadoop_a.set(kShuffleEngine, "hadoop-a");
  std::vector<JobSpec> jobs;
  jobs.push_back(workloads::terasort_job(bed.dfs(), "/a/in", "/a/out", osu));
  jobs.push_back(
      workloads::terasort_job(bed.dfs(), "/b/in", "/b/out", hadoop_a));
  (void)bed.run_jobs(std::move(jobs));
  auto report_a = workloads::validate_output(bed.dfs(), "/a/out");
  auto report_b = workloads::validate_output(bed.dfs(), "/b/out");
  EXPECT_TRUE(report_a.ok() && report_a->valid_terasort(*digest_a));
  EXPECT_TRUE(report_b.ok() && report_b->valid_terasort(*digest_b));
}

}  // namespace
}  // namespace hmr::mapred

namespace hmr::mapred {
namespace {

TEST(CountersTest, IdentityJobBalances) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  EXPECT_TRUE(digest.ok());
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  const auto records = std::int64_t(digest->records);
  EXPECT_EQ(result.counter("MAP_INPUT_RECORDS"), records);
  EXPECT_EQ(result.counter("MAP_OUTPUT_RECORDS"), records);
  EXPECT_EQ(result.counter("REDUCE_INPUT_RECORDS"), records);
  EXPECT_EQ(result.counter("REDUCE_OUTPUT_RECORDS"), records);
  EXPECT_GE(result.counter("SPILLED_RECORDS"), records);
  EXPECT_GT(result.counter("MAP_OUTPUT_BYTES"), 0);
  EXPECT_EQ(result.counter("COMBINE_INPUT_RECORDS"), 0);  // no combiner
}

TEST(CountersTest, CombinerShrinksRecordFlow) {
  SmallJob small;
  Testbed bed(small.bed_spec);
  EXPECT_TRUE(bed.generate("textgen", small.gen).ok());
  auto job = workloads::wordcount_job(bed.dfs(), "/in", "/out", Conf{});
  const auto result = bed.run_job(std::move(job));
  EXPECT_GT(result.counter("COMBINE_INPUT_RECORDS"), 0);
  EXPECT_LT(result.counter("COMBINE_OUTPUT_RECORDS"),
            result.counter("COMBINE_INPUT_RECORDS") / 10);
  EXPECT_EQ(result.counter("REDUCE_INPUT_RECORDS"),
            result.counter("COMBINE_OUTPUT_RECORDS"));
}

TEST(CountersTest, UnknownCounterIsZero) {
  JobResult result;
  EXPECT_EQ(result.counter("NOPE"), 0);
}

}  // namespace
}  // namespace hmr::mapred

// ------------------------------------------------- shuffle fault recovery

namespace hmr::mapred {
namespace {

TEST(FaultPlanTest, TrackerDeathIsAnInstant) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.tracker_dead(1, 100.0));
  plan.kill_tracker(1, 10.0);
  EXPECT_FALSE(plan.tracker_dead(1, 9.99));
  EXPECT_TRUE(plan.tracker_dead(1, 10.0));
  EXPECT_TRUE(plan.tracker_dead(1, 1e9));
  EXPECT_FALSE(plan.tracker_dead(2, 1e9));  // only host 1 dies
}

TEST(FaultPlanTest, ResponseFateProbabilityExtremes) {
  double stall = 0.0;
  sim::FaultPlan healthy;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(healthy.response_fate(1, &stall),
              sim::FaultPlan::ResponseFate::kDeliver);
  }
  sim::FaultPlan lossy;
  lossy.drop_responses(1, 1.0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(lossy.response_fate(1, &stall),
              sim::FaultPlan::ResponseFate::kDrop);
  }
  sim::FaultPlan sticky;
  sticky.stall_responses(2, 1.0, 4.5);
  EXPECT_EQ(sticky.response_fate(2, &stall),
            sim::FaultPlan::ResponseFate::kStall);
  EXPECT_EQ(stall, 4.5);
  // Faults are per host: host 3 has none configured.
  EXPECT_EQ(sticky.response_fate(3, &stall),
            sim::FaultPlan::ResponseFate::kDeliver);
}

TEST(FaultPlanTest, DropRollsBeforeStall) {
  // When both faults are certain, the drop die is rolled first and
  // wins; the stall configuration never fires.
  sim::FaultPlan plan;
  plan.drop_responses(1, 1.0);
  plan.stall_responses(1, 1.0, 9.0);
  double stall = 0.0;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(plan.response_fate(1, &stall),
              sim::FaultPlan::ResponseFate::kDrop);
  }
  EXPECT_EQ(stall, 0.0);  // never written
}

TEST(FaultPlanTest, FateSequenceIsSeedDeterministic) {
  auto fates = [](std::uint64_t seed) {
    sim::FaultPlan plan(seed);
    plan.drop_responses(1, 0.3);
    plan.stall_responses(1, 0.3, 1.0);
    std::vector<sim::FaultPlan::ResponseFate> out;
    double stall = 0.0;
    for (int i = 0; i < 64; ++i) out.push_back(plan.response_fate(1, &stall));
    return out;
  };
  EXPECT_EQ(fates(5), fates(5));  // replays exactly
  EXPECT_NE(fates(5), fates(6));  // and the seed matters
}

TEST(FaultPlanTest, NicDegradesAreRecordedInOrder) {
  sim::FaultPlan plan;
  plan.degrade_nic(1, 5.0, 0.25);
  plan.degrade_nic(2, 7.0, 0.5);
  ASSERT_EQ(plan.nic_degrades().size(), 2u);
  EXPECT_EQ(plan.nic_degrades()[0].host_id, 1);
  EXPECT_EQ(plan.nic_degrades()[0].at, 5.0);
  EXPECT_EQ(plan.nic_degrades()[0].factor, 0.25);
  EXPECT_EQ(plan.nic_degrades()[1].host_id, 2);
  // Without a restore time the degrade is permanent.
  EXPECT_LT(plan.nic_degrades()[0].restore_at, 0.0);
}

TEST(FaultPlanTest, NicRestoreTimeIsRecorded) {
  sim::FaultPlan plan;
  plan.degrade_nic(1, 5.0, 0.25, /*restore_at=*/12.0);
  ASSERT_EQ(plan.nic_degrades().size(), 1u);
  EXPECT_EQ(plan.nic_degrades()[0].restore_at, 12.0);
}

TEST(ComputeFaultTest, WindowQueriesArePure) {
  sim::ComputeFaults faults;
  faults.task.push_back(
      {sim::TaskFault::Kind::kHang, /*host_id=*/1, /*at=*/5.0,
       /*duration=*/3.0, /*factor=*/1.0});
  faults.task.push_back(
      {sim::TaskFault::Kind::kSlow, /*host_id=*/1, /*at=*/2.0,
       /*duration=*/0.0, /*factor=*/0.5});
  // Hang: inactive before, end-of-window inside, closed after.
  EXPECT_EQ(faults.hang_until(1, 4.9), 0.0);
  EXPECT_EQ(faults.hang_until(1, 6.0), 8.0);
  EXPECT_EQ(faults.hang_until(1, 8.0), 0.0);
  EXPECT_EQ(faults.hang_until(2, 6.0), 0.0);  // other hosts untouched
  // Slow: duration <= 0 is permanent from `at` onward.
  EXPECT_EQ(faults.slow_factor(1, 1.0), 1.0);
  EXPECT_EQ(faults.slow_factor(1, 100.0), 0.5);
  EXPECT_EQ(faults.slow_factor(2, 100.0), 1.0);
}

TEST(SpeculationTest, KillsMatchAttemptsUnderCombinedChaos) {
  // DESIGN.md §6.2: every speculative race is launched by exactly one
  // backup attempt and settled by exactly one kill, so a drained job
  // must hold speculative_kills == speculative_attempts even when
  // compute, network, and disk faults fire in the same run — and the
  // killed losers must stay distinct from fault re-executions.
  SmallJob small;
  small.bed_spec.nodes = 4;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  ASSERT_TRUE(digest.ok());
  sim::FaultPlan plan(41);
  plan.slow_tasks(/*host_id=*/2, /*at=*/0.0, /*duration=*/0.0,
                  /*factor=*/0.1);
  plan.drop_responses(/*host_id=*/3, /*prob=*/0.1);
  sim::DiskFault disk;
  disk.io_error_prob = 0.05;
  plan.disk_fault(/*host_id=*/1, disk);
  bed.cluster().inject_faults(plan);
  Conf conf;
  conf.set_bool(kSpeculativeExecution, true);
  conf.set_bool(kReduceSpeculativeExecution, true);
  // Tighten the LATE knobs so the tiny job's stragglers are flagged well
  // inside its few-second lifetime.
  conf.set_double(kSpeculativeMinRuntimeSec, 0.5);
  conf.set_double(kSpeculativeIntervalSec, 0.1);
  conf.set_double(kFetchTimeoutSec, 2.0);
  auto job = workloads::terasort_job(bed.dfs(), "/in", "/out", conf);
  job.faults = &plan;
  const auto result = bed.run_job(std::move(job));
  EXPECT_GT(result.counter("speculation.attempts"), 0);
  EXPECT_EQ(result.counter("speculation.kills"),
            result.counter("speculation.attempts"));
  EXPECT_LE(result.counter("speculation.wins"),
            result.counter("speculation.attempts"));
  auto report = workloads::validate_output(bed.dfs(), "/out");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->valid_terasort(*digest));
}

TEST(JobCountersTest, ConcurrentJobsCountOnlyTheirOwnFaults) {
  // Two jobs share the trackers through the JobTracker, and only job A's
  // fault plan drops responses: each job's counters hold its own events,
  // and together they make up the engine-wide total.
  SmallJob small;
  Testbed bed(small.bed_spec);
  auto digest = bed.generate("teragen", small.gen);
  ASSERT_TRUE(digest.ok());
  sim::FaultPlan plan(17);
  plan.drop_responses(/*host_id=*/1, /*prob=*/0.2);
  auto a_spec = workloads::terasort_job(bed.dfs(), "/in", "/out-a", Conf{});
  a_spec.faults = &plan;
  const auto a = bed.tracker().submit(std::move(a_spec));
  const auto b = bed.tracker().submit(
      workloads::terasort_job(bed.dfs(), "/in", "/out-b", Conf{}));
  bed.engine().run();
  ASSERT_TRUE(a->completed && b->completed);
  const auto a_timeouts = a->result.counter("shuffle.fetch.timeouts");
  const auto b_timeouts = b->result.counter("shuffle.fetch.timeouts");
  EXPECT_GT(a_timeouts, 0);
  EXPECT_EQ(b_timeouts, 0);
  EXPECT_EQ(a_timeouts + b_timeouts,
            bed.engine().metrics().counter_value("shuffle.fetch.timeouts"));
  for (const char* out : {"/out-a", "/out-b"}) {
    auto report = workloads::validate_output(bed.dfs(), out);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->valid_terasort(*digest)) << out;
  }
}

// ----------------------------------------------------------- JobConf

TEST(ConfTest, TypedRoundTrip) {
  Conf conf;
  conf.set(kShuffleEngine, "osu-ib");
  conf.set_int(kNumReduces, 42);
  conf.set_double(kKvInflation, 1.0 / 3.0);
  conf.set_bool(kIntegrityEnabled, false);
  conf.set_bytes(kMaxRecordBytes, 128 * kMiB);
  const auto parsed = JobConf::parse(conf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->engine, "osu-ib");
  EXPECT_EQ(parsed->num_reduces, 42);
  EXPECT_EQ(parsed->kv_inflation, 1.0 / 3.0);  // exact: %.17g round-trips
  EXPECT_FALSE(parsed->integrity);
  EXPECT_EQ(parsed->max_record_bytes, 128 * kMiB);
}

// Every default, written once in JobConf, is what an empty conf parses to.
TEST(ConfTest, DefaultsWhenMissing) {
  const auto parsed = JobConf::parse(Conf{});
  ASSERT_TRUE(parsed.ok());
  const JobConf& c = *parsed;
  EXPECT_EQ(c.engine, "vanilla");
  EXPECT_TRUE(c.caching_enabled);
  EXPECT_EQ(c.cache_bytes, 12 * kGiB);
  EXPECT_EQ(c.packet_bytes, kMiB);
  EXPECT_FALSE(c.kv_per_packet.has_value());
  EXPECT_EQ(c.responder_threads, 4);
  EXPECT_TRUE(c.overlap_reduce);
  EXPECT_FALSE(c.kv_inflation.has_value());
  EXPECT_FALSE(c.max_record_bytes.has_value());
  EXPECT_FALSE(c.num_reduces.has_value());
  EXPECT_EQ(c.io_sort_bytes, 100 * kMiB);
  EXPECT_EQ(c.io_sort_factor, 10);
  EXPECT_EQ(c.shuffle_buffer_bytes, 700 * kMiB);
  EXPECT_EQ(c.slowstart, 0.05);
  EXPECT_EQ(c.task_startup, 1.0);
  EXPECT_EQ(c.map_failure_prob, 0.0);
  EXPECT_EQ(c.map_max_attempts, 4);
  EXPECT_EQ(c.straggler_prob, 0.0);
  EXPECT_EQ(c.straggler_slowdown, 4.0);
  EXPECT_FALSE(c.speculation.maps);
  EXPECT_FALSE(c.speculation.reduces);
  EXPECT_EQ(c.speculation.interval, 0.5);
  EXPECT_EQ(c.speculation.min_runtime, 3.0);
  EXPECT_TRUE(c.integrity);
}

// Every key overrides its field.
TEST(JobConfTest, EveryKeyOverrides) {
  Conf conf;
  conf.set(kShuffleEngine, "hadoop-a");
  conf.set_bool(kCachingEnabled, false);
  conf.set_bytes(kCacheBytes, 2 * kGiB);
  conf.set_bytes(kRdmaPacketBytes, 0);
  conf.set_int(kRdmaKvPerPacket, 64);
  conf.set_int(kResponderThreads, 9);
  conf.set_bool(kOverlapReduce, false);
  conf.set_double(kKvInflation, 2.5);
  conf.set_bytes(kMaxRecordBytes, 300);
  conf.set_int(kNumReduces, 3);
  conf.set_bytes(kIoSortMb, 2 * kMiB);
  conf.set_int(kIoSortFactor, 2);
  conf.set_bytes(kShuffleBufferBytes, 0);
  conf.set_double(kSlowstart, 1.0);
  conf.set_double(kTaskStartupSec, 0.0);
  conf.set_double(kMapFailureProb, 0.5);
  conf.set_int(kMaxTaskAttempts, 1);
  conf.set_double(kStragglerProb, 1.0);
  conf.set_double(kStragglerSlowdown, 1.0);
  conf.set_bool(kSpeculativeExecution, true);
  conf.set_bool(kReduceSpeculativeExecution, true);
  conf.set_double(kSpeculativeIntervalSec, 0.1);
  conf.set_double(kSpeculativeMinRuntimeSec, 0.0);
  conf.set_bool(kIntegrityEnabled, false);
  const auto parsed = JobConf::parse(conf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JobConf& c = *parsed;
  EXPECT_EQ(c.engine, "hadoop-a");
  EXPECT_FALSE(c.caching_enabled);
  EXPECT_EQ(c.cache_bytes, 2 * kGiB);
  EXPECT_EQ(c.packet_bytes, 0u);
  EXPECT_EQ(c.kv_per_packet, 64u);
  EXPECT_EQ(c.responder_threads, 9);
  EXPECT_FALSE(c.overlap_reduce);
  EXPECT_EQ(c.kv_inflation, 2.5);
  EXPECT_EQ(c.max_record_bytes, 300u);
  EXPECT_EQ(c.num_reduces, 3);
  EXPECT_EQ(c.io_sort_bytes, 2 * kMiB);
  EXPECT_EQ(c.io_sort_factor, 2);
  EXPECT_EQ(c.shuffle_buffer_bytes, 0u);
  EXPECT_EQ(c.slowstart, 1.0);
  EXPECT_EQ(c.task_startup, 0.0);
  EXPECT_EQ(c.map_failure_prob, 0.5);
  EXPECT_EQ(c.map_max_attempts, 1);
  EXPECT_EQ(c.straggler_prob, 1.0);
  EXPECT_EQ(c.straggler_slowdown, 1.0);
  EXPECT_TRUE(c.speculation.maps);
  EXPECT_TRUE(c.speculation.reduces);
  EXPECT_EQ(c.speculation.interval, 0.1);
  EXPECT_EQ(c.speculation.min_runtime, 0.0);
  EXPECT_FALSE(c.integrity);
}

TEST(ConfTest, BytesAcceptUnitStrings) {
  for (const auto& [text, bytes] :
       std::vector<std::pair<const char*, std::uint64_t>>{
           {"256MB", 256 * kMiB}, {"64M", 64 * kMiB}, {"4K", 4 * kKiB},
           {"2GB", 2 * kGiB}, {"1.5MB", 3 * kMiB / 2}, {"12345", 12345}}) {
    Conf conf;
    conf.set(kIoSortMb, text);
    const auto parsed = JobConf::parse(conf);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->io_sort_bytes, bytes) << text;
  }
}

TEST(ConfTest, BoolSpellings) {
  Conf conf;
  for (const char* t : {"true", "TRUE", "1", "yes", "on"}) {
    conf.set(kIntegrityEnabled, t);
    EXPECT_TRUE(JobConf::parse(conf)->integrity) << t;
  }
  for (const char* f : {"false", "FALSE", "0", "no", "off"}) {
    conf.set(kIntegrityEnabled, f);
    EXPECT_FALSE(JobConf::parse(conf)->integrity) << f;
  }
}

// The first rejected key, named in the error; a clean parse otherwise.
std::string parse_error(const Conf& conf) {
  const auto parsed = JobConf::parse(conf);
  return parsed.ok() ? "" : parsed.status().message();
}

std::string parse_error(const char* key, const char* value) {
  Conf conf;
  conf.set(key, value);
  return parse_error(conf);
}

// A key nothing reads (misspelled, or a setting that became a constant)
// is an error, not silently ignored. Every unknown key is named.
TEST(JobConfTest, RejectsUnknownKeys) {
  Conf conf;
  conf.set("mapred.no.such.key", "1");
  conf.set("dfs.block.size", "64MB");
  conf.set_int(kNumReduces, 2);
  EXPECT_EQ(parse_error(conf),
            "unknown conf key(s): dfs.block.size, mapred.no.such.key");
}

// The lenient getters read "12abc" as 12 and "abc" or "maybe" as the
// default; the parse rejects each.
TEST(JobConfTest, RejectsMalformedValues) {
  for (const auto& [key, value] :
       std::vector<std::pair<const char*, const char*>>{
           {kNumReduces, "12abc"}, {kNumReduces, "abc"}, {kNumReduces, ""},
           {kNumReduces, "1.5"}, {kNumReduces, " 4"},
           {kIoSortFactor, "abc"}, {kIntegrityEnabled, "maybe"},
           {kCachingEnabled, ""}, {kSlowstart, "0.5x"}, {kSlowstart, "nan"},
           {kTaskStartupSec, "inf"}, {kTaskStartupSec, "1e999"},
           {kIoSortMb, "12abc"}, {kIoSortMb, "-5"}, {kCacheBytes, "MB"}}) {
    const std::string error = parse_error(key, value);
    EXPECT_EQ(error.rfind(std::string(key) + "=" + value + ": not ", 0), 0u)
        << key << "=" << value << " -> " << error;
  }
}

TEST(JobConfTest, RejectsOutOfRangeValues) {
  for (const auto& [key, value] :
       std::vector<std::pair<const char*, const char*>>{
           {kNumReduces, "0"}, {kNumReduces, "-3"},
           {kNumReduces, "3000000000"}, {kIoSortFactor, "1"},
           {kIoSortFactor, "0"}, {kResponderThreads, "0"},
           {kMaxTaskAttempts, "0"}, {kRdmaKvPerPacket, "-1"},
           {kFetchMaxRetries, "-1"}, {kBlacklistFailures, "0"},
           {kIoSortMb, "0"}, {kMaxRecordBytes, "0"},
           {kSlowstart, "-0.1"}, {kSlowstart, "1.5"},
           {kMapFailureProb, "1.01"}, {kStragglerProb, "-1"},
           {kStragglerSlowdown, "0.5"}, {kTaskStartupSec, "-1"},
           {kFetchTimeoutSec, "-1"}, {kFetchBackoffBaseSec, "-0.1"},
           {kFetchBackoffMaxSec, "-5"}, {kFetchBackoffJitter, "-0.25"},
           {kSpeculativeIntervalSec, "0"}, {kSpeculativeIntervalSec, "-1"},
           {kSpeculativeMinRuntimeSec, "-3"}, {kKvInflation, "0"},
           {kShuffleBufferBytes, "99999999999999999999"},
           {kCacheBytes, "4194305T"}, {kNumReduces, "2147483647"},
           {kNumReduces, "100001"}, {kResponderThreads, "2147483647"},
           {kResponderThreads, "1025"}}) {
    const std::string error = parse_error(key, value);
    EXPECT_EQ(error.rfind(std::string(key) + "=" + value + ": must be ", 0),
              0u)
        << key << "=" << value << " -> " << error;
  }
  // The range ends themselves are accepted.
  for (const auto& [key, value] :
       std::vector<std::pair<const char*, const char*>>{
           {kNumReduces, "1"}, {kNumReduces, "100000"}, {kIoSortFactor, "2"},
           {kResponderThreads, "1"}, {kResponderThreads, "1024"},
           {kMaxTaskAttempts, "1"}, {kFetchMaxRetries, "0"},
           {kSlowstart, "0"}, {kSlowstart, "1"}, {kFetchTimeoutSec, "0"},
           {kStragglerSlowdown, "1"}, {kSpeculativeIntervalSec, "1e-9"}}) {
    EXPECT_EQ(parse_error(key, value), "") << key << "=" << value;
  }
}

TEST(FetchRetryPolicyTest, FromConfDefaultsAndOverrides) {
  const auto defaults = JobConf::parse(Conf{})->retry;
  EXPECT_EQ(defaults.fetch_timeout, 60.0);
  EXPECT_EQ(defaults.max_retries, 10);
  EXPECT_EQ(defaults.backoff_base, 0.2);
  EXPECT_EQ(defaults.backoff_max, 5.0);
  EXPECT_EQ(defaults.backoff_jitter, 0.25);
  EXPECT_EQ(defaults.blacklist_threshold, 3);

  Conf conf;
  conf.set_double(kFetchTimeoutSec, 2.5);
  conf.set_int(kFetchMaxRetries, 4);
  conf.set_double(kFetchBackoffBaseSec, 0.05);
  conf.set_double(kFetchBackoffMaxSec, 1.5);
  conf.set_double(kFetchBackoffJitter, 0.0);
  conf.set_int(kBlacklistFailures, 7);
  const auto tuned = JobConf::parse(conf)->retry;
  EXPECT_EQ(tuned.fetch_timeout, 2.5);
  EXPECT_EQ(tuned.max_retries, 4);
  EXPECT_EQ(tuned.backoff_base, 0.05);
  EXPECT_EQ(tuned.backoff_max, 1.5);
  EXPECT_EQ(tuned.backoff_jitter, 0.0);
  EXPECT_EQ(tuned.blacklist_threshold, 7);
}

TEST(FetchRetryPolicyTest, BackoffGrowsIsCappedAndDeterministic) {
  FetchRetryPolicy policy;
  policy.backoff_base = 0.2;
  policy.backoff_max = 5.0;
  policy.backoff_jitter = 0.25;
  Rng a(42, "backoff.test");
  Rng b(42, "backoff.test");
  double prev = 0.0;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double d_a = policy.backoff(attempt, a);
    const double d_b = policy.backoff(attempt, b);
    EXPECT_EQ(d_a, d_b) << "attempt " << attempt;  // same stream, same delay
    EXPECT_GE(d_a, policy.backoff_base);
    EXPECT_LE(d_a, policy.backoff_max * (1.0 + policy.backoff_jitter));
    if (attempt <= 5) {
      EXPECT_GT(d_a, prev);  // exponential phase
    }
    prev = d_a;
  }
  // Without jitter the schedule is the exact capped power-of-two ramp.
  policy.backoff_jitter = 0.0;
  EXPECT_EQ(policy.backoff(1, a), 0.2);
  EXPECT_EQ(policy.backoff(2, a), 0.4);
  EXPECT_EQ(policy.backoff(3, a), 0.8);
  EXPECT_EQ(policy.backoff(10, a), 5.0);  // capped
}

// Arms `id` on `watch` at simulated time `at`.
sim::Task<> arm_at(sim::Engine& engine, std::shared_ptr<FetchTimeouts> timeouts,
                   std::shared_ptr<FetchWatch> watch, double at,
                   std::uint64_t id) {
  co_await engine.delay_until(at);
  timeouts->arm(std::move(watch), id);
}

// Records every event posted to `watch` with its arrival time.
struct Expiry {
  double at;
  std::uint64_t id;
};
sim::Task<> collect(sim::Engine& engine, std::shared_ptr<FetchWatch> watch,
                    int count, std::vector<Expiry>& out) {
  for (int i = 0; i < count; ++i) {
    auto event = co_await watch->events.recv();
    EXPECT_FALSE(event->msg.has_value());
    out.push_back(Expiry{engine.now(), event->timer_id});
  }
}

TEST(FetchTimeoutsTest, ArmedRequestFiresAtArmTimePlusTimeout) {
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 60.0);
  auto a = std::make_shared<FetchWatch>(engine, 4);
  auto b = std::make_shared<FetchWatch>(engine, 4);
  engine.spawn(arm_at(engine, timeouts, a, 2.5, 7));
  engine.spawn(arm_at(engine, timeouts, b, 3.25, 9));
  std::vector<Expiry> fired_a, fired_b;
  engine.spawn(collect(engine, a, 1, fired_a));
  engine.spawn(collect(engine, b, 1, fired_b));
  engine.run();
  ASSERT_EQ(fired_a.size(), 1u);
  EXPECT_EQ(fired_a[0].at, 2.5 + 60.0);
  EXPECT_EQ(fired_a[0].id, 7u);
  ASSERT_EQ(fired_b.size(), 1u);
  EXPECT_EQ(fired_b[0].at, 3.25 + 60.0);
  EXPECT_EQ(fired_b[0].id, 9u);
  EXPECT_EQ(a->armed_id, 0u);  // a fired request is no longer armed
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(FetchTimeoutsTest, AnsweredRequestNeverFires) {
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 60.0);
  auto watch = std::make_shared<FetchWatch>(engine, 4);
  engine.spawn(arm_at(engine, timeouts, watch, 1.0, 1));
  engine.spawn([](sim::Engine& engine, FetchWatch& watch) -> sim::Task<> {
    co_await engine.delay(2.0);
    EXPECT_EQ(watch.armed_id, 1u);
    watch.armed_id = 0;  // the matching response arrived
  }(engine, *watch));
  engine.run();
  EXPECT_TRUE(watch->events.empty());
  EXPECT_EQ(engine.live_processes(), 0);  // the sleeper exited
}

TEST(FetchTimeoutsTest, ReArmAfterRelocationFiresOnlyNewestId) {
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 60.0);
  auto watch = std::make_shared<FetchWatch>(engine, 4);
  // Request 1 is abandoned unanswered when the fetch relocates; its
  // retry, request 2, goes to the new tracker and times out too.
  engine.spawn(arm_at(engine, timeouts, watch, 0.0, 1));
  engine.spawn(arm_at(engine, timeouts, watch, 10.0, 2));
  std::vector<Expiry> fired;
  engine.spawn(collect(engine, watch, 1, fired));
  engine.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].at, 70.0);
  EXPECT_EQ(fired[0].id, 2u);
  EXPECT_TRUE(watch->events.empty());
}

TEST(FetchTimeoutsTest, ZeroTimeoutArmsNothing) {
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 0.0);
  auto watch = std::make_shared<FetchWatch>(engine, 4);
  timeouts->arm(watch, 1);
  EXPECT_EQ(watch->armed_id, 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run();
  EXPECT_TRUE(watch->events.empty());
  EXPECT_EQ(engine.now(), 0.0);
}

TEST(FetchTimeoutsTest, AnsweredRequestsLeaveAtMostOnePendingEvent) {
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 60.0);
  auto watch = std::make_shared<FetchWatch>(engine, 4);
  std::size_t peak = 0;
  engine.spawn([](sim::Engine& engine, std::shared_ptr<FetchTimeouts> timeouts,
                  std::shared_ptr<FetchWatch> watch,
                  std::size_t& peak) -> sim::Task<> {
    for (std::uint64_t id = 1; id <= 10000; ++id) {
      timeouts->arm(watch, id);
      co_await engine.delay(0.001);
      watch->armed_id = 0;  // answered
      peak = std::max(peak, engine.pending_events());
    }
  }(engine, timeouts, watch, peak));
  engine.run();
  EXPECT_LE(peak, 1u);  // the sleeper's one wakeup
  EXPECT_TRUE(watch->events.empty());
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(FetchTimeoutsTest, PendingEntryPinsItsOwner) {
  struct Owner {
    explicit Owner(sim::Engine& engine) : watch(engine, 4) {}
    FetchWatch watch;
  };
  sim::Engine engine;
  auto timeouts = std::make_shared<FetchTimeouts>(engine, 5.0);
  auto owner = std::make_shared<Owner>(engine);
  std::weak_ptr<Owner> alive = owner;
  timeouts->arm(std::shared_ptr<FetchWatch>(owner, &owner->watch), 1);
  owner.reset();  // the copier finished with the request still armed
  engine.run_until(4.0);
  EXPECT_FALSE(alive.expired());
  engine.run();
  EXPECT_TRUE(alive.expired());  // released once the entry fired
}

// A job with no input and no trackers: enough runtime for one copier's
// exchange ladder, without any shuffle engine or transport under it.
struct ExchangeWorld {
  sim::Engine engine;
  net::Cluster cluster{engine, net::NetProfile::ipoib_qdr(),
                       net::Cluster::uniform(2, 1)};
  net::Network network{engine, net::NetProfile::ipoib_qdr()};
  hdfs::MiniDfs dfs{cluster, network, hdfs::HdfsParams{}, 0, {1}};
  std::unique_ptr<JobRuntime> job;
  std::shared_ptr<FetchTimeouts> timeouts =
      std::make_shared<FetchTimeouts>(engine, 60.0);
  std::shared_ptr<FetchWatch> watch = std::make_shared<FetchWatch>(engine, 8);

  ExchangeWorld() {
    JobConf conf;
    conf.num_reduces = 1;
    job = std::make_unique<JobRuntime>(cluster, network, dfs, JobSpec{}, conf,
                                       /*trackers=*/std::vector<TaskTrackerState*>{},
                                       /*job_id=*/1);
  }
  std::int64_t counter(const std::string& name) {
    return job->result.counters[name];
  }
};

// The test transport's frame format: the tag says how to classify the
// frame, and a frame that is mine carries a body whose CRC must equal
// the CRC of kGoodBody.
constexpr std::uint64_t kTagMalformed = 0;
constexpr std::uint64_t kTagStale = 1;
constexpr std::uint64_t kTagMine = 2;
const Bytes kGoodBody = {1, 2, 3, 4};

FetchVerdict classify_test_frame(const net::Message& msg) {
  FetchVerdict verdict;
  if (msg.tag == kTagStale) verdict.kind = FetchVerdict::kStale;
  if (msg.tag != kTagMine) return verdict;
  verdict.kind = FetchVerdict::kMine;
  verdict.verify = true;
  verdict.body = *msg.payload;
  verdict.crc = crc32c(kGoodBody);
  verdict.modeled = msg.modeled_bytes;
  return verdict;
}

FetchEvent frame(std::uint64_t tag, Bytes body = {}) {
  FetchEvent event;
  event.msg = net::Message::data(std::move(body), 1.0, tag);
  return event;
}

FetchEvent expiry(std::uint64_t timer_id) {
  FetchEvent event;
  event.timer_id = timer_id;
  return event;
}

sim::Task<> run_exchange(ExchangeWorld& w, const FetchTransport& transport,
                         std::optional<net::Message>& out, double& done) {
  out = co_await fetch_exchange(*w.job, w.cluster.host(1), /*map_id=*/0,
                                *w.timeouts, w.watch, transport);
  done = w.engine.now();
}

// --- reduce-side batches ---------------------------------------------

// A 14-byte record (7-byte key, 5-byte value); keys ascend with i.
dataplane::KvPair batch_record(int i) {
  return dataplane::make_kv("key" + std::to_string(1000 + i), "value");
}

// Feeds `records` records through a KvBatcher, flushing whenever add()
// asks, then once more at the end and once on an empty batch. Records
// the simulated time each flush took (its merge-CPU charge).
sim::Task<> feed_batcher(ExchangeWorld& w, KvSink& sink, bool hold_back,
                         int records, std::vector<double>* flush_seconds) {
  KvBatcher batcher(*w.job, w.cluster.host(1), sink, hold_back);
  const auto timed_flush = [&]() -> sim::Task<> {
    const double t0 = w.engine.now();
    co_await batcher.flush();
    flush_seconds->push_back(w.engine.now() - t0);
  };
  for (int i = 0; i < records; ++i) {
    const bool full = batcher.add(dataplane::KvView(batch_record(i)));
    EXPECT_EQ(full, (i + 1) % KvBatcher::kBatchRecords == 0) << i;
    if (full) co_await timed_flush();
  }
  co_await timed_flush();
  co_await timed_flush();  // nothing pending: no charge, no batch
  if (hold_back) {
    EXPECT_TRUE(sink.empty());  // nothing was sent before send_held()
  }
  co_await batcher.send_held();
  sink.close();
}

sim::Task<> collect_batches(KvSink& sink, std::vector<KvBatch>* out) {
  while (auto batch = co_await sink.recv()) out->push_back(std::move(*batch));
}

TEST(KvBatcherTest, FlushesEvery256RecordsAndChargesTheBatchBytes) {
  for (const bool hold_back : {false, true}) {
    ExchangeWorld w;
    KvSink sink(w.engine, /*capacity=*/16);
    std::vector<double> flush_seconds;
    std::vector<KvBatch> batches;
    w.engine.spawn(feed_batcher(w, sink, hold_back, 600, &flush_seconds));
    w.engine.spawn(collect_batches(sink, &batches));
    w.engine.run();

    // 600 records: two full batches, an 88-record tail, and no batch for
    // the empty flush. Each batch is the records' IFile bytes in order.
    ASSERT_EQ(batches.size(), 3u) << hold_back;
    const std::uint64_t counts[] = {256, 256, 88};
    int next = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      EXPECT_EQ(batches[b].count, counts[b]);
      std::vector<dataplane::KvPair> expected;
      for (std::uint64_t i = 0; i < counts[b]; ++i) {
        expected.push_back(batch_record(next++));
      }
      EXPECT_EQ(batches[b].records, dataplane::encode_run(expected));
      EXPECT_EQ(batches[b].records.size(), counts[b] * 14);
    }
    // Each flush charges the batch's bytes at the merge CPU rate (data
    // scale 1: real bytes are modeled bytes); the empty flush charges 0.
    ASSERT_EQ(flush_seconds.size(), 4u);
    for (size_t b = 0; b < 3; ++b) {
      EXPECT_NEAR(flush_seconds[b],
                  double(batches[b].records.size()) / CostModel::kMergeCpuBw,
                  1e-12);
    }
    EXPECT_EQ(flush_seconds[3], 0.0);
  }
}

// The sorted input of a TeraSort, serialized in IFile layout.
Bytes sorted_input(hdfs::MiniDfs& dfs, const std::string& dir) {
  std::vector<dataplane::KvPair> records;
  for (const auto& part : dfs.list(dir + "/")) {
    auto decoded = dataplane::decode_run(dfs.peek(part).value()).value();
    records.insert(records.end(), decoded.begin(), decoded.end());
  }
  std::sort(records.begin(), records.end(), dataplane::KvLess{});
  return dataplane::encode_run(records);
}

TEST(ReduceTaskTest, IdentityReduceWritesMergedBytesUnchanged) {
  // TeraSort's range partitioner makes the output parts, in reduce
  // order, the whole sorted input: the identity reduce must write the
  // merged batches' bytes as they are, and count every record in and out.
  for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
    SmallJob small;
    Testbed bed(small.bed_spec);
    const auto digest = bed.generate("teragen", small.gen);
    ASSERT_TRUE(digest.ok());
    Conf conf;
    conf.set(kShuffleEngine, engine);
    const auto result = bed.run_job(
        workloads::terasort_job(bed.dfs(), "/in", "/out", conf));
    Bytes output;
    for (const auto& part : bed.dfs().list("/out/")) {
      const Bytes bytes = bed.dfs().peek(part).value();
      output.insert(output.end(), bytes.begin(), bytes.end());
    }
    EXPECT_EQ(output, sorted_input(bed.dfs(), "/in")) << engine;
    const auto records = std::int64_t(digest->records);
    EXPECT_EQ(result.counter("REDUCE_INPUT_RECORDS"), records) << engine;
    EXPECT_EQ(result.counter("REDUCE_OUTPUT_RECORDS"), records) << engine;
  }
}

TEST(ServletRequestTest, FrameRoundTripsAndBadFramesAreMalformed) {
  // The servlet's one check of a frame: anything but a request-tagged
  // frame whose payload is exactly {map_id, reduce_id} is malformed,
  // dropped and counted, never an abort.
  const net::Message good = ServletRequest{7, 3}.frame();
  const auto decoded = ServletRequest::from_frame(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->map_id, 7);
  EXPECT_EQ(decoded->reduce_id, 3);

  net::Message wrong_tag = good;
  wrong_tag.tag += 1;
  EXPECT_FALSE(ServletRequest::from_frame(wrong_tag).ok());
  EXPECT_FALSE(
      ServletRequest::from_frame(net::Message::control(good.tag, 150)).ok());
  Bytes body = *good.payload;
  body.pop_back();
  EXPECT_FALSE(
      ServletRequest::from_frame(net::Message::data(body, 1.0, good.tag))
          .ok());
  body = *good.payload;
  body.push_back(0);
  EXPECT_FALSE(
      ServletRequest::from_frame(net::Message::data(body, 1.0, good.tag))
          .ok());
}

TEST(TaskTrackerStateTest, FindOutputKeysByJobAndMap) {
  // Both servers look a request's output up by (job id, map id) off the
  // wire; an id the tracker does not serve is null, and the servers drop
  // the request as malformed.
  ExchangeWorld w;
  TaskTrackerState tracker(w.engine, w.cluster.host(1));
  MapOutputInfo info;
  info.output = std::make_shared<MapOutput>();
  info.map_id = 3;
  tracker.map_outputs.emplace(dataplane::map_output_id(1, 3), info);
  info.map_id = 30;  // another job's map 3
  tracker.map_outputs.emplace(dataplane::map_output_id(2, 3), info);

  ASSERT_NE(tracker.find_output(1, 3), nullptr);
  EXPECT_EQ(tracker.find_output(1, 3)->map_id, 3);
  ASSERT_NE(tracker.find_output(2, 3), nullptr);
  EXPECT_EQ(tracker.find_output(2, 3)->map_id, 30);
  EXPECT_EQ(tracker.find_output(1, 4), nullptr);
  EXPECT_EQ(tracker.find_output(3, 3), nullptr);
  EXPECT_EQ(tracker.find_output(1, 0xffffffffu), nullptr);
}

TEST(FetchExchangeTest, DropsBadFramesAndReturnsTheMatchingOne) {
  ExchangeWorld w;
  w.watch->timer_seq = 4;  // this exchange arms timer 5
  FetchTransport transport;
  transport.send = [&w]() -> sim::Task<> {
    EXPECT_TRUE(w.watch->events.try_send(frame(kTagMalformed)));
    EXPECT_TRUE(w.watch->events.try_send(frame(kTagMine, {9, 9, 9, 9})));
    EXPECT_TRUE(w.watch->events.try_send(frame(kTagStale, kGoodBody)));
    EXPECT_TRUE(w.watch->events.try_send(expiry(4)));
    EXPECT_TRUE(w.watch->events.try_send(frame(kTagMine, kGoodBody)));
    co_return;
  };
  transport.classify = classify_test_frame;
  std::optional<net::Message> response;
  double done = -1;
  w.engine.spawn(run_exchange(w, transport, response, done));
  w.engine.run();

  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->tag, kTagMine);
  EXPECT_EQ(*response->payload, kGoodBody);
  EXPECT_LT(done, 60.0);
  EXPECT_EQ(w.counter("shuffle.fetch.requests"), 1);
  EXPECT_EQ(w.counter("shuffle.malformed_msgs"), 2);  // one is the CRC
  EXPECT_EQ(w.counter("shuffle.fetch.stale_dropped"), 1);
  EXPECT_EQ(w.watch->armed_id, 0u);
  EXPECT_EQ(w.watch->timer_seq, 5u);
  EXPECT_TRUE(w.watch->events.empty());  // its own timer never fired
}

TEST(FetchExchangeTest, UnansweredRequestTimesOutAtSendPlusTimeout) {
  ExchangeWorld w;
  FetchTransport transport;
  transport.send = [&w]() -> sim::Task<> { co_await w.engine.delay(2.5); };
  transport.classify = classify_test_frame;
  std::optional<net::Message> response;
  double done = -1;
  w.engine.spawn(run_exchange(w, transport, response, done));
  w.engine.run();

  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(done, 2.5 + 60.0);
  EXPECT_EQ(w.counter("shuffle.fetch.requests"), 1);
  EXPECT_EQ(w.counter("shuffle.malformed_msgs"), 0);
  EXPECT_EQ(w.watch->armed_id, 0u);
}

workloads::RunConfig tiny_vanilla() {
  workloads::RunConfig config;
  config.setup = workloads::EngineSetup::ipoib();
  config.workload = "terasort";
  config.sort_modeled_bytes = 512 * kMiB;
  config.nodes = 3;
  config.block_size = 32 * kMiB;
  config.target_real_bytes = 2 * kMiB;
  return config;
}

TEST(VanillaRecoveryTest, KilledTrackerRecoversWithIdenticalOutput) {
  const auto clean = workloads::run_experiment(tiny_vanilla());
  ASSERT_TRUE(clean.validated);

  // The HTTP servlet on host 1 hangs before the shuffle starts: every
  // fetch from it must time out, blacklist it, and re-run its maps.
  sim::FaultPlan plan(3);
  plan.kill_tracker(1, 0.0);
  auto config = tiny_vanilla();
  config.faults = &plan;
  config.setup.extra.set_double(kFetchTimeoutSec, 2.0);
  config.setup.extra.set_double(kFetchBackoffBaseSec, 0.1);
  config.setup.extra.set_double(kFetchBackoffMaxSec, 0.5);
  config.setup.extra.set_int(kBlacklistFailures, 2);
  const auto faulted = workloads::run_experiment(config);

  ASSERT_TRUE(faulted.validated);
  EXPECT_EQ(faulted.validation.digest.records, clean.validation.digest.records);
  EXPECT_EQ(faulted.validation.digest.checksum,
            clean.validation.digest.checksum);
  EXPECT_GT(faulted.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_EQ(faulted.job.counter("shuffle.trackers.blacklisted"), 1);
  EXPECT_GT(faulted.job.counter("shuffle.refetch.reruns"), 0);
  EXPECT_GT(faulted.job.counter("shuffle.refetch.bytes"), 0);
}

TEST(VanillaRecoveryTest, DroppedResponsesRetryToCompletion) {
  sim::FaultPlan plan(9);
  plan.drop_responses(2, 0.2);
  auto config = tiny_vanilla();
  config.faults = &plan;
  config.setup.extra.set_double(kFetchTimeoutSec, 1.0);
  config.setup.extra.set_double(kFetchBackoffBaseSec, 0.05);
  config.setup.extra.set_double(kFetchBackoffMaxSec, 0.2);
  config.setup.extra.set_int(kBlacklistFailures, 1000000);
  config.setup.extra.set_int(kFetchMaxRetries, 50);
  const auto outcome = workloads::run_experiment(config);
  ASSERT_TRUE(outcome.validated);
  EXPECT_GT(outcome.job.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_GT(outcome.job.counter("shuffle.fetch.retries"), 0);
  EXPECT_EQ(outcome.job.counter("shuffle.trackers.blacklisted"), 0);
}

}  // namespace
}  // namespace hmr::mapred
