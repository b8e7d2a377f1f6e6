// Tests for the workload generators and validators: the pieces that
// decide whether a shuffle engine's output counts as correct.
#include <gtest/gtest.h>

#include "common/units.h"
#include "dataplane/kv.h"
#include "workloads/benchjson.h"
#include "workloads/datagen.h"
#include "workloads/experiment.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

namespace hmr::workloads {
namespace {

using dataplane::KvPair;

TestbedSpec small_bed() {
  TestbedSpec spec;
  spec.nodes = 3;
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

DataGenSpec small_gen() {
  DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 16 * kMiB;
  gen.part_modeled = 4 * kMiB;
  gen.scale = 8.0;
  gen.seed = 5;
  return gen;
}

TEST(DatagenTest, TeragenWritesBlockSizedParts) {
  Testbed bed(small_bed());
  auto digest = bed.generate("teragen", small_gen());
  EXPECT_TRUE(digest.ok());
  const auto parts = bed.dfs().list("/in/");
  EXPECT_EQ(parts.size(), 4u);
  for (const auto& part : parts) {
    const auto info = bed.dfs().stat(part).value();
    EXPECT_EQ(info.blocks.size(), 1u) << part << " must be single-block";
    EXPECT_LE(info.modeled_size(), 4 * kMiB);
    EXPECT_GT(info.modeled_size(), 3 * kMiB);
  }
}

TEST(DatagenTest, TeragenRecordsAre100ByteRows) {
  Testbed bed(small_bed());
  EXPECT_TRUE(bed.generate("teragen", small_gen()).ok());
  auto payload = bed.dfs().peek(bed.dfs().list("/in/").front()).value();
  auto records = dataplane::decode_run(payload).value();
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_EQ(record.key.size(), 10u);
    EXPECT_EQ(record.value.size(), 90u);
  }
}

TEST(DatagenTest, DeterministicDigestPerSeed) {
  auto digest_for = [](std::uint64_t seed) {
    Testbed bed(small_bed());
    auto gen = small_gen();
    gen.seed = seed;
    return bed.generate("teragen", gen).value();
  };
  EXPECT_EQ(digest_for(1), digest_for(1));
  EXPECT_NE(digest_for(1).checksum, digest_for(2).checksum);
}

TEST(DatagenTest, RandomWriterRespectsInflation) {
  Testbed bed(small_bed());
  auto gen = small_gen();
  gen.scale = 64.0;
  gen.record_inflation = 8.0;  // real records shrink 8x vs scale
  EXPECT_TRUE(bed.generate("randomwriter", gen).ok());
  auto payload = bed.dfs().peek(bed.dfs().list("/in/").front()).value();
  auto records = dataplane::decode_run(payload).value();
  ASSERT_FALSE(records.empty());
  std::uint64_t max_real = 0;
  for (const auto& record : records) {
    max_real = std::max<std::uint64_t>(
        max_real, record.key.size() + record.value.size());
  }
  // Paper records reach ~20010 bytes; carried at inflation/scale = 1/8.
  EXPECT_LE(max_real, 20010u / 8u + 16u);
  EXPECT_GT(max_real, 200u);  // variable sizes did show up
}

TEST(DatagenTest, TextgenProducesVocabularyWords) {
  Testbed bed(small_bed());
  EXPECT_TRUE(bed.generate("textgen", small_gen()).ok());
  auto payload = bed.dfs().peek(bed.dfs().list("/in/").front()).value();
  auto records = dataplane::decode_run(payload).value();
  ASSERT_FALSE(records.empty());
  const std::string text(records[0].value.begin(), records[0].value.end());
  EXPECT_NE(text.find(' '), std::string::npos);
}

TEST(DatagenTest, DigestFoldIsOrderIndependent) {
  DatasetDigest a, b;
  const auto r1 = dataplane::make_kv("key1", "value1");
  const auto r2 = dataplane::make_kv("key2", "value2");
  a.fold(r1.key, r1.value);
  a.fold(r2.key, r2.value);
  b.fold(r2.key, r2.value);
  b.fold(r1.key, r1.value);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.records, 2u);
}

TEST(ValidateTest, DetectsMissingOutput) {
  Testbed bed(small_bed());
  EXPECT_FALSE(validate_output(bed.dfs(), "/nothing").ok());
}

TEST(ValidateTest, DetectsUnsortedPart) {
  Testbed bed(small_bed());
  std::vector<KvPair> unsorted = {dataplane::make_kv("zz", "1"),
                                  dataplane::make_kv("aa", "2")};
  bed.engine().spawn([](Testbed& bed, Bytes run) -> sim::Task<> {
    co_await bed.dfs().write(bed.cluster().host(1), "/out/part-00000",
                             std::move(run));
  }(bed, dataplane::encode_run(unsorted)));
  bed.engine().run();
  const auto report = validate_output(bed.dfs(), "/out").value();
  EXPECT_FALSE(report.per_part_sorted);
  EXPECT_FALSE(report.globally_sorted);
}

TEST(ValidateTest, DetectsCrossPartDisorder) {
  Testbed bed(small_bed());
  std::vector<KvPair> high = {dataplane::make_kv("zz", "1")};
  std::vector<KvPair> low = {dataplane::make_kv("aa", "2")};
  bed.engine().spawn([](Testbed& bed, Bytes a, Bytes b) -> sim::Task<> {
    co_await bed.dfs().write(bed.cluster().host(1), "/out/part-00000",
                             std::move(a));
    co_await bed.dfs().write(bed.cluster().host(1), "/out/part-00001",
                             std::move(b));
  }(bed, dataplane::encode_run(high), dataplane::encode_run(low)));
  bed.engine().run();
  const auto report = validate_output(bed.dfs(), "/out").value();
  EXPECT_TRUE(report.per_part_sorted);
  EXPECT_FALSE(report.globally_sorted);
}

TEST(ValidateTest, DigestCatchesContentTampering) {
  Testbed bed(small_bed());
  auto digest = bed.generate("teragen", small_gen()).value();
  // "Sort" that drops a record: digest must not match.
  DatasetDigest tampered = digest;
  const auto r = dataplane::make_kv("extra", "record");
  tampered.fold(r.key, r.value);
  EXPECT_NE(tampered, digest);
}

TEST(ExperimentTest, BlockSizeDefaultsFollowThePaper) {
  // TeraSort: 256 MB (128 MB for Hadoop-A); Sort: 64 MB (§IV-B/C).
  RunConfig config;
  config.setup = EngineSetup::osu_ib();
  config.workload = "terasort";
  config.sort_modeled_bytes = 1 * kGiB;
  config.nodes = 2;
  config.target_real_bytes = 1 * kMiB;
  const auto osu = run_experiment(config);
  EXPECT_EQ(osu.job.num_maps, 4);  // 1 GB / 256 MB

  config.setup = EngineSetup::hadoop_a();
  const auto hadoop_a = run_experiment(config);
  EXPECT_EQ(hadoop_a.job.num_maps, 8);  // 1 GB / 128 MB

  config.setup = EngineSetup::osu_ib();
  config.workload = "sort";
  const auto sort = run_experiment(config);
  EXPECT_EQ(sort.job.num_maps, 16);  // 1 GB / 64 MB
}

TEST(ExperimentTest, SeedsChangeLayoutNotValidity) {
  RunConfig config;
  config.setup = EngineSetup::osu_ib();
  config.workload = "terasort";
  config.sort_modeled_bytes = 1 * kGiB;
  config.nodes = 2;
  config.target_real_bytes = 1 * kMiB;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    config.seed = seed;
    EXPECT_TRUE(run_experiment(config).validated) << "seed " << seed;
  }
}

// One Deployment runs two jobs into two output directories over one
// generated input: each output validates against that input, and the
// testbed, alive past both jobs, holds both jobs' fetches in its registry.
TEST(DeploymentTest, TwoJobsShareOneInputAndOneRegistry) {
  RunConfig config;
  config.setup = EngineSetup::osu_ib();
  config.sort_modeled_bytes = 256 * kMiB;
  config.nodes = 2;
  config.block_size = 64 * kMiB;
  config.target_real_bytes = 1 * kMiB;
  Deployment deployment = Deployment::create(config);
  const RunOutcome first = deployment.run("/bench/out1");
  const RunOutcome second = deployment.run("/bench/out2");
  for (const RunOutcome* outcome : {&first, &second}) {
    EXPECT_EQ(outcome->input, deployment.input());
    EXPECT_TRUE(outcome->output_present);
    EXPECT_TRUE(outcome->validation.valid_terasort(deployment.input()));
    EXPECT_TRUE(outcome->validated);
  }
  const std::int64_t first_requests =
      first.job.counter("shuffle.fetch.requests");
  const std::int64_t second_requests =
      second.job.counter("shuffle.fetch.requests");
  EXPECT_GT(first_requests, 0);
  EXPECT_GT(second_requests, 0);
  EXPECT_EQ(deployment.bed().engine().metrics().counter_value(
                "shuffle.fetch.requests"),
            first_requests + second_requests);
}

}  // namespace
}  // namespace hmr::workloads

#include "workloads/report.h"

namespace hmr::workloads {
namespace {

TEST(ReportTest, JobReportCarriesCountersAndPhases) {
  Testbed bed(small_bed());
  EXPECT_TRUE(bed.generate("teragen", small_gen()).ok());
  const auto result =
      bed.run_job(terasort_job(bed.dfs(), "/in", "/out", Conf{}));
  const std::string report = job_report(result);
  EXPECT_NE(report.find("job time"), std::string::npos);
  EXPECT_NE(report.find("MAP_INPUT_RECORDS"), std::string::npos);
  EXPECT_NE(report.find("shuffled"), std::string::npos);
  EXPECT_NE(report.find("overlap"), std::string::npos);
}

TEST(ReportTest, JobReportListsOnlyNonZeroJobCounters) {
  Testbed bed(small_bed());
  EXPECT_TRUE(bed.generate("teragen", small_gen()).ok());
  const auto result =
      bed.run_job(terasort_job(bed.dfs(), "/in", "/out", Conf{}));
  // Job counters are registered at job start, so a healthy run carries
  // its recovery counters at zero next to the ones it did bump.
  ASSERT_EQ(result.counters.count("shuffle.fetch.timeouts"), 1u);
  EXPECT_EQ(result.counter("shuffle.fetch.timeouts"), 0);
  EXPECT_GT(result.counter("shuffle.fetch.requests"), 0);
  const std::string report = job_report(result);
  EXPECT_NE(report.find("shuffle.fetch.requests"), std::string::npos);
  EXPECT_EQ(report.find("shuffle.fetch.timeouts"), std::string::npos);
  EXPECT_EQ(report.find("shuffle recovery"), std::string::npos);
}

TEST(MetricsTest, PhaseTimesConsistentAcrossEngines) {
  for (const char* engine : {"vanilla", "hadoop-a", "osu-ib"}) {
    Testbed bed(small_bed());
    ASSERT_TRUE(bed.generate("teragen", small_gen()).ok());
    Conf conf;
    conf.set(mapred::kShuffleEngine, engine);
    const auto result =
        bed.run_job(terasort_job(bed.dfs(), "/in", "/out", conf));
    const double wall = result.elapsed();
    ASSERT_GT(wall, 0.0) << engine;

    const auto phases = result.phases();
    for (double phase :
         {phases.map, phases.shuffle, phases.merge, phases.reduce}) {
      EXPECT_GE(phase, 0.0) << engine;
      EXPECT_LE(phase, wall + 1e-9) << engine;
    }
    // The map wave and the shuffle both take real time on every engine.
    EXPECT_GT(phases.map, 0.0) << engine;
    EXPECT_GT(phases.shuffle, 0.0) << engine;
    EXPECT_GE(result.overlap_fraction(), 0.0) << engine;
    EXPECT_LE(result.overlap_fraction(), 1.0) << engine;

    // The end-of-job snapshot carries the cluster's counters.
    EXPECT_GT(result.metrics.counters.size(), 0u) << engine;
    EXPECT_GT(result.metrics.counter("net.bytes"), 0) << engine;
  }
}

TEST(BenchJsonTest, SchemaRoundTripsThroughParser) {
  Testbed bed(small_bed());
  ASSERT_TRUE(bed.generate("teragen", small_gen()).ok());
  RunOutcome outcome;
  outcome.job = bed.run_job(terasort_job(bed.dfs(), "/in", "/out", Conf{}));
  outcome.validated = true;

  BenchJson bench("unit", "unit-test figure", "terasort", 3);
  bench.add_run("OSU-IB (32Gbps)", 2.0, outcome);
  const auto parsed = Json::parse(bench.to_json().dump());
  ASSERT_TRUE(parsed.ok());

  EXPECT_EQ(parsed->find("schema")->as_string(), "hmr-bench-v1");
  EXPECT_EQ(parsed->find("figure")->as_string(), "unit");
  EXPECT_EQ(parsed->find("nodes")->as_int(), 3);
  const Json* runs = parsed->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const Json& run = runs->at(0);
  EXPECT_EQ(run.find("series")->as_string(), "OSU-IB (32Gbps)");
  EXPECT_DOUBLE_EQ(run.find("size_gb")->as_double(), 2.0);
  const double seconds = run.find("seconds")->as_double();
  EXPECT_GT(seconds, 0.0);
  const Json* phases = run.find("phases");
  ASSERT_NE(phases, nullptr);
  for (const char* name : {"map", "shuffle", "merge", "reduce"}) {
    const Json* phase = phases->find(name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_GE(phase->as_double(), 0.0) << name;
    EXPECT_LE(phase->as_double(), seconds + 1e-9) << name;
  }
  EXPECT_GE(run.find("overlap_fraction")->as_double(), 0.0);
  EXPECT_LE(run.find("overlap_fraction")->as_double(), 1.0);
  EXPECT_GE(run.find("cache_hit_rate")->as_double(), 0.0);
  EXPECT_LE(run.find("cache_hit_rate")->as_double(), 1.0);
  EXPECT_TRUE(run.find("validated")->as_bool());
  const Json* recovery = run.find("recovery");
  ASSERT_NE(recovery, nullptr);
  for (const char* name :
       {"fetch_timeouts", "fetch_retries", "trackers_blacklisted",
        "map_refetch_reruns", "malformed_msgs"}) {
    ASSERT_NE(recovery->find(name), nullptr) << name;
    EXPECT_GE(recovery->find(name)->as_int(), 0) << name;
  }
}

}  // namespace
}  // namespace hmr::workloads
