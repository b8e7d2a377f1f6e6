// Cross-engine integration tests: the vanilla HTTP shuffle, the OSU-IB
// RDMA engine, and the Hadoop-A comparator must all move every
// key-value pair exactly once into sorted output — and differ only in
// *when* things happen, which the timing assertions pin down.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/units.h"
#include "mapred/types.h"
#include "workloads/experiment.h"

namespace hmr::workloads {
namespace {

RunConfig small_config(EngineSetup setup, const std::string& workload) {
  RunConfig config;
  config.setup = std::move(setup);
  config.workload = workload;
  config.sort_modeled_bytes = 512 * kMiB;
  config.nodes = 3;
  config.disks = 1;
  config.block_size = 32 * kMiB;
  config.target_real_bytes = 2 * kMiB;
  config.seed = 11;
  return config;
}

// run_experiment aborts on validation failure, so "it returned" already
// proves exactly-once sorted delivery; the assertions below pin the rest.

// std::string parameters print as their text, so the test names stay the
// same from run to run (a const char* prints its address as well).
class EngineMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(EngineMatrix, CompletesAndValidates) {
  const auto [engine, workload] = GetParam();
  EngineSetup setup;
  if (engine == "vanilla") setup = EngineSetup::ipoib();
  if (engine == "osu-ib") setup = EngineSetup::osu_ib();
  if (engine == "hadoop-a") setup = EngineSetup::hadoop_a();
  const auto outcome = run_experiment(small_config(setup, workload));
  EXPECT_TRUE(outcome.validated);
  EXPECT_GT(outcome.seconds(), 0.0);
  EXPECT_GT(outcome.job.shuffled_modeled_bytes, 400 * kMiB);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesBothWorkloads, EngineMatrix,
    ::testing::Combine(::testing::Values(std::string("vanilla"),
                                         std::string("osu-ib"),
                                         std::string("hadoop-a")),
                       ::testing::Values(std::string("terasort"),
                                         std::string("sort"))));

TEST(EngineBehaviourTest, OsuIbUsesTheCache) {
  const auto outcome =
      run_experiment(small_config(EngineSetup::osu_ib(), "terasort"));
  EXPECT_GT(outcome.job.counter("cache.hits"), 0);
}

TEST(EngineBehaviourTest, HadoopAHasNoCache) {
  const auto outcome =
      run_experiment(small_config(EngineSetup::hadoop_a(), "terasort"));
  EXPECT_EQ(outcome.job.counter("cache.hits"), 0);
  EXPECT_EQ(outcome.job.counter("cache.misses"), 0);
}

TEST(EngineBehaviourTest, CachingDisabledByConf) {
  const auto outcome =
      run_experiment(small_config(EngineSetup::osu_ib_nocache(), "terasort"));
  EXPECT_EQ(outcome.job.counter("cache.hits"), 0);
  EXPECT_TRUE(outcome.validated);
}

TEST(EngineBehaviourTest, CachingEnabledIsNotSlower) {
  const auto with =
      run_experiment(small_config(EngineSetup::osu_ib(), "terasort"));
  const auto without =
      run_experiment(small_config(EngineSetup::osu_ib_nocache(), "terasort"));
  EXPECT_LE(with.seconds(), without.seconds() * 1.02);
}

TEST(EngineBehaviourTest, OsuIbBeatsIpoibOnTeraSort) {
  const auto osu =
      run_experiment(small_config(EngineSetup::osu_ib(), "terasort"));
  const auto ipoib =
      run_experiment(small_config(EngineSetup::ipoib(), "terasort"));
  EXPECT_LT(osu.seconds(), ipoib.seconds());
}

TEST(EngineBehaviourTest, OsuIbBeatsHadoopAOnSort) {
  const auto osu = run_experiment(small_config(EngineSetup::osu_ib(), "sort"));
  const auto hadoop_a =
      run_experiment(small_config(EngineSetup::hadoop_a(), "sort"));
  EXPECT_LT(osu.seconds(), hadoop_a.seconds());
}

TEST(EngineBehaviourTest, OneGigeIsSlowest) {
  const auto gige =
      run_experiment(small_config(EngineSetup::one_gige(), "terasort"));
  const auto ipoib =
      run_experiment(small_config(EngineSetup::ipoib(), "terasort"));
  EXPECT_GT(gige.seconds(), ipoib.seconds());
}

TEST(EngineBehaviourTest, OverlapAblationIsNotFaster) {
  auto overlapped = small_config(EngineSetup::osu_ib(), "terasort");
  auto barrier = overlapped;
  barrier.setup.extra.set_bool(mapred::kOverlapReduce, false);
  const auto with = run_experiment(overlapped);
  const auto without = run_experiment(barrier);
  EXPECT_TRUE(with.validated);
  EXPECT_TRUE(without.validated);
  EXPECT_LE(with.seconds(), without.seconds() * 1.001);
}

TEST(EngineBehaviourTest, PacketSizeTunable) {
  auto big = small_config(EngineSetup::osu_ib(), "terasort");
  big.setup.extra.set_bytes(mapred::kRdmaPacketBytes, 8 * kMiB);
  auto small = small_config(EngineSetup::osu_ib(), "terasort");
  small.setup.extra.set_bytes(mapred::kRdmaPacketBytes, 64 * 1024);
  const auto big_outcome = run_experiment(big);
  const auto small_outcome = run_experiment(small);
  EXPECT_TRUE(big_outcome.validated);
  EXPECT_TRUE(small_outcome.validated);
}

TEST(EngineBehaviourTest, TwoDisksNeverSlower) {
  auto one = small_config(EngineSetup::osu_ib(), "terasort");
  auto two = one;
  two.disks = 2;
  EXPECT_LE(run_experiment(two).seconds(),
            run_experiment(one).seconds() * 1.02);
}

TEST(EngineBehaviourTest, SsdFasterThanHdd) {
  auto hdd = small_config(EngineSetup::ipoib(), "sort");
  auto ssd = hdd;
  ssd.ssd = true;
  EXPECT_LT(run_experiment(ssd).seconds(), run_experiment(hdd).seconds());
}

TEST(EngineBehaviourTest, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_config(EngineSetup::osu_ib(), "sort"));
  const auto b = run_experiment(small_config(EngineSetup::osu_ib(), "sort"));
  EXPECT_DOUBLE_EQ(a.seconds(), b.seconds());
}

TEST(EngineBehaviourTest, ScaleInvarianceOfOrdering) {
  // The engine ranking must not depend on the real-byte carrier size.
  auto config_a = small_config(EngineSetup::osu_ib(), "terasort");
  auto config_b = config_a;
  config_b.target_real_bytes = 4 * kMiB;
  const auto a = run_experiment(config_a);
  const auto b = run_experiment(config_b);
  // Same modeled workload, different carriers: times should agree within
  // a modest tolerance (protocol quantization differs slightly).
  EXPECT_NEAR(a.seconds(), b.seconds(), a.seconds() * 0.35);
}

TEST(EngineBehaviourTest, BadConfAbortsWithRejection) {
  // A `--set`-style key out of range: the job is rejected at submit, and
  // run_experiment says so instead of failing on the missing output.
  auto config = small_config(EngineSetup::osu_ib(), "terasort");
  config.setup.extra.set(mapred::kNumReduces, "0");
  EXPECT_DEATH(run_experiment(config),
               "rejected: .*mapred.reduce.tasks=0: must be >= 1");
}

}  // namespace
}  // namespace hmr::workloads
