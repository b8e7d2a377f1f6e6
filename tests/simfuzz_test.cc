// Tests for the deterministic simulation fuzzer (src/simfuzz): scenario
// generation invariants, JSON round-trips, the greedy shrinker, the
// oracle battery, golden determinism per engine, and the committed
// corpus under tests/fuzz_corpus/.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "mapred/jobconf.h"
#include "simfuzz/fuzzer.h"
#include "simfuzz/oracle.h"
#include "simfuzz/scenario.h"
#include "workloads/experiment.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

namespace hmr::simfuzz {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

// A scenario small enough that a full three-engine oracle pass stays
// well under a second.
Scenario small_scenario() {
  Scenario s;
  s.seed = 7;
  s.nodes = 3;
  s.workload = "terasort";
  s.modeled_bytes = 64 * kMiB;
  s.block_bytes = 16 * kMiB;
  s.target_real_bytes = 512 * 1024;
  return s;
}

// Hosts carrying a fault that can starve fetches (kill/drop/stall).
// NIC degradation and disk faults only slow a host or trigger
// per-operation recovery, so they never take a tracker out of rotation.
std::set<int> starving_hosts(const Scenario& s) {
  std::set<int> hosts;
  for (const auto& fault : s.faults) {
    if (fault.kind == FaultSite::Kind::kKillTracker ||
        fault.kind == FaultSite::Kind::kDropResponses ||
        fault.kind == FaultSite::Kind::kStallResponses) {
      hosts.insert(fault.host);
    }
  }
  return hosts;
}

TEST(ScenarioTest, GenerateIsPureFunctionOfSeed) {
  for (std::uint64_t seed : {1, 42, 103, 9999}) {
    EXPECT_EQ(Scenario::generate(seed), Scenario::generate(seed));
  }
  EXPECT_NE(Scenario::generate(1), Scenario::generate(2));
}

TEST(ScenarioTest, GeneratedScenariosKeepCompletableInvariants) {
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    const Scenario s = Scenario::generate(seed);
    EXPECT_GE(s.nodes, 1) << s.summary();
    EXPECT_LE(s.num_maps(), 32) << s.summary();
    EXPECT_TRUE(s.workload == "terasort" || s.workload == "sort")
        << s.summary();
    for (const auto& fault : s.faults) {
      EXPECT_GE(fault.host, 1) << s.summary();
      EXPECT_LE(fault.host, s.nodes) << s.summary();
    }
    // Recovery relocates fetches to a healthy tracker; the generator
    // must always leave one.
    EXPECT_LT(int(starving_hosts(s).size()), s.nodes) << s.summary();
    if (s.nodes == 1) {
      EXPECT_TRUE(s.faults.empty()) << s.summary();
    }
  }
}

TEST(ScenarioTest, ForcedDiskFaultsAlwaysPresentAndPure) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Scenario s = Scenario::generate_with_disk_faults(seed);
    EXPECT_TRUE(s.has_disk_faults()) << s.summary();
    EXPECT_GE(s.nodes, 2) << s.summary();
    EXPECT_EQ(s, Scenario::generate_with_disk_faults(seed));
    // The forced site lands on a host inside the cluster and leaves the
    // rest of the scenario untouched relative to plain generation.
    for (const auto& fault : s.faults) {
      EXPECT_GE(fault.host, 1) << s.summary();
      EXPECT_LE(fault.host, s.nodes) << s.summary();
    }
  }
}

TEST(ScenarioTest, DiskFaultSitesRoundTripAndBuildPlan) {
  Scenario s = small_scenario();
  s.faults.push_back({FaultSite::Kind::kDiskIoErrors, 1, 0.0, 0.1, 0.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskCorrupt, 2, 0.0, 0.05, 0.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskFull, 1, 5.0, 0.0, 4.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskSlow, 2, 3.0, 0.0, 0.0, 0.5});
  EXPECT_TRUE(s.has_disk_faults());
  EXPECT_FALSE(s.has_shuffle_faults());

  auto back = Scenario::from_json(s.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);

  const sim::FaultPlan plan = s.build_fault_plan();
  ASSERT_EQ(plan.disk_faults().size(), 2u);
  const auto& h1 = plan.disk_faults().at(1);
  EXPECT_DOUBLE_EQ(h1.io_error_prob, 0.1);
  EXPECT_DOUBLE_EQ(h1.full_at, 5.0);
  EXPECT_DOUBLE_EQ(h1.full_duration, 4.0);
  const auto& h2 = plan.disk_faults().at(2);
  EXPECT_DOUBLE_EQ(h2.read_corrupt_prob, 0.05);
  EXPECT_DOUBLE_EQ(h2.write_corrupt_prob, 0.05);
  EXPECT_DOUBLE_EQ(h2.slow_at, 3.0);
  EXPECT_DOUBLE_EQ(h2.slow_factor, 0.5);
}

TEST(ScenarioTest, JsonRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Scenario s = Scenario::generate(seed);
    auto back = Scenario::from_json(s.to_json());
    ASSERT_TRUE(back.ok()) << s.summary();
    EXPECT_EQ(*back, s) << s.summary();
  }
}

TEST(ScenarioTest, FromJsonRejectsInvalidScenarios) {
  auto mutate = [](const char* key, Json value) {
    Json j = small_scenario().to_json();
    j.set(key, std::move(value));
    return Scenario::from_json(j);
  };
  EXPECT_FALSE(mutate("nodes", Json(std::int64_t(0))).ok());
  EXPECT_FALSE(mutate("disks", Json(std::int64_t(3))).ok());
  EXPECT_FALSE(mutate("workload", Json("wordcount")).ok());
  EXPECT_FALSE(mutate("vanilla_profile", Json("myrinet")).ok());
  EXPECT_FALSE(mutate("block_bytes", Json(std::int64_t(0))).ok());

  Json bad_fault = Json::object();
  bad_fault.set("kind", Json("set_on_fire"));
  Json sites = Json::array();
  sites.push_back(std::move(bad_fault));
  EXPECT_FALSE(mutate("faults", std::move(sites)).ok());

  Json out_of_range = Json::object();
  out_of_range.set("kind", Json("kill_tracker"));
  out_of_range.set("host", Json(std::int64_t(99)));
  Json sites2 = Json::array();
  sites2.push_back(std::move(out_of_range));
  EXPECT_FALSE(mutate("faults", std::move(sites2)).ok());
}

TEST(ScenarioTest, ShrinkCandidatesAreSimplerAndStayValid) {
  // Pick a generated scenario with faults and engine knobs so most
  // shrink dimensions are exercised.
  Scenario complex;
  for (std::uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 10000u) << "no faulted scenario in seed range";
    complex = Scenario::generate(seed);
    if (!complex.faults.empty() && complex.nodes > 2) break;
  }
  const auto candidates = complex.shrink_candidates();
  EXPECT_FALSE(candidates.empty());
  for (const Scenario& candidate : candidates) {
    EXPECT_NE(candidate, complex);
    // Every candidate survives a JSON round-trip, so a shrunk repro
    // record is always replayable.
    auto back = Scenario::from_json(candidate.to_json());
    ASSERT_TRUE(back.ok()) << candidate.summary();
    EXPECT_EQ(*back, candidate);
    EXPECT_LT(int(starving_hosts(candidate).size()), candidate.nodes)
        << candidate.summary();
  }
}

TEST(OracleTest, HealthyScenarioPassesAllOracles) {
  const Verdict verdict = check_scenario(small_scenario());
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

// Satellite regression: the same seed must reproduce a byte-identical
// serialized JobResult on every engine — any divergence is unkeyed
// randomness or iteration-order nondeterminism in the simulation.
TEST(OracleTest, GoldenDeterminismPerEngine) {
  const Scenario s = small_scenario();
  for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
    const EngineRun first = run_engine(s, engine);
    const EngineRun second = run_engine(s, engine);
    ASSERT_FALSE(first.result_json.empty()) << engine;
    EXPECT_EQ(first.result_json, second.result_json) << engine;
  }
}

// The suite's at-scale coverage: a 256-node terasort completes in
// CI-budget wall time with the right task counts and TeraValidated
// output. `vanilla_kernels` runs vanilla with integrity checks and a
// small shuffle buffer and io.sort.factor, so the CRC scans and both
// merge kernels all run; otherwise the run is OSU-IB.
struct Terasort256Run {
  mapred::JobResult result;
  std::string result_json;
  bool valid = false;
};

Terasort256Run run_terasort256(bool vanilla_kernels) {
  constexpr double kScale = 8192.0;  // ~512 KiB real bytes carried
  workloads::TestbedSpec spec;
  spec.nodes = 256;
  spec.hdfs.block_size = 32 * kMiB;
  workloads::Testbed bed(spec);

  workloads::DataGenSpec gen;
  gen.dir = "/in";
  // 32 MiB per map task: 64 maps for vanilla, 128 for OSU-IB.
  gen.modeled_total = (vanilla_kernels ? 2048 : 4096) * kMiB;
  gen.part_modeled = 32 * kMiB;
  gen.scale = kScale;
  gen.seed = vanilla_kernels ? 11 : 9;
  const auto input = bed.generate("teragen", gen);
  EXPECT_TRUE(input.ok());

  Conf conf;
  conf.set(mapred::kShuffleEngine, vanilla_kernels ? "vanilla" : "osu-ib");
  conf.set_int(mapred::kNumReduces, vanilla_kernels ? 64 : 256);
  conf.set_double(mapred::kKvInflation, kScale);
  conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * kScale));
  if (vanilla_kernels) {
    conf.set_bool(mapred::kIntegrityEnabled, true);
    conf.set_bytes(mapred::kShuffleBufferBytes, 4 * kMiB);
    conf.set_int(mapred::kIoSortFactor, 3);
  }
  Terasort256Run run;
  run.result =
      bed.run_job(workloads::terasort_job(bed.dfs(), "/in", "/out", conf));
  run.result_json = job_result_json(run.result);
  const auto report = workloads::validate_output(bed.dfs(), "/out");
  run.valid = input.ok() && report.ok() && report->valid_terasort(*input);
  return run;
}

TEST(OracleTest, Terasort256NodesCompletesAndValidates) {
  const Terasort256Run run = run_terasort256(/*vanilla_kernels=*/false);
  EXPECT_EQ(run.result.num_maps, 128);
  EXPECT_EQ(run.result.num_reduces, 256);
  EXPECT_TRUE(run.valid);
}

TEST(OracleTest, Terasort256VanillaKernelsCompleteAndValidate) {
  const Terasort256Run run = run_terasort256(/*vanilla_kernels=*/true);
  EXPECT_EQ(run.result.num_maps, 64);
  EXPECT_EQ(run.result.num_reduces, 64);
  EXPECT_TRUE(run.valid);
}

// Determinism at scale: GoldenDeterminismPerEngine covers small
// scenarios; at 256 nodes the same seed must still reproduce a
// byte-identical serialized JobResult.
TEST(OracleTest, Terasort256NodesByteIdenticalAcrossRuns) {
  const std::string first =
      run_terasort256(/*vanilla_kernels=*/false).result_json;
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(run_terasort256(/*vanilla_kernels=*/false).result_json, first);
}

TEST(OracleTest, StallFaultTeardownRaceStaysFixed) {
  // Fuzz seed 103: a fault-stalled responder whose RTS raced the
  // copier's connection teardown deadlocked hadoop-a in the UCR close
  // handshake (the FIN landed in a dead recv loop). Keep the exact
  // generated scenario as a regression.
  const Scenario s = Scenario::generate(103);
  ASSERT_FALSE(s.faults.empty());
  const Verdict verdict = check_scenario(s);
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(FuzzerTest, PassingSeedLeavesNoRecord) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hmr_simfuzz_pass";
  std::filesystem::remove_all(dir);
  FuzzOptions options;
  options.out_dir = dir.string();
  const FuzzReport report = check_and_report(small_scenario(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.record_path.empty());
  EXPECT_FALSE(std::filesystem::exists(dir / "FUZZ_7.json"));
  std::filesystem::remove_all(dir);
}

TEST(FuzzerTest, ReproRecordRoundTripsThroughLoader) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hmr_simfuzz_records";
  std::filesystem::create_directories(dir);

  FuzzReport report;
  report.scenario = Scenario::generate(9);
  report.shrunk = report.scenario;
  const auto record_file = dir / "FUZZ_9.json";
  {
    std::ofstream out(record_file);
    out << repro_record(report, "failed").dump() << "\n";
  }
  auto loaded = load_scenario_file(record_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, report.scenario);

  // A record with a shrunk scenario replays the shrunk form.
  report.shrunk = report.scenario;
  report.shrunk.faults.clear();
  report.shrunk.check_determinism = false;
  {
    std::ofstream out(record_file);
    out << repro_record(report, "failed").dump() << "\n";
  }
  loaded = load_scenario_file(record_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, report.shrunk);

  // Bare scenario JSON (no record wrapper) loads too.
  const auto bare_file = dir / "bare.json";
  {
    std::ofstream out(bare_file);
    out << Scenario::generate(11).to_json().dump() << "\n";
  }
  loaded = load_scenario_file(bare_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, Scenario::generate(11));

  EXPECT_FALSE(load_scenario_file((dir / "missing.json").string()).ok());
  std::filesystem::remove_all(dir);
}

// The committed corpus pins down scenario classes the generator only
// rarely emits; each file must load and pass the full oracle battery.
// With speculation enabled under cpu.degrade and task.hang chaos, job
// output is byte-identical to the speculation-disabled replay, across
// all three engines. The oracle itself runs the spec-off twin.
TEST(OracleTest, SpeculationIdentityUnderComputeChaos) {
  Scenario s = small_scenario();
  s.nodes = 4;
  s.speculative = true;
  s.faults.push_back({FaultSite::Kind::kCpuDegrade, /*host=*/2,
                      /*at=*/1.0, /*prob=*/0.0, /*seconds=*/0.0,
                      /*factor=*/0.25});
  s.faults.push_back({FaultSite::Kind::kTaskHang, /*host=*/3,
                      /*at=*/2.0, /*prob=*/0.0, /*seconds=*/4.0,
                      /*factor=*/1.0});
  for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
    const EngineRun run = run_engine(s, engine);
    ASSERT_FALSE(run.result_json.empty()) << engine;
    Verdict verdict;
    check_speculation_identity(s, run, &verdict);
    EXPECT_TRUE(verdict.ok()) << engine << ": " << verdict.summary();
  }
}

// JobConf's ranges must never reject a conf the generator can draw:
// every CI seed (plain and forced disk faults) and every corpus entry,
// with the engine and workload keys the oracle layers on top.
void expect_conf_accepted(const Scenario& scenario) {
  for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
    Conf conf = scenario.base_conf();
    conf.set(mapred::kShuffleEngine, engine);
    workloads::DataGenSpec gen;
    workloads::scale_workload(scenario.workload == "terasort",
                              scenario.modeled_bytes,
                              scenario.target_real_bytes, &gen, &conf);
    const auto parsed = mapred::JobConf::parse(conf);
    EXPECT_TRUE(parsed.ok()) << scenario.summary() << ": "
                             << parsed.status().to_string();
  }
}

TEST(ScenarioTest, GeneratedConfsPassJobConfParse) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_conf_accepted(Scenario::generate(seed));
  }
  for (std::uint64_t seed = 5000; seed < 5120; ++seed) {
    expect_conf_accepted(Scenario::generate_with_disk_faults(seed));
  }
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HMR_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    auto scenario = load_scenario_file(entry.path().string());
    ASSERT_TRUE(scenario.ok()) << entry.path();
    expect_conf_accepted(*scenario);
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(CorpusTest, CommittedScenariosPassAllOracles) {
  const std::filesystem::path corpus(HMR_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".json") continue;
    auto scenario = load_scenario_file(entry.path().string());
    ASSERT_TRUE(scenario.ok()) << entry.path();
    const Verdict verdict = check_scenario(*scenario);
    EXPECT_TRUE(verdict.ok())
        << entry.path() << ": " << verdict.summary();
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

}  // namespace
}  // namespace hmr::simfuzz
