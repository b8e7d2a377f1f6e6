#include "workloads/experiment.h"

#include <algorithm>

#include "common/units.h"

namespace hmr::workloads {

EngineSetup EngineSetup::one_gige() {
  return {"1GigE", "vanilla", net::NetProfile::one_gige(), {}};
}
EngineSetup EngineSetup::ten_gige() {
  return {"10GigE", "vanilla", net::NetProfile::ten_gige(), {}};
}
EngineSetup EngineSetup::ipoib() {
  return {"IPoIB (32Gbps)", "vanilla", net::NetProfile::ipoib_qdr(), {}};
}
EngineSetup EngineSetup::hadoop_a() {
  EngineSetup setup{"HadoopA-IB (32Gbps)", "hadoop-a",
                    net::NetProfile::verbs_qdr(), {}};
  return setup;
}
EngineSetup EngineSetup::osu_ib() {
  EngineSetup setup{"OSU-IB (32Gbps)", "osu-ib", net::NetProfile::verbs_qdr(),
                    {}};
  return setup;
}
EngineSetup EngineSetup::osu_ib_nocache() {
  EngineSetup setup = osu_ib();
  setup.label = "OSU-IB (no caching)";
  setup.extra.set_bool(mapred::kCachingEnabled, false);
  return setup;
}

namespace {

constexpr const char* kInputDir = "/bench/in";

// Checks the workload and size; true for TeraSort, false for Sort.
bool is_terasort(const RunConfig& config) {
  HMR_CHECK_MSG(config.sort_modeled_bytes > 0, "sort size required");
  const bool terasort = config.workload == "terasort";
  HMR_CHECK_MSG(terasort || config.workload == "sort",
                "unknown workload: " + config.workload);
  return terasort;
}

TestbedSpec testbed_spec(const RunConfig& config, bool terasort) {
  TestbedSpec spec;
  spec.nodes = config.nodes;
  spec.disks_per_node = config.disks;
  spec.ssd = config.ssd;
  spec.profile = config.setup.profile;
  // Paper block sizes (§IV-B/C): TeraSort 256 MB (128 MB for Hadoop-A),
  // Sort 64 MB for every engine.
  spec.hdfs.block_size = config.block_size;
  if (spec.hdfs.block_size == 0) {
    if (terasort) {
      spec.hdfs.block_size =
          config.setup.engine == "hadoop-a" ? 128 * kMiB : 256 * kMiB;
    } else {
      spec.hdfs.block_size = 64 * kMiB;
    }
  }
  spec.seed = config.seed;
  return spec;
}

}  // namespace

Deployment Deployment::create(const RunConfig& config) {
  return Deployment(config);
}

Deployment::Deployment(const RunConfig& config)
    : faults_(config.faults),
      terasort_(is_terasort(config)),
      bed_(testbed_spec(config, terasort_)),
      conf_(config.setup.extra) {
  DataGenSpec gen;
  gen.dir = kInputDir;
  gen.part_modeled = bed_.spec().hdfs.block_size;
  gen.seed = config.seed;
  conf_.set(mapred::kShuffleEngine, config.setup.engine);
  scale_workload(terasort_, config.sort_modeled_bytes,
                 config.target_real_bytes, &gen, &conf_);
  auto digest = bed_.generate(terasort_ ? "teragen" : "randomwriter", gen);
  HMR_CHECK_MSG(digest.ok(), "input generation failed");
  input_ = *digest;
  if (faults_ != nullptr) bed_.cluster().inject_faults(*faults_);
}

mapred::JobSpec Deployment::job(const std::string& output_dir) {
  mapred::JobSpec job =
      terasort_ ? terasort_job(bed_.dfs(), kInputDir, output_dir, conf_)
                : sort_job(bed_.dfs(), kInputDir, output_dir, conf_);
  job.faults = faults_;
  return job;
}

RunOutcome Deployment::run(const std::string& output_dir) {
  RunOutcome outcome;
  outcome.input = input_;
  outcome.job = bed_.run_job(job(output_dir));
  auto report = validate_output(bed_.dfs(), output_dir);
  outcome.output_present = report.ok();
  if (report.ok()) {
    outcome.validation = *report;
    outcome.validated = terasort_ ? report->valid_terasort(input_)
                                  : report->valid_sort(input_);
  }
  return outcome;
}

RunOutcome run_experiment(const RunConfig& config) {
  Deployment deployment = Deployment::create(config);
  RunOutcome outcome = deployment.run("/bench/out");
  // A job turned away at submit wrote nothing: say why, rather than
  // fail the validation below on its missing output.
  HMR_CHECK_MSG(outcome.job.status.ok(),
                "rejected: " + outcome.job.status.to_string());
  HMR_CHECK_MSG(outcome.output_present, "output missing after job");
  HMR_CHECK_MSG(outcome.validated,
                "output validation FAILED for " + config.setup.label);
  return outcome;
}

void scale_workload(bool terasort, std::uint64_t modeled_bytes,
                    std::uint64_t target_real_bytes, DataGenSpec* gen,
                    Conf* conf) {
  const double scale =
      std::max(1.0, double(modeled_bytes) / double(target_real_bytes));
  gen->modeled_total = modeled_bytes;
  gen->scale = scale;
  // Sort carries records ~1/32nd of the paper's real sizes so record
  // counts stay simulable while packet mechanics (fixed kv count vs byte
  // budget, §IV-C) keep their real proportions.
  if (!terasort) gen->record_inflation = std::max(1.0, scale / 32.0);
  conf->set_double(mapred::kKvInflation,
                   terasort ? scale : gen->record_inflation);
  conf->set_bytes(mapred::kMaxRecordBytes,
                  terasort ? std::uint64_t(102.0 * scale)
                           : std::uint64_t(20010.0 * gen->record_inflation));
}

}  // namespace hmr::workloads
