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

RunOutcome run_experiment(const RunConfig& config) {
  HMR_CHECK_MSG(config.sort_modeled_bytes > 0, "sort size required");
  const bool terasort = config.workload == "terasort";
  HMR_CHECK_MSG(terasort || config.workload == "sort",
                "unknown workload: " + config.workload);

  // Paper block sizes (§IV-B/C): TeraSort 256 MB (128 MB for Hadoop-A),
  // Sort 64 MB for every engine.
  std::uint64_t block = config.block_size;
  if (block == 0) {
    if (terasort) {
      block = config.setup.engine == "hadoop-a" ? 128 * kMiB : 256 * kMiB;
    } else {
      block = 64 * kMiB;
    }
  }

  TestbedSpec bed_spec;
  bed_spec.nodes = config.nodes;
  bed_spec.disks_per_node = config.disks;
  bed_spec.ssd = config.ssd;
  bed_spec.profile = config.setup.profile;
  bed_spec.hdfs.block_size = block;
  bed_spec.seed = config.seed;
  Testbed bed(bed_spec);

  DataGenSpec gen;
  gen.dir = "/bench/in";
  gen.part_modeled = block;
  gen.seed = config.seed;
  Conf conf = config.setup.extra;
  conf.set(mapred::kShuffleEngine, config.setup.engine);
  scale_workload(terasort, config.sort_modeled_bytes,
                 config.target_real_bytes, &gen, &conf);
  auto digest =
      bed.generate(terasort ? "teragen" : "randomwriter", gen);
  HMR_CHECK_MSG(digest.ok(), "input generation failed");

  mapred::JobSpec job =
      terasort ? terasort_job(bed.dfs(), gen.dir, "/bench/out", conf)
               : sort_job(bed.dfs(), gen.dir, "/bench/out", conf);
  if (config.faults != nullptr) {
    bed.cluster().inject_faults(*config.faults);
    job.faults = config.faults;
  }

  RunOutcome outcome;
  outcome.job = bed.run_job(std::move(job));
  // A job turned away at submit wrote nothing: say why, rather than
  // fail the validation below on its missing output.
  HMR_CHECK_MSG(outcome.job.status.ok(),
                "rejected: " + outcome.job.status.to_string());

  auto report = validate_output(bed.dfs(), "/bench/out");
  HMR_CHECK_MSG(report.ok(), "output missing after job");
  outcome.validation = *report;
  const bool ok = terasort ? report->valid_terasort(*digest)
                           : report->valid_sort(*digest);
  HMR_CHECK_MSG(ok, "output validation FAILED for " + config.setup.label);
  outcome.validated = true;
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
