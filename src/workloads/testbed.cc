#include "workloads/testbed.h"

#include "rdmashuffle/engine.h"

namespace hmr::workloads {

Testbed::Testbed(TestbedSpec spec)
    : spec_(spec), engine_(spec.seed) {
  // host 0 = master (NameNode + JobTracker); hosts 1..N = DataNode +
  // TaskTracker.
  auto host_specs =
      net::Cluster::uniform(spec.nodes + 1, spec.disks_per_node, spec.ssd);
  host_specs[0].name = "master";
  cluster_ = std::make_unique<net::Cluster>(engine_, spec.profile,
                                            host_specs);
  network_ = std::make_unique<net::Network>(engine_, spec.profile);
  for (int i = 1; i <= spec.nodes; ++i) datanodes_.push_back(i);
  dfs_ = std::make_unique<hdfs::MiniDfs>(*cluster_, *network_, spec.hdfs, 0,
                                         datanodes_);
  runner_ = std::make_unique<mapred::JobRunner>(*cluster_, *network_, *dfs_,
                                                datanodes_);
  runner_->register_engine("osu-ib", [] {
    return std::make_unique<rdmashuffle::RdmaShuffleEngine>(
        rdmashuffle::RdmaDesign::kOsuIb);
  });
  runner_->register_engine("hadoop-a", [] {
    return std::make_unique<rdmashuffle::RdmaShuffleEngine>(
        rdmashuffle::RdmaDesign::kHadoopA);
  });
}

Result<DatasetDigest> Testbed::generate(const std::string& kind,
                                        DataGenSpec gen_spec) {
  auto out = std::make_shared<Result<DatasetDigest>>(
      Status::Internal("datagen did not run"));
  engine_.spawn([](Testbed& bed, std::string kind, DataGenSpec gen_spec,
                   std::shared_ptr<Result<DatasetDigest>> out)
                    -> sim::Task<> {
    if (kind == "teragen") {
      *out = co_await teragen(bed.dfs(), bed.cluster(), bed.datanodes_,
                              gen_spec);
    } else if (kind == "randomwriter") {
      *out = co_await random_writer(bed.dfs(), bed.cluster(), bed.datanodes_,
                                    gen_spec);
    } else if (kind == "textgen") {
      *out = co_await textgen(bed.dfs(), bed.cluster(), bed.datanodes_,
                              gen_spec);
    } else {
      *out = Result<DatasetDigest>(
          Status::InvalidArgument("unknown generator: " + kind));
    }
  }(*this, kind, gen_spec, out));
  engine_.run();
  return *out;
}

mapred::JobTracker& Testbed::tracker() {
  if (tracker_ == nullptr) {
    tracker_ = std::make_unique<mapred::JobTracker>(
        engine_, *runner_, mapred::SchedulerConfig{});
  }
  return *tracker_;
}

void Testbed::set_scheduler(mapred::SchedulerConfig config) {
  HMR_CHECK_MSG(
      tracker_ == nullptr ||
          (tracker_->queued() == 0 && tracker_->running() == 0),
      "cannot replace the scheduler while jobs are queued or running");
  tracker_ = std::make_unique<mapred::JobTracker>(engine_, *runner_,
                                                  std::move(config));
}

std::vector<mapred::JobResult> Testbed::run_jobs(
    std::vector<mapred::JobSpec> jobs) {
  auto& jt = tracker();
  std::vector<std::shared_ptr<mapred::SubmittedJob>> handles;
  handles.reserve(jobs.size());
  for (auto& job : jobs) handles.push_back(jt.submit(std::move(job)));
  engine_.run();
  std::vector<mapred::JobResult> results;
  results.reserve(handles.size());
  for (const auto& handle : handles) {
    HMR_CHECK_MSG(handle->completed, "concurrent jobs did not all complete");
    results.push_back(handle->result);
  }
  HMR_CHECK_MSG(engine_.live_processes() == 0,
                "jobs left live processes behind");
  return results;
}

mapred::JobResult Testbed::run_job(mapred::JobSpec job) {
  auto out = std::make_shared<mapred::JobResult>();
  auto ok = std::make_shared<bool>(false);
  engine_.spawn([](Testbed& bed, mapred::JobSpec job,
                   std::shared_ptr<mapred::JobResult> out,
                   std::shared_ptr<bool> ok) -> sim::Task<> {
    *out = co_await bed.runner().run(std::move(job));
    *ok = true;
  }(*this, std::move(job), out, ok));
  engine_.run();
  HMR_CHECK_MSG(*ok, "job did not complete (deadlocked simulation?)");
  HMR_CHECK_MSG(engine_.live_processes() == 0,
                "job left live processes behind");
  return *out;
}

}  // namespace hmr::workloads
