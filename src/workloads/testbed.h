// Testbed: one fully wired simulated deployment — cluster, fabric,
// HDFS-lite, and a JobRunner with all three shuffle engines registered.
// Mirrors the paper's setup (§IV-A): a master host running
// NameNode/JobTracker plus N compute hosts each running a
// DataNode/TaskTracker, all on one switch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hdfs/hdfs.h"
#include "mapred/jobrunner.h"
#include "mapred/jobtracker.h"
#include "net/cluster.h"
#include "net/network.h"
#include "workloads/datagen.h"
#include "workloads/jobs.h"

namespace hmr::workloads {

struct TestbedSpec {
  int nodes = 4;           // compute hosts (a master host is added)
  int disks_per_node = 1;  // 1 or 2 HDDs in the paper
  bool ssd = false;        // Figure 7/8 use SSD data stores
  net::NetProfile profile = net::NetProfile::ipoib_qdr();
  hdfs::HdfsParams hdfs;
  std::uint64_t seed = 1;
};

class Testbed {
 public:
  explicit Testbed(TestbedSpec spec);

  sim::Engine& engine() { return engine_; }
  net::Cluster& cluster() { return *cluster_; }
  net::Network& network() { return *network_; }
  hdfs::MiniDfs& dfs() { return *dfs_; }
  mapred::JobRunner& runner() { return *runner_; }
  const std::vector<int>& datanodes() const { return datanodes_; }
  const TestbedSpec& spec() const { return spec_; }

  // The multi-tenant front door (created on first use with a default
  // FIFO/unlimited SchedulerConfig). run_jobs() submits through it.
  mapred::JobTracker& tracker();
  // Replaces the tracker with one running `config`. Must be called
  // before any jobs are in flight.
  void set_scheduler(mapred::SchedulerConfig config);

  // Synchronous wrappers: spawn the coroutine and run the engine dry.
  Result<DatasetDigest> generate(const std::string& kind, DataGenSpec spec);
  mapred::JobResult run_job(mapred::JobSpec job);
  // Submits all jobs through the JobTracker at the current simulated
  // time: under the default FIFO/unlimited scheduler they run
  // concurrently, contending for the same TaskTracker slots, disks and
  // links (a multi-tenant cluster). set_scheduler() first to run them
  // under fair-share or capacity policies instead.
  std::vector<mapred::JobResult> run_jobs(std::vector<mapred::JobSpec> jobs);

 private:
  TestbedSpec spec_;
  sim::Engine engine_;
  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
  std::unique_ptr<mapred::JobRunner> runner_;
  std::unique_ptr<mapred::JobTracker> tracker_;
  std::vector<int> datanodes_;
};

}  // namespace hmr::workloads
