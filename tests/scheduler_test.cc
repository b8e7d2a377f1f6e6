// Scheduler policy tests: config defaults, FIFO vs fair-share
// ordering under contention, per-pool quota enforcement,
// starvation-freedom, and replay determinism of a 50-job Poisson
// arrival trace (docs/SCHEDULER.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapred/jobtracker.h"
#include "mapred/scheduler.h"
#include "workloads/multitenant.h"
#include "workloads/testbed.h"

namespace hmr::mapred {
namespace {

using workloads::DataGenSpec;
using workloads::Testbed;
using workloads::TestbedSpec;

TEST(SchedulerConfigTest, Defaults) {
  const SchedulerConfig config{};
  EXPECT_EQ(config.policy, SchedPolicy::kFifo);
  EXPECT_EQ(config.max_running_jobs, 0);
  EXPECT_EQ(config.arrival_jobs_per_min, 0.0);
  EXPECT_TRUE(config.pools.empty());
  // Unknown pools fall back to weight 1 / unlimited quota.
  EXPECT_EQ(config.pool("nobody").weight, 1.0);
  EXPECT_EQ(config.pool("nobody").quota, 0);
}

// A tiny cluster and dataset every scheduling test shares: 2 nodes,
// 4 maps per job, ~1 MiB of real payload.
TestbedSpec sched_bed_spec() {
  TestbedSpec spec;
  spec.nodes = 2;
  spec.hdfs.block_size = 8 * kMiB;
  spec.seed = 11;
  return spec;
}

DataGenSpec sched_gen_spec() {
  DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 32 * kMiB;
  gen.part_modeled = 8 * kMiB;
  gen.scale = 32.0;  // 1 MiB real
  gen.seed = 11;
  return gen;
}

struct SchedBed {
  Testbed bed{sched_bed_spec()};

  SchedBed() {
    auto digest = bed.generate("teragen", sched_gen_spec());
    EXPECT_TRUE(digest.ok());
  }

  JobSpec job(int index) {
    return workloads::terasort_job(bed.dfs(), "/in",
                                   "/out" + std::to_string(index), Conf{});
  }
};

// Dispatch order reconstructed from per-job dispatch timestamps (ties
// broken by submission id, which matches the tracker's behavior: equal
// times dispatch in queue order).
std::vector<std::string> dispatch_order(
    const std::vector<std::shared_ptr<SubmittedJob>>& handles) {
  std::vector<std::shared_ptr<SubmittedJob>> sorted = handles;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a->dispatched_at != b->dispatched_at) {
      return a->dispatched_at < b->dispatched_at;
    }
    return a->id < b->id;
  });
  std::vector<std::string> users;
  for (const auto& handle : sorted) users.push_back(handle->user);
  return users;
}

TEST(JobTrackerTest, FifoDispatchesInArrivalOrderUnderContention) {
  SchedBed sched;
  SchedulerConfig config;
  config.max_running_jobs = 1;  // serialize so ordering is observable
  sched.bed.set_scheduler(config);
  auto& tracker = sched.bed.tracker();

  std::vector<std::shared_ptr<SubmittedJob>> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(
        tracker.submit(sched.job(i), i % 2 == 0 ? "alice" : "bob"));
  }
  sched.bed.engine().run();

  for (const auto& handle : handles) EXPECT_TRUE(handle->completed);
  EXPECT_EQ(dispatch_order(handles),
            (std::vector<std::string>{"alice", "bob", "alice", "bob"}));
  // Strict serialization: each job dispatches only after its predecessor
  // finished.
  for (size_t i = 1; i < handles.size(); ++i) {
    EXPECT_GE(handles[i]->dispatched_at, handles[i - 1]->finished_at);
  }
}

TEST(JobTrackerTest, FairShareFollowsWeightedDeficit) {
  SchedBed sched;
  SchedulerConfig config;
  config.policy = SchedPolicy::kFair;
  config.max_running_jobs = 1;
  config.pools["alice"].weight = 2.0;
  config.pools["bob"].weight = 1.0;
  sched.bed.set_scheduler(config);
  auto& tracker = sched.bed.tracker();

  std::vector<std::shared_ptr<SubmittedJob>> handles;
  // All of alice's jobs arrive before any of bob's; FIFO would run
  // alice, alice, alice, bob, bob, bob.
  for (int i = 0; i < 3; ++i) handles.push_back(tracker.submit(sched.job(i), "alice"));
  for (int i = 3; i < 6; ++i) handles.push_back(tracker.submit(sched.job(i), "bob"));
  sched.bed.engine().run();

  for (const auto& handle : handles) EXPECT_TRUE(handle->completed);
  // Weighted deficit, job cost 4 (four input blocks), weights 2:1.
  // alice's first job dispatches on an empty cluster (alice charged 4,
  // ratio 2); bob's pool enters at the cluster minimum (charge 2,
  // ratio 2). The tie goes to the lexicographically smaller pool, then
  // the 2:1 ratio interleaves: alice 4 vs bob 2 -> bob, alice 4 vs
  // bob 6 -> alice, bob drains last. FIFO on the same arrivals would
  // run all three alice jobs first.
  EXPECT_EQ(dispatch_order(handles),
            (std::vector<std::string>{"alice", "alice", "bob", "alice",
                                      "bob", "bob"}));
}

TEST(JobTrackerTest, CapacityEnforcesPoolQuota) {
  SchedBed sched;
  SchedulerConfig config;
  config.policy = SchedPolicy::kCapacity;
  config.pools["alice"].quota = 1;  // bob stays unlimited
  sched.bed.set_scheduler(config);
  auto& tracker = sched.bed.tracker();

  std::vector<std::shared_ptr<SubmittedJob>> handles;
  handles.push_back(tracker.submit(sched.job(0), "alice"));
  handles.push_back(tracker.submit(sched.job(1), "alice"));
  handles.push_back(tracker.submit(sched.job(2), "alice"));
  handles.push_back(tracker.submit(sched.job(3), "bob"));
  sched.bed.engine().run();

  for (const auto& handle : handles) EXPECT_TRUE(handle->completed);
  // At most one alice job runs at a time: each of her jobs dispatches
  // only after the previous one finished.
  EXPECT_GE(handles[1]->dispatched_at, handles[0]->finished_at);
  EXPECT_GE(handles[2]->dispatched_at, handles[1]->finished_at);
  // bob is not held back by alice's quota: he dispatches at submit time,
  // before alice's backlog drained.
  EXPECT_EQ(handles[3]->dispatched_at, handles[3]->submitted_at);
  EXPECT_GT(sched.bed.engine().metrics().counter_value(
                "scheduler.quota.deferrals"),
            0);
  // Per-tenant aggregates booked both pools.
  const auto& tenants = tracker.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants.at("alice").submitted, 3);
  EXPECT_EQ(tenants.at("alice").completed, 3);
  EXPECT_EQ(tenants.at("bob").completed, 1);
  EXPECT_GT(tenants.at("alice").total_queue_wait, 0.0);
}

TEST(JobTrackerTest, NoStarvationUnderSkewedWeightsAndQuotas) {
  SchedBed sched;
  SchedulerConfig config;
  config.policy = SchedPolicy::kFair;
  config.max_running_jobs = 2;
  config.pools["heavy"].weight = 100.0;
  config.pools["light"].weight = 0.01;
  config.pools["light"].quota = 1;
  sched.bed.set_scheduler(config);
  auto& tracker = sched.bed.tracker();

  std::vector<std::shared_ptr<SubmittedJob>> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        tracker.submit(sched.job(i), i % 2 == 0 ? "heavy" : "light"));
  }
  sched.bed.engine().run();

  // Every submitted job completes, even in the 10000x-outweighed pool.
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle->completed) << "job " << handle->id << " starved";
    EXPECT_GE(handle->finished_at, handle->dispatched_at);
  }
  EXPECT_EQ(tracker.queued(), 0);
  EXPECT_EQ(tracker.running(), 0);
  const auto& metrics = sched.bed.engine().metrics();
  EXPECT_EQ(metrics.counter_value("scheduler.jobs.submitted"), 8);
  EXPECT_EQ(metrics.counter_value("scheduler.jobs.completed"), 8);
}

TEST(JobTrackerTest, SpeculativeSlotsChargeTheTenantsFairShare) {
  SchedBed sched;
  SchedulerConfig config;
  config.policy = SchedPolicy::kFair;
  config.max_running_jobs = 1;  // serialize so ordering is observable
  sched.bed.set_scheduler(config);
  auto& tracker = sched.bed.tracker();

  // Pool "aspec" runs straggler-heavy speculating jobs; "zplain" runs
  // the same workload clean. The names are chosen so a fair-share TIE
  // would dispatch aspec first (lexicographic tie-break): zplain can
  // only jump the queue if the backup surcharge raised aspec's deficit.
  auto speculating = [&](int i) {
    auto job = sched.job(i);
    job.conf.set_bool(kSpeculativeExecution, true);
    job.conf.set_double(kStragglerProb, 0.5);
    job.conf.set_double(kStragglerSlowdown, 30.0);
    job.conf.set_double(kSpeculativeMinRuntimeSec, 0.5);
    job.conf.set_double(kSpeculativeIntervalSec, 0.1);
    return job;
  };
  std::vector<std::shared_ptr<SubmittedJob>> handles;
  handles.push_back(tracker.submit(speculating(0), "aspec"));
  handles.push_back(tracker.submit(speculating(1), "aspec"));
  handles.push_back(tracker.submit(sched.job(2), "zplain"));
  handles.push_back(tracker.submit(sched.job(3), "zplain"));
  sched.bed.engine().run();

  // The speculating pool never starves the clean one.
  for (const auto& handle : handles) EXPECT_TRUE(handle->completed);
  EXPECT_EQ(tracker.queued(), 0);

  const auto& tenants = tracker.tenant_stats();
  const auto& aspec = tenants.at("aspec");
  const auto& zplain = tenants.at("zplain");
  ASSERT_GT(aspec.speculative_attempts, 0u);
  EXPECT_EQ(aspec.speculative_kills, aspec.speculative_attempts);
  EXPECT_LE(aspec.speculative_wins, aspec.speculative_attempts);
  EXPECT_EQ(zplain.speculative_attempts, 0u);
  // Dispatch-time charge is one split-equivalent per input block (4 per
  // job here); backups are billed post-hoc at the same rate.
  EXPECT_EQ(aspec.charged_cost, 8.0 + double(aspec.speculative_attempts));
  EXPECT_EQ(zplain.charged_cost, 8.0);
  // After aspec's first job completes, its surcharged deficit exceeds
  // zplain's entry charge, so zplain's job dispatches next — under a
  // plain tie aspec would have won.
  EXPECT_EQ(dispatch_order(handles)[0], "aspec");
  EXPECT_EQ(dispatch_order(handles)[1], "zplain");
}

TEST(MultiTenantTest, PoissonTraceOf50JobsReplaysByteIdentically) {
  workloads::MultiTenantSpec spec;
  spec.nodes = 2;
  spec.block_size = 16 * kMiB;
  spec.job_modeled_bytes = 32 * kMiB;  // 2 maps per job
  spec.target_real_bytes = 512 * kKiB;
  spec.num_jobs = 50;
  spec.seed = 1234;
  spec.sched.policy = SchedPolicy::kFair;
  spec.sched.max_running_jobs = 4;
  spec.sched.arrival_jobs_per_min = 120.0;
  spec.sched.pools["alice"].weight = 3.0;
  spec.tenants = {{"alice", 2.0}, {"bob", 1.0}, {"carol", 1.0}};

  const auto first = workloads::run_multitenant(spec);
  const auto second = workloads::run_multitenant(spec);

  ASSERT_EQ(first.records.size(), 50u);
  ASSERT_EQ(second.records.size(), 50u);
  EXPECT_TRUE(first.all_validated);
  for (size_t i = 0; i < first.records.size(); ++i) {
    const auto& a = first.records[i];
    const auto& b = second.records[i];
    EXPECT_EQ(a.user, b.user) << "job " << a.id;
    EXPECT_EQ(a.submitted_at, b.submitted_at) << "job " << a.id;
    EXPECT_EQ(a.dispatched_at, b.dispatched_at) << "job " << a.id;
    EXPECT_EQ(a.finished_at, b.finished_at) << "job " << a.id;
    EXPECT_EQ(a.output_digest, b.output_digest) << "job " << a.id;
  }
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.latency.p50, second.latency.p50);
  EXPECT_EQ(first.latency.p95, second.latency.p95);
  EXPECT_EQ(first.latency.p99, second.latency.p99);
  // The mix actually produced a multi-tenant trace.
  EXPECT_GE(first.tenants.size(), 2u);
  EXPECT_GT(first.latency.p95, 0.0);
}

}  // namespace
}  // namespace hmr::mapred
