#include "mapred/reducetask.h"

#include <algorithm>
#include <cstdio>

#include "hdfs/hdfs.h"
#include "sim/trace.h"

namespace hmr::mapred {

std::string reduce_output_path(const JobSpec& spec, int reduce_id) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, "part-%05d", reduce_id);
  return spec.output_dir + "/" + suffix;
}

namespace {

// Job output is written at replication 1 (the TeraSort convention).
constexpr int kOutputReplication = 1;

// Applies the user reduce function over a sorted stream with
// group-by-key semantics, carrying groups across batch boundaries.
class ReduceDriver {
 public:
  ReduceDriver(JobRuntime& job, hdfs::MiniDfs::Writer& out)
      : job_(job), out_(out) {}

  sim::Task<> consume(KvBatch batch) {
    ByteWriter encoded;
    const Emit emit = [this, &encoded](KvPair pair) {
      dataplane::encode_kv(pair, encoded);
      ++records_out_;
    };
    for (auto& pair : batch) {
      if (!job_.spec.reduce_fn) {
        emit(std::move(pair));
        continue;
      }
      if (!has_group_ || pair.key != group_key_) {
        flush_group(emit);
        group_key_ = pair.key;
        has_group_ = true;
      }
      group_values_.push_back(std::move(pair.value));
    }
    if (encoded.size() > 0) {
      co_await out_.append(encoded.data());
    }
  }

  sim::Task<> finish() {
    ByteWriter encoded;
    const Emit emit = [this, &encoded](KvPair pair) {
      dataplane::encode_kv(pair, encoded);
      ++records_out_;
    };
    flush_group(emit);
    if (encoded.size() > 0) {
      co_await out_.append(encoded.data());
    }
  }

  std::uint64_t records_out() const { return records_out_; }

 private:
  void flush_group(const Emit& emit) {
    if (!has_group_) return;
    job_.spec.reduce_fn(group_key_, group_values_, emit);
    group_values_.clear();
    has_group_ = false;
  }

  JobRuntime& job_;
  hdfs::MiniDfs::Writer& out_;
  bool has_group_ = false;
  Bytes group_key_;
  std::vector<Bytes> group_values_;
  std::uint64_t records_out_ = 0;
};

}  // namespace

sim::Task<> run_reduce_task(JobRuntime& job, int reduce_id,
                            TaskTrackerState& tracker, TaskAttempt* attempt) {
  Host& host = *tracker.host;
  auto span = sim::maybe_span(job.engine.tracer(), host.name(), "reduce",
                              "reduce_" + std::to_string(reduce_id));
  const std::string final_path = reduce_output_path(job.spec, reduce_id);
  // Attempt-aware runs write to a per-attempt temp file and rename it
  // over the final path at commit, so two racing attempts never collide
  // and the committed output is byte-identical to a single-attempt run.
  const std::string write_path =
      attempt == nullptr
          ? final_path
          : final_path + ".attempt-" + std::to_string(attempt->attempt_id);

  co_await host.compute(job.conf.task_startup);
  bool killed = !co_await job.attempt_checkpoint(attempt, host, 0.05);

  KvSink sink(job.engine, /*capacity=*/16);
  sim::WaitGroup fetch_done(job.engine);
  fetch_done.add();
  // Phase bookkeeping: the first reducer to spawn its fetcher opens the
  // shuffle phase (engine-agnostic — both socket and verbs paths funnel
  // through fetch_and_merge).
  if (job.result.shuffle_start_time < 0) {
    job.result.shuffle_start_time = job.engine.now();
  }
  job.engine.spawn([](JobRuntime& job, int reduce_id, Host& host,
                      KvSink& sink, sim::WaitGroup& done,
                      TaskAttempt* attempt) -> sim::Task<> {
    co_await job.shuffle->fetch_and_merge(job, reduce_id, host, sink, attempt);
    done.done();
  }(job, reduce_id, host, sink, fetch_done, attempt));

  hdfs::MiniDfs::Writer out(job.dfs, host, write_path, job.data_scale,
                            kOutputReplication);
  ReduceDriver driver(job, out);

  std::uint64_t consumed_real = 0;
  std::uint64_t input_records = 0;
  while (auto batch = co_await sink.recv()) {
    if (killed) continue;  // drain so the fetcher can finish unwinding
    if (job.result.reduce_start_time < 0) {
      job.result.reduce_start_time = job.engine.now();
    }
    std::uint64_t batch_real = 0;
    for (const auto& pair : *batch) batch_real += pair.serialized_size();
    consumed_real += batch_real;
    input_records += batch->size();
    // Reduce-function CPU over this batch; an active task.slow window
    // scales the effective throughput down (slow < 1).
    co_await job.charge_cpu(
        host, static_cast<std::uint64_t>(double(batch_real) * job.data_scale),
        CostModel::kReduceCpuBw *
            job.compute_faults.slow_factor(host.id(), job.engine.now()));
    co_await driver.consume(std::move(*batch));
    // Progress from consumed shuffle bytes against the bytes committed
    // maps will send this reduce (the denominator grows as maps finish;
    // the estimate is conservative early and exact once all maps are in).
    const double consumed_modeled = double(consumed_real) * job.data_scale;
    const double expected = double(std::max<std::uint64_t>(
        1, job.reduce_expected_modeled.at(size_t(reduce_id))));
    const double progress =
        0.05 + 0.9 * std::min(1.0, consumed_modeled / expected);
    if (!co_await job.attempt_checkpoint(attempt, host, progress)) {
      killed = true;
    }
  }
  if (!killed) co_await driver.finish();
  co_await fetch_done.wait();

  if (killed) {
    // Loser unwinding before commit: flush+register the partial temp
    // file (best effort — the disk may be faulted) so it can be removed,
    // then reach the terminal state.
    const Status closed = co_await out.close();
    if (closed.ok()) {
      const Status removed = job.dfs.remove(write_path);
      (void)removed;
    }
    job.finish_attempt(*attempt, AttemptState::kKilled);
    co_return;
  }

  const Status closed = co_await out.close();
  HMR_CHECK_MSG(closed.ok(), "reduce output write failed: " +
                                 closed.to_string());
  if (attempt != nullptr) {
    if (!job.try_commit_reduce(reduce_id)) {
      // Lost the commit race at the wire: some sibling already renamed
      // its output over the final path.
      const Status removed = job.dfs.remove(write_path);
      (void)removed;
      job.finish_attempt(*attempt, AttemptState::kKilled);
      co_return;
    }
    const Status renamed = job.dfs.rename(write_path, final_path);
    HMR_CHECK_MSG(renamed.ok(),
                  "reduce commit rename failed: " + renamed.to_string());
  }
  job.result.output_modeled_bytes +=
      static_cast<std::uint64_t>(double(out.real_written()) * job.data_scale);
  job.result.output_records += driver.records_out();
  job.result.counters["REDUCE_INPUT_RECORDS"] += std::int64_t(input_records);
  job.result.counters["REDUCE_OUTPUT_RECORDS"] +=
      std::int64_t(driver.records_out());
  if (attempt != nullptr) {
    if (attempt->speculative) {
      job.metric.speculation_wins.add();
    }
    job.finish_attempt(*attempt, AttemptState::kSucceeded);
    job.kill_siblings(TaskKind::kReduce, reduce_id, attempt);
  }
}

}  // namespace hmr::mapred
