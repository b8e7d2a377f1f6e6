#include "mapred/maptask.h"

#include <algorithm>

#include "mapred/integrity.h"
#include "sim/trace.h"
#include "storage/localfs.h"

namespace hmr::mapred {

namespace {

// A killed attempt unwinds here: drop any intermediate spill file it may
// have left (best effort — the disk may be faulted) and reach the
// terminal state. The final output file is never written by a killed
// attempt, so nothing else needs undoing.
void abandon_map_attempt(JobRuntime& job, TaskAttempt& attempt, Host& host,
                         const std::string& path) {
  const Status removed = host.fs().remove(path + ".spills");
  (void)removed;
  job.finish_attempt(attempt, AttemptState::kKilled);
}

}  // namespace

sim::Task<> run_map_task(JobRuntime& job, int map_id,
                         TaskTrackerState& tracker, double slowdown,
                         TaskAttempt* attempt) {
  MapTaskInfo& task = job.maps.at(map_id);
  Host& host = *tracker.host;
  auto span = sim::maybe_span(job.engine.tracer(), host.name(), "map",
                              "map_" + std::to_string(map_id));
  const std::string path = "mapout/" + job.spec.name + "/map_" +
                           std::to_string(map_id) + "_h" +
                           std::to_string(host.id());

  // Task JVM launch / localization.
  co_await host.compute(job.conf.task_startup);
  if (!co_await job.attempt_checkpoint(attempt, host, 0.05)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // Read the split. Input part files are written block-sized, so this is
  // one block in practice; locality decides whether it touches the
  // network. HDFS handles replica failover internally; this outer loop
  // only absorbs fully transient windows (every replica's disk erroring
  // at once).
  auto split = co_await job.dfs.read(host, task.input_file);
  for (int attempt = 0;
       !split.ok() && split.status().code() == StatusCode::kUnavailable &&
       attempt < storage::kIoRetries;
       ++attempt) {
    job.metric.io_retries.add();
    co_await job.engine.delay(storage::kRetryBackoffSec);
    split = co_await job.dfs.read(host, task.input_file);
  }
  HMR_CHECK_MSG(split.ok(), "map input read failed: " + split.status().to_string());
  if (!co_await job.attempt_checkpoint(attempt, host, 0.2)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // Run the user map function over the split's records into the sort
  // buffer, after a kernel yield (DESIGN.md §6.3). The identity map adds
  // each record's view straight into the builder's arena; a map_fn gets
  // one reused pair.
  dataplane::MapOutputBuilder builder(job.num_reduces, *job.spec.partitioner);
  std::uint64_t input_records = 0;
  co_await job.engine.delay(0);
  {
    const Emit emit = [&builder](dataplane::KvPair pair) {
      builder.add(pair);
    };
    dataplane::KvPair input;
    ByteReader reader(*split);
    while (!reader.at_end()) {
      const auto record = dataplane::decode_kv_view(reader);
      HMR_CHECK_MSG(record.ok(), "corrupt input split: " + task.input_file);
      ++input_records;
      if (job.spec.map_fn) {
        input.key.assign(record->key.begin(), record->key.end());
        input.value.assign(record->value.begin(), record->value.end());
        job.spec.map_fn(input, emit);
      } else {
        builder.add(*record);
      }
    }
    if (auto* t = job.engine.tracer()) {
      t->instant(host.name(), "map", "map_compute_" + std::to_string(map_id));
    }
  }
  job.result.counters["MAP_INPUT_RECORDS"] += std::int64_t(input_records);
  job.result.counters["MAP_OUTPUT_RECORDS"] +=
      std::int64_t(builder.pending_records());
  job.result.counters["MAP_OUTPUT_BYTES"] += static_cast<std::int64_t>(
      double(builder.pending_bytes()) * job.data_scale);
  if (!co_await job.attempt_checkpoint(attempt, host, 0.4)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // CPU: record parsing + map function + in-memory sort. Any active
  // task.slow window scales the attempt's effective throughput down
  // (slow < 1), composing with the straggler slowdown.
  const double slow =
      job.compute_faults.slow_factor(host.id(), job.engine.now());
  const auto output_real = builder.pending_bytes();
  const auto output_modeled =
      static_cast<std::uint64_t>(double(output_real) * job.data_scale);
  co_await job.charge_cpu(host, task.modeled_bytes + output_modeled,
                          CostModel::kMapCpuBw * slow / slowdown);
  if (!co_await job.attempt_checkpoint(attempt, host, 0.6)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // Sort + combine + serialize, the other compute half, after its own
  // kernel yield.
  const auto combine_in = builder.pending_records();
  co_await job.engine.delay(0);
  dataplane::MapOutput output =
      builder.build(job.spec.combine_fn ? &job.spec.combine_fn : nullptr);
  if (job.spec.combine_fn) {
    std::uint64_t combine_out = 0;
    for (const auto& entry : output.index) combine_out += entry.kv_count;
    job.result.counters["COMBINE_INPUT_RECORDS"] += std::int64_t(combine_in);
    job.result.counters["COMBINE_OUTPUT_RECORDS"] +=
        std::int64_t(combine_out);
  }
  if (!co_await job.attempt_checkpoint(attempt, host, 0.75)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // Spill accounting: every spill writes the full buffer once; more than
  // one spill adds a read-merge-write pass over the whole output.
  const std::uint64_t sort_mb = job.conf.io_sort_bytes;  // >= 1
  const auto spills = std::max<std::uint64_t>(
      1, (output_modeled + sort_mb - 1) / sort_mb);
  job.metric.map_spills.add(std::int64_t(spills));
  job.result.counters["SPILLED_RECORDS"] +=
      std::int64_t(double(input_records) * double(spills));

  if (spills > 1) {
    // Intermediate spill files + merge pass, checksum-verified: an
    // injected IO error retries, a corrupt spill is rewritten, a full
    // disk evicts shuffle cache and backs off (mapred/integrity.h).
    const auto spill_stream = storage::next_stream_id();
    const Status spilled = co_await write_file_verified(
        job, host, path + ".spills", Bytes(1), double(output_modeled));
    HMR_CHECK_MSG(spilled.ok(),
                  "map spill failed: " + spilled.to_string());
    (void)spill_stream;
    const auto merged =
        co_await read_file_verified(job, host, path + ".spills");
    HMR_CHECK_MSG(merged.ok(),
                  "map spill merge read failed: " + merged.status().to_string());
    co_await job.charge_cpu(host, output_modeled, CostModel::kMergeCpuBw);
    HMR_CHECK(host.fs().remove(path + ".spills").ok());
  }
  if (!co_await job.attempt_checkpoint(attempt, host, 0.9)) {
    abandon_map_attempt(job, *attempt, host, path);
    co_return;
  }

  // Final partitioned output file; the served MapOutput shares the
  // buffer the LocalFS stores. The verified write guarantees the
  // published file is clean at creation — at-rest rot discovered later
  // is recovered by the fetch path (drop -> blacklist -> re-execute).
  const Status written = co_await write_file_verified(
      job, host, path, Bytes(*output.data), job.data_scale);
  HMR_CHECK_MSG(written.ok(),
                "map output write failed: " + written.to_string());
  const auto stored = host.fs().peek(path);
  HMR_CHECK(stored.ok());
  output.data = stored.value().data;

  MapOutputInfo info;
  info.map_id = map_id;
  info.host_id = host.id();
  info.local_path = path;
  info.created_at = job.engine.now();
  info.output = std::make_shared<const dataplane::MapOutput>(std::move(output));
  info.scale = job.data_scale;
  const bool committed = job.record_map_output(std::move(info));
  if (attempt != nullptr) {
    if (committed) {
      if (attempt->speculative) {
        job.metric.speculation_wins.add();
      }
      job.finish_attempt(*attempt, AttemptState::kSucceeded);
      job.kill_siblings(TaskKind::kMap, map_id, attempt);
    } else {
      // Lost the commit race at the wire: record_map_output unlinked the
      // duplicate file; this attempt dies KILLED like any other loser.
      job.finish_attempt(*attempt, AttemptState::kKilled);
    }
  }
}

sim::Task<> run_failed_map_attempt(JobRuntime& job, int map_id,
                                   TaskTrackerState& tracker,
                                   double progress) {
  MapTaskInfo& task = job.maps.at(map_id);
  Host& host = *tracker.host;
  co_await host.compute(job.conf.task_startup);
  // The attempt reads and processes `progress` of the split, then dies.
  // read() of the partial split is approximated by a ranged read charge.
  auto info = job.dfs.stat(task.input_file);
  HMR_CHECK(info.ok());
  const auto real_len = static_cast<std::uint64_t>(
      double(info->real_size) * progress);
  if (real_len > 0) {
    const auto partial = co_await job.dfs.read_block(host, task.input_file, 0);
    HMR_CHECK(partial.ok());
    co_await job.charge_cpu(
        host,
        static_cast<std::uint64_t>(double(task.modeled_bytes) * progress),
        CostModel::kMapCpuBw);
  }
  job.metric.map_failed_attempts.add();
}

}  // namespace hmr::mapred
