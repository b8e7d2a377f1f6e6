#include "mapred/integrity.h"

#include <optional>

namespace hmr::mapred {

namespace {

// Modeled bytes/sec of CRC32 CPU per core.
constexpr double kCrcBw = 2.0e9;

// Records the time an op spent recovering (rereads, rewrites, backoff)
// when any recovery happened at all.
void record_recovery_delay(JobRuntime& job, double started, bool recovered) {
  if (!recovered) return;
  job.engine.metrics()
      .latency_histogram("storage.recovery.delay")
      .record(job.engine.now() - started);
}

}  // namespace

sim::Task<> charge_verify_cpu(JobRuntime& job, Host& host,
                              std::uint64_t modeled) {
  if (!job.conf.integrity || modeled == 0) co_return;
  co_await job.charge_cpu(host, modeled, kCrcBw);
}

namespace {

// The byte range of a ranged read; a whole-file read has none.
struct ReadRange {
  std::uint64_t real_offset = 0;
  std::uint64_t real_len = 0;
};

// Shared read skeleton: one timed attempt per pass, the whole file or
// `range`, verification charged over the bytes read at the file's scale.
sim::Task<Result<storage::FileView>> read_verified_impl(
    JobRuntime& job, Host& host, const std::string& path,
    std::optional<ReadRange> range) {
  const double started = job.engine.now();
  bool recovered = false;
  for (int attempt = 0;; ++attempt) {
    // Named, not `co_await (range ? a : b)`: GCC 12 destroys the
    // conditional's temporary task twice in that form.
    auto read = range ? host.fs().read_range(path, range->real_offset,
                                             range->real_len)
                      : host.fs().read_file(path);
    auto view = co_await read;
    if (!view.ok()) {
      if (view.status().code() == StatusCode::kUnavailable &&
          attempt < storage::kIoRetries) {
        job.metric.io_retries.add();
        recovered = true;
        continue;
      }
      co_return view;  // NotFound/OutOfRange, or IO retries exhausted
    }
    if (!job.conf.integrity) co_return view;
    co_await charge_verify_cpu(
        job, host,
        range ? static_cast<std::uint64_t>(double(range->real_len) *
                                           view->scale)
              : view->modeled_size());
    if (view->corrupted) {
      job.metric.checksum_mismatches.add();
      if (attempt < storage::kIoRetries) {
        job.metric.corrupt_rereads.add();
        recovered = true;
        continue;
      }
      job.metric.corrupt_read_failures.add();
      co_return Result<storage::FileView>(
          Status::Internal("checksum mismatch after " +
                           std::to_string(attempt + 1) + " reads: " + path));
    }
    job.metric.verified_segments.add();
    record_recovery_delay(job, started, recovered);
    co_return view;
  }
}

}  // namespace

sim::Task<Result<storage::FileView>> read_file_verified(
    JobRuntime& job, Host& host, const std::string& path) {
  return read_verified_impl(job, host, path, std::nullopt);
}

sim::Task<Result<storage::FileView>> read_range_verified(
    JobRuntime& job, Host& host, const std::string& path,
    std::uint64_t real_offset, std::uint64_t real_len) {
  return read_verified_impl(job, host, path,
                            ReadRange{real_offset, real_len});
}

sim::Task<Status> write_file_verified(JobRuntime& job, Host& host,
                                      std::string path,
                                      std::shared_ptr<const Bytes> data,
                                      double scale) {
  const double started = job.engine.now();
  const auto modeled =
      static_cast<std::uint64_t>(double(data->size()) * scale);
  bool recovered = false;
  int io_attempts = 0;
  int full_attempts = 0;
  for (int verify_attempts = 0;;) {
    Status written = co_await host.fs().write_file(path, data, scale);
    if (written.code() == StatusCode::kResourceExhausted) {
      // Disk-full ladder: count it, let the shuffle engine evict cache
      // on this host, back off, retry. The window is finite by
      // construction; the bound only guards against runaway plans.
      job.metric.disk_full_events.add();
      HMR_CHECK_MSG(++full_attempts <= storage::kDiskFullRetries,
                    "disk-full window outlasted spill retries: " + path);
      if (job.shuffle != nullptr) job.shuffle->on_disk_pressure(job, host.id());
      recovered = true;
      co_await job.engine.delay(storage::kRetryBackoffSec);
      continue;
    }
    if (!written.ok()) {  // injected transient write error
      if (io_attempts++ < storage::kIoRetries) {
        job.metric.io_retries.add();
        recovered = true;
        continue;
      }
      co_return written;
    }
    if (!job.conf.integrity) co_return Status::Ok();
    // Read-back verification rides the page cache (the bytes were just
    // written): charge CRC CPU only, then check what actually landed.
    co_await charge_verify_cpu(job, host, modeled);
    const auto stored = host.fs().peek(path);
    HMR_CHECK(stored.ok());
    if (!stored->corrupted) {
      job.metric.verified_segments.add();
      record_recovery_delay(job, started, recovered);
      co_return Status::Ok();
    }
    job.metric.checksum_mismatches.add();
    if (verify_attempts++ >= storage::kIoRetries) {
      job.metric.write_failures.add();
      co_return Status::Internal("verified write failed: " + path);
    }
    job.metric.spill_rewrites.add();
    recovered = true;
  }
}

}  // namespace hmr::mapred
