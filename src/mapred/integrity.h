// Checksum-verified storage IO with bounded recovery (DESIGN.md §6.2).
//
// Every durable artifact of a job — map-output spills, reduce-side merge
// spills, the final output blocks — flows through these helpers. Reads
// verify the payload's checksum (charging CRC CPU at the integrity
// bandwidth) and re-read on a mismatch or injected IO error; writes
// verify the stored bytes and rewrite silently corrupted spills; a write
// rejected by a full disk sheds shuffle-cache memory via
// ShuffleEngine::on_disk_pressure and backs off until the disk drains.
//
// Counter discipline: every verify failure increments
// `integrity.checksum.mismatches` exactly once, paired with exactly one
// recovery-action counter (`storage.corrupt.rereads`,
// `storage.spill.rewrites`, `storage.corrupt.read_failures`,
// `storage.write.failures`, or — at the cache boundary, counted by the
// caller — `cache.integrity.evictions`). All of these are job counters,
// so the simfuzz integrity oracle checks this conservation law exactly
// for every job, concurrent tenants included.
#pragma once

#include <cstdint>
#include <memory>

#include "mapred/runtime.h"
#include "storage/localfs.h"

namespace hmr::mapred {

// Charges CRC32 verification CPU on `host` for `modeled` bytes. No-op
// when integrity verification is disabled.
sim::Task<> charge_verify_cpu(JobRuntime& job, Host& host,
                              std::uint64_t modeled);

// Timed whole-file read with verification: injected IO errors are
// retried (`storage.io.retries`), corrupt payloads re-read
// (`storage.corrupt.rereads`), both bounded by the integrity policy.
// Exhausted retries surface the last error — the caller picks the
// fallback (drop the fetch request so the reducer's fetch timeout
// re-executes the map, fail over to another HDFS replica, ...).
sim::Task<Result<storage::FileView>> read_file_verified(
    JobRuntime& job, Host& host, const std::string& path);

// Ranged variant; charges verification over real_len * scale.
sim::Task<Result<storage::FileView>> read_range_verified(
    JobRuntime& job, Host& host, const std::string& path,
    std::uint64_t real_offset, std::uint64_t real_len);

// Durable write with read-back verification and the disk-full ladder.
// Returns OK only when the stored payload verified clean (or integrity
// verification is off). The file stores `data` itself; a retry rewrites
// the same buffer.
sim::Task<Status> write_file_verified(JobRuntime& job, Host& host,
                                      std::string path,
                                      std::shared_ptr<const Bytes> data,
                                      double scale);

}  // namespace hmr::mapred
