// In-memory local filesystem with simulated disk timing.
//
// Files carry *real* payload bytes plus a `scale` factor: timing is
// charged for `real_bytes * scale` so a benchmark can model a 100 GB job
// while physically moving ~100 MB (data_scale knob in DESIGN.md §2).
// Correctness tests run at scale 1 where real == modeled.
//
// Multiple disks form a JBOD: each new file is assigned a disk
// round-robin, mirroring Hadoop's mapred.local.dir striping — this is
// what the paper's "multiple HDD per node" experiments vary.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
// lint:ignore(determinism): files_ is iterated only by list(), which sorts
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/fault.h"
#include "storage/disk.h"

namespace hmr::storage {

// The storage retry budget, shared by HDFS DataNode writes and job IO
// (spills, map-output reads, map-input reads). Transient IO errors and
// checksum mismatches are retried up to kIoRetries times per operation.
// A write rejected by a full disk is retried every kRetryBackoffSec, at
// most kDiskFullRetries times: enough to ride out a 2-minute full
// window. Injected fault probabilities are < 1, so the chance that every
// attempt fails decays geometrically; the bounds only guard against
// runaway fault plans.
inline constexpr int kIoRetries = 16;
inline constexpr int kDiskFullRetries = 240;
inline constexpr double kRetryBackoffSec = 0.5;

// Immutable view of a stored file's payload; holds shared ownership so a
// reader survives concurrent deletion (as an OS fd would).
//
// `corrupted` models silent bit-flips: the payload buffer is shared with
// the authoritative in-memory copy (map outputs alias it), so injected
// corruption never mutates the bytes — it sets this flag instead, and a
// checksum verify over a flagged view "fails" exactly as a real CRC over
// flipped bits would (DESIGN.md §6.2).
struct FileView {
  std::shared_ptr<const Bytes> data;
  double scale = 1.0;
  bool corrupted = false;

  std::uint64_t real_size() const { return data ? data->size() : 0; }
  std::uint64_t modeled_size() const {
    return static_cast<std::uint64_t>(double(real_size()) * scale);
  }
};

class LocalFS {
 public:
  // Modeled bytes each sequential scan prefetches per disk touch.
  static constexpr std::uint64_t kReadaheadModeled = 2 * 1024 * 1024;

  LocalFS(sim::Engine& engine, std::vector<std::unique_ptr<Disk>> disks);
  LocalFS(const LocalFS&) = delete;
  LocalFS& operator=(const LocalFS&) = delete;

  // --- timed operations (sim tasks) ---

  // Creates or replaces `path`, charging a sequential write of
  // data.size()*scale bytes to the file's disk. The file stores the
  // shared buffer itself, so a writer that keeps serving the bytes (a
  // map output) holds no second copy.
  sim::Task<Status> write_file(std::string path,
                               std::shared_ptr<const Bytes> data,
                               double scale = 1.0);
  sim::Task<Status> write_file(std::string path, Bytes data,
                               double scale = 1.0);
  // Appends, charging a sequential write of data_len*scale. The stored
  // buffer may be shared with readers' views and with its writer, so an
  // append copies it (copy-on-write).
  sim::Task<Status> append(std::string path, std::span<const std::uint8_t> data);

  // Reads the whole file (sequential charge).
  sim::Task<Result<FileView>> read_file(std::string path);
  // Reads [real_offset, real_offset+real_len); charges real_len*scale plus
  // the disk's positioning cost. The returned view still exposes the whole
  // payload; callers slice by [real_offset, real_len).
  sim::Task<Result<FileView>> read_range(std::string path,
                                         std::uint64_t real_offset,
                                         std::uint64_t real_len);

  // --- untimed metadata operations ---
  bool exists(const std::string& path) const;
  Result<std::uint64_t> real_size(const std::string& path) const;
  Result<std::uint64_t> modeled_size(const std::string& path) const;
  Status remove(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  std::vector<std::string> list(const std::string& prefix) const;
  // Zero-copy peek for code that needs the payload without timing (e.g.
  // validation at the end of a run).
  Result<FileView> peek(const std::string& path) const;

  size_t disk_count() const { return disks_.size(); }
  Disk& disk(size_t i) { return *disks_[i]; }
  std::uint64_t total_modeled_bytes() const;

  // --- fault injection (sim::DiskFault, armed by Cluster) ---

  // Arms per-operation fault rolls on this filesystem. `rng` must be a
  // host-unique stream so concurrent hosts' faults decorrelate.
  void arm_fault(const sim::DiskFault& fault, Rng rng);
  // Rolls the armed cache-corruption dice (a cached segment rotted while
  // resident); consulted by the shuffle cache on every hit.
  bool roll_cache_corrupt();
  // Slow-disk degrade: multiplies every disk's bandwidth by `factor`.
  void degrade_disks(double factor);
  // Marks the stored file sticky-corrupt: every read reports corruption
  // until the payload is rewritten. Deterministic at-rest bit-rot for
  // tests and targeted fault plans.
  Status mark_corrupt(const std::string& path);

 private:
  struct File {
    std::shared_ptr<const Bytes> data;
    double scale = 1.0;
    size_t disk_index = 0;
    std::uint64_t stream_id = 0;
    bool sticky_corrupt = false;  // at-rest corruption until rewritten
    // Active sequential cursors into this file: a ranged read that starts
    // where a previous one ended continues that scan. Each scan reads
    // ahead in large granules (OS readahead); requests inside the
    // prefetched window are page-cache hits and touch no disk. Unordered,
    // with unique next offsets; at most kMaxRangeCursors, past which the
    // cursor at the lowest offset is dropped.
    struct Cursor {
      std::uint64_t next_offset = 0;       // real offset the scan expects
      std::uint64_t stream_id = 0;
      std::uint64_t prefetched_until = 0;  // real offset
    };
    static constexpr size_t kMaxRangeCursors = 128;
    std::vector<Cursor> range_cursors;
  };

  File* find(const std::string& path);
  const File* find(const std::string& path) const;

  // Returns the non-OK status of an injected write-path fault (disk-full
  // window or transient IO error), or OK to proceed.
  Status roll_write_fault(const std::string& path);

  sim::Engine& engine_;
  std::vector<std::unique_ptr<Disk>> disks_;
  size_t next_disk_ = 0;
  // lint:ignore(determinism): iterated only by list(), which sorts, and a sum
  std::unordered_map<std::string, File> files_;
  std::optional<sim::DiskFault> fault_;
  std::optional<Rng> fault_rng_;
};

}  // namespace hmr::storage
