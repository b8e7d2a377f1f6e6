// HDFS-lite: the storage substrate Hadoop MapReduce runs on (§II-A).
//
// One NameNode (namespace + block map + placement policy) and one
// DataNode per storage host. Files are split into blocks; each block is
// replicated over a write pipeline (client -> dn1 -> dn2 -> dn3, stages
// overlapped), and reads prefer a node-local replica — the property the
// JobTracker's locality-aware scheduling feeds on.
//
// Files carry real payload bytes plus the scale factor (DESIGN.md §2):
// blocks are sliced in real bytes, all timing is charged in modeled
// bytes through LocalFS and Network.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/cluster.h"
#include "net/network.h"
#include "sim/sync.h"

namespace hmr::hdfs {

using net::Cluster;
using net::Host;
using net::Network;

struct HdfsParams {
  std::uint64_t block_size = 64 * 1024 * 1024;  // modeled bytes
  int replication = 3;
};

struct BlockInfo {
  std::uint64_t id = 0;
  std::uint64_t real_offset = 0;  // offset within the file's real payload
  std::uint64_t real_len = 0;
  std::uint32_t crc = 0;          // CRC-32C of the block payload
  std::vector<int> replicas;      // host ids holding the block
};

struct FileInfo {
  std::string path;
  double scale = 1.0;
  std::uint64_t real_size = 0;
  std::vector<BlockInfo> blocks;

  std::uint64_t modeled_size() const {
    return static_cast<std::uint64_t>(double(real_size) * scale);
  }
};

class NameNode {
 public:
  NameNode(HdfsParams params, std::vector<int> datanode_hosts,
           std::uint64_t seed);

  // Chooses `replication` distinct replicas; the writer host leads if it
  // runs a DataNode (write-locality, like the real placement policy).
  std::vector<int> choose_replicas(int writer_host,
                                   int replication_override = -1);

  Status create(const FileInfo& info);
  Result<FileInfo> stat(const std::string& path) const;
  // Mutable iteration for the replication monitor / death pruning.
  std::map<std::string, FileInfo>& files() { return files_; }
  // Removes a dead DataNode from the placement pool.
  void decommission(int host_id);
  bool exists(const std::string& path) const;
  Status remove(const std::string& path);
  // Metadata-only move (the task-commit primitive): fails NotFound when
  // `from` is missing, AlreadyExists when `to` is taken. Block placement
  // and payloads are untouched.
  Status rename(const std::string& from, const std::string& to);
  std::vector<std::string> list(const std::string& prefix) const;
  std::uint64_t next_block_id() { return next_block_id_++; }

  const HdfsParams& params() const { return params_; }
  const std::vector<int>& datanodes() const { return datanode_hosts_; }

 private:
  HdfsParams params_;
  std::vector<int> datanode_hosts_;
  Rng rng_;
  std::map<std::string, FileInfo> files_;
  std::uint64_t next_block_id_ = 1;
};

// The deployed filesystem: NameNode on a master host plus a DataNode on
// every storage host. This is the object MapReduce code holds.
class MiniDfs {
 public:
  // `master` is the NameNode host id; every id in `datanodes` stores
  // blocks on its host's LocalFS.
  MiniDfs(Cluster& cluster, Network& network, HdfsParams params, int master,
          std::vector<int> datanodes);

  NameNode& namenode() { return namenode_; }
  const HdfsParams& params() const { return namenode_.params(); }
  Host& master() { return cluster_.host(master_); }

  // Writes a file from `writer`: charges NameNode RPCs, pipelined
  // replica transfers and DataNode disk writes.
  sim::Task<Status> write(Host& writer, std::string path, Bytes data,
                          double scale = 1.0);

  // Reads the whole file to `reader` (locality-preferring), charging disk
  // and network; returns the reassembled real payload.
  sim::Task<Result<Bytes>> read(Host& reader, std::string path);

  // Reads one block (a map task's input split).
  sim::Task<Result<Bytes>> read_block(Host& reader, const std::string& path,
                                      size_t block_index);

  // Streaming writer (DFSOutputStream equivalent): append() buffers and
  // ships full blocks through the replica pipeline as they fill, so a
  // reducer's output writes overlap its compute.
  class Writer {
   public:
    // replication < 0 uses HdfsParams::replication; TeraSort-style jobs
    // write their output at replication 1.
    Writer(MiniDfs& dfs, Host& writer, std::string path, double scale,
           int replication = -1);
    sim::Task<> append(std::span<const std::uint8_t> data);
    // Flushes the tail block and registers the file with the NameNode.
    sim::Task<Status> close();
    std::uint64_t real_written() const { return info_.real_size; }

   private:
    MiniDfs& dfs_;
    Host& writer_;
    double scale_;
    FileInfo info_;
    Bytes pending_;
    std::uint64_t real_block_;
    int replication_;
    bool closed_ = false;
  };

  // --- fault handling ---------------------------------------------------
  // Marks a DataNode dead: its replicas become unreadable, the NameNode
  // stops placing new blocks there, and every file's block map is pruned
  // (the DataNode's block report stops arriving).
  void kill_datanode(int host_id);
  bool is_alive(int host_id) const;
  // Re-replicates every under-replicated block from a surviving replica
  // (the NameNode's replication monitor), charging the copy traffic.
  sim::Task<int> replicate_under_replicated();
  // Blocks with fewer live replicas than HdfsParams::replication.
  int under_replicated_blocks() const;

  // Untimed helpers for validation / job planning.
  Result<FileInfo> stat(const std::string& path) const {
    return namenode_.stat(path);
  }
  std::vector<std::string> list(const std::string& prefix) const {
    return namenode_.list(prefix);
  }
  // Untimed namespace operations a task commit uses (they ride the same
  // heartbeat RPCs the timed paths already charge).
  Status rename(const std::string& from, const std::string& to) {
    return namenode_.rename(from, to);
  }
  Status remove(const std::string& path) { return namenode_.remove(path); }
  // Concatenated payload without timing (for output validation).
  Result<Bytes> peek(const std::string& path) const;

 private:
  friend class Writer;
  static std::string block_path(std::uint64_t id) {
    return "dfs/blk_" + std::to_string(id);
  }
  sim::Task<> rpc(Host& from);
  bool is_datanode(int host) const;
  // Ships one block through the replica pipeline (stages overlapped) and
  // writes it on every replica's disk. Every replica stores the same
  // buffer; injected corruption is a per-file flag (storage::FileView),
  // so the replicas stay independent.
  sim::Task<> write_block(Host& writer, BlockInfo block, Bytes slice,
                          double scale);
  // Bounded-retry, checksum-verified write of one replica (shared by the
  // pipeline stages and the replication monitor): injected IO errors are
  // retried, a full disk backs off until the window drains, and a
  // silently corrupted write is redone — the DataNode verifies received
  // data against the client checksum before acking the stage.
  sim::Task<> write_replica(Host& dn, std::uint64_t block_id,
                            std::shared_ptr<const Bytes> slice, double scale);
  // Drops a corrupt replica from the live block map (the DataNode's
  // block scanner reported a bad block) and kicks the replication
  // monitor to restore the replica count from a clean copy.
  void prune_replica(const std::string& path, std::uint64_t block_id,
                     int host_id);
  void spawn_rereplication();

  Cluster& cluster_;
  Network& network_;
  NameNode namenode_;
  int master_;
  std::set<int> dead_;
  bool rereplication_running_ = false;
};

}  // namespace hmr::hdfs
