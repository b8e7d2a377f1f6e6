#include "hdfs/hdfs.h"

#include <algorithm>

#include "common/crc32.h"
#include "storage/localfs.h"

namespace hmr::hdfs {

namespace {

// Read attempts per replica before failing over to the next one; writes
// draw on the storage retry budget (storage/localfs.h).
constexpr int kReadAttemptsPerReplica = 3;
// NameNode RPC wire size, each way.
constexpr std::uint64_t kRpcBytes = 256;

}  // namespace

NameNode::NameNode(HdfsParams params, std::vector<int> datanode_hosts,
                   std::uint64_t seed)
    : params_(params),
      datanode_hosts_(std::move(datanode_hosts)),
      rng_(seed, "namenode") {
  HMR_CHECK_MSG(!datanode_hosts_.empty(), "cluster has no DataNodes");
  HMR_CHECK_MSG(params_.replication >= 1, "replication must be >= 1");
}

std::vector<int> NameNode::choose_replicas(int writer_host,
                                           int replication_override) {
  const int replication =
      replication_override > 0 ? replication_override : params_.replication;
  const int want = std::min<int>(replication, int(datanode_hosts_.size()));
  std::vector<int> replicas;
  replicas.reserve(want);
  const bool writer_is_dn =
      std::find(datanode_hosts_.begin(), datanode_hosts_.end(),
                writer_host) != datanode_hosts_.end();
  if (writer_is_dn) replicas.push_back(writer_host);
  // Random distinct remote replicas (rack-awareness collapses to random in
  // a single-switch cluster).
  std::vector<int> candidates;
  for (int host : datanode_hosts_) {
    if (host != writer_host) candidates.push_back(host);
  }
  while (int(replicas.size()) < want && !candidates.empty()) {
    const size_t pick = rng_.below(candidates.size());
    replicas.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + pick);
  }
  return replicas;
}

Status NameNode::create(const FileInfo& info) {
  if (files_.contains(info.path)) {
    return Status::AlreadyExists(info.path);
  }
  files_.emplace(info.path, info);
  return Status::Ok();
}

Result<FileInfo> NameNode::stat(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("hdfs: " + path);
  return it->second;
}

bool NameNode::exists(const std::string& path) const {
  return files_.contains(path);
}

Status NameNode::remove(const std::string& path) {
  if (files_.erase(path) == 0) return Status::NotFound("hdfs: " + path);
  return Status::Ok();
}

Status NameNode::rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("hdfs: " + from);
  if (files_.contains(to)) return Status::AlreadyExists(to);
  FileInfo info = std::move(it->second);
  files_.erase(it);
  info.path = to;
  files_.emplace(to, std::move(info));
  return Status::Ok();
}

void NameNode::decommission(int host_id) {
  datanode_hosts_.erase(
      std::remove(datanode_hosts_.begin(), datanode_hosts_.end(), host_id),
      datanode_hosts_.end());
}

std::vector<std::string> NameNode::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.starts_with(prefix); ++it) {
    out.push_back(it->first);
  }
  return out;
}

MiniDfs::MiniDfs(Cluster& cluster, Network& network, HdfsParams params,
                 int master, std::vector<int> datanodes)
    : cluster_(cluster),
      network_(network),
      namenode_(params, std::move(datanodes), cluster.engine().seed()),
      master_(master) {}

sim::Task<> MiniDfs::rpc(Host& from) {
  co_await network_.transmit(from, master(), kRpcBytes);
  co_await network_.transmit(master(), from, kRpcBytes);
}

sim::Task<> MiniDfs::write_replica(Host& dn, std::uint64_t block_id,
                                   std::shared_ptr<const Bytes> slice,
                                   double scale) {
  auto& metrics = cluster_.engine().metrics();
  int io_attempts = 0;
  int full_attempts = 0;
  for (;;) {
    const Status st =
        co_await dn.fs().write_file(block_path(block_id), slice, scale);
    if (st.code() == StatusCode::kResourceExhausted) {
      HMR_CHECK_MSG(++full_attempts <= storage::kDiskFullRetries,
                    "disk-full window outlasted datanode write: " +
                        block_path(block_id));
      metrics.counter("hdfs.write.retries").add();
      co_await cluster_.engine().delay(storage::kRetryBackoffSec);
      continue;
    }
    if (!st.ok()) {  // injected transient IO error
      HMR_CHECK_MSG(++io_attempts <= storage::kIoRetries,
                    "datanode write of " + block_path(block_id) +
                        " still failing after retries: " + st.to_string());
      metrics.counter("hdfs.write.retries").add();
      continue;
    }
    // The DataNode verifies received data against the client's checksum
    // before acking the pipeline stage; a silently corrupted write is
    // redone, so an acked block is clean on every replica at creation.
    const auto stored = dn.fs().peek(block_path(block_id));
    HMR_CHECK(stored.ok());
    if (!stored->corrupted) co_return;
    HMR_CHECK_MSG(++io_attempts <= storage::kIoRetries,
                  "datanode write of " + block_path(block_id) +
                      " corrupt after rewrites");
    metrics.counter("hdfs.write.rewrites").add();
  }
}

sim::Task<> MiniDfs::write_block(Host& writer, BlockInfo block, Bytes slice,
                                 double scale) {
  const auto modeled =
      static_cast<std::uint64_t>(double(block.real_len) * scale);
  // Every replica stores this one buffer for the file's lifetime, so
  // drop the growth slack a streamed tail block carries (Writer::close).
  slice.shrink_to_fit();
  const auto shared = std::make_shared<const Bytes>(std::move(slice));
  // Pipelined replication: client->r0, r0->r1, r1->r2 run concurrently
  // (each stage forwards packets as they arrive); every replica also
  // writes the block to its local disk.
  sim::WaitGroup stages(cluster_.engine());
  Host* upstream = &writer;
  for (int replica : block.replicas) {
    Host& dn = cluster_.host(replica);
    stages.add();
    cluster_.engine().spawn(
        [](MiniDfs& dfs, Host* from, Host* to, std::uint64_t modeled,
           std::shared_ptr<const Bytes> slice, double scale,
           std::uint64_t block_id, sim::WaitGroup& stages) -> sim::Task<> {
          if (from->id() != to->id()) {
            co_await dfs.network_.transmit(*from, *to, modeled);
          }
          co_await dfs.write_replica(*to, block_id, std::move(slice), scale);
          stages.done();
        }(*this, upstream, &dn, modeled, shared, scale, block.id, stages));
    upstream = &dn;
  }
  co_await stages.wait();
}

void MiniDfs::prune_replica(const std::string& path, std::uint64_t block_id,
                            int host_id) {
  auto it = namenode_.files().find(path);
  if (it == namenode_.files().end()) return;
  for (auto& block : it->second.blocks) {
    if (block.id != block_id) continue;
    auto pos = std::find(block.replicas.begin(), block.replicas.end(), host_id);
    if (pos == block.replicas.end()) return;  // already pruned
    // Never prune the last copy: a transient corruption streak would turn
    // into permanent data loss. The sole replica stays listed and readers
    // keep retrying it instead.
    if (block.replicas.size() <= 1) return;
    block.replicas.erase(pos);
    cluster_.engine().metrics().counter("hdfs.corrupt.replicas_pruned").add();
    return;
  }
}

void MiniDfs::spawn_rereplication() {
  // One monitor pass at a time; a pass started after a prune observes
  // every block pruned before it, so back-to-back prunes coalesce.
  if (rereplication_running_) return;
  rereplication_running_ = true;
  cluster_.engine().spawn([](MiniDfs& dfs) -> sim::Task<> {
    const int copied = co_await dfs.replicate_under_replicated();
    if (copied > 0) {
      dfs.cluster_.engine().metrics().counter("hdfs.rereplications").add(
          copied);
    }
    dfs.rereplication_running_ = false;
  }(*this));
}

MiniDfs::Writer::Writer(MiniDfs& dfs, Host& writer, std::string path,
                        double scale, int replication)
    : dfs_(dfs), writer_(writer), scale_(scale), replication_(replication) {
  info_.path = std::move(path);
  info_.scale = scale;
  real_block_ = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(double(dfs.params().block_size) / scale));
}

sim::Task<> MiniDfs::Writer::append(std::span<const std::uint8_t> data) {
  HMR_CHECK_MSG(!closed_, "append to closed HDFS writer");
  pending_.insert(pending_.end(), data.begin(), data.end());
  info_.real_size += data.size();
  while (pending_.size() >= real_block_) {
    BlockInfo block;
    block.id = dfs_.namenode_.next_block_id();
    block.real_offset =
        info_.blocks.empty()
            ? 0
            : info_.blocks.back().real_offset + info_.blocks.back().real_len;
    block.real_len = real_block_;
    block.replicas =
        dfs_.namenode_.choose_replicas(writer_.id(), replication_);
    Bytes slice(pending_.begin(), pending_.begin() + real_block_);
    pending_.erase(pending_.begin(), pending_.begin() + real_block_);
    block.crc = crc32c(slice);
    info_.blocks.push_back(block);
    co_await dfs_.write_block(writer_, block, std::move(slice), scale_);
  }
}

sim::Task<Status> MiniDfs::Writer::close() {
  HMR_CHECK_MSG(!closed_, "double close of HDFS writer");
  closed_ = true;
  co_await dfs_.rpc(writer_);  // create()
  if (!pending_.empty() || info_.blocks.empty()) {
    BlockInfo block;
    block.id = dfs_.namenode_.next_block_id();
    block.real_offset =
        info_.blocks.empty()
            ? 0
            : info_.blocks.back().real_offset + info_.blocks.back().real_len;
    block.real_len = pending_.size();
    block.replicas =
        dfs_.namenode_.choose_replicas(writer_.id(), replication_);
    block.crc = crc32c(pending_);
    info_.blocks.push_back(block);
    co_await dfs_.write_block(writer_, block, std::move(pending_), scale_);
    pending_.clear();
  }
  co_await dfs_.rpc(writer_);  // complete()
  co_return dfs_.namenode_.create(info_);
}

sim::Task<Status> MiniDfs::write(Host& writer, std::string path, Bytes data,
                                 double scale) {
  Writer out(*this, writer, std::move(path), scale);
  co_await out.append(data);
  co_return co_await out.close();
}

void MiniDfs::kill_datanode(int host_id) {
  dead_.insert(host_id);
  namenode_.decommission(host_id);
  // Prune the dead node from every block's replica list (its block
  // report is gone).
  for (auto& [_, info] : namenode_.files()) {
    for (auto& block : info.blocks) {
      block.replicas.erase(
          std::remove(block.replicas.begin(), block.replicas.end(), host_id),
          block.replicas.end());
    }
  }
}

bool MiniDfs::is_alive(int host_id) const { return !dead_.contains(host_id); }

int MiniDfs::under_replicated_blocks() const {
  const int want = std::min<int>(namenode_.params().replication,
                                 int(namenode_.datanodes().size()));
  int count = 0;
  for (const auto& [_, info] :
       const_cast<NameNode&>(namenode_).files()) {
    for (const auto& block : info.blocks) {
      if (int(block.replicas.size()) < want) ++count;
    }
  }
  return count;
}

sim::Task<int> MiniDfs::replicate_under_replicated() {
  const int want = std::min<int>(namenode_.params().replication,
                                 int(namenode_.datanodes().size()));
  int copied = 0;
  for (auto& [_, info] : namenode_.files()) {
    for (auto& block : info.blocks) {
      while (int(block.replicas.size()) < want) {
        if (block.replicas.empty()) {
          // All replicas lost: the block (and file) is gone for good.
          break;
        }
        // Source: first replica serving a clean copy — corrupt or
        // persistently erroring replicas are skipped (a later read will
        // prune the corrupt ones).
        auto& metrics = cluster_.engine().metrics();
        Host* source = nullptr;
        std::shared_ptr<const Bytes> payload;
        double scale = 1.0;
        std::uint64_t modeled = 0;
        const std::vector<int> sources = block.replicas;
        for (int candidate : sources) {
          Host& cand = cluster_.host(candidate);
          Result<storage::FileView> view =
              co_await cand.fs().read_file(block_path(block.id));
          for (int attempt = 1;
               !view.ok() &&
               view.status().code() == StatusCode::kUnavailable &&
               attempt < kReadAttemptsPerReplica;
               ++attempt) {
            metrics.counter("hdfs.read.retries").add();
            view = co_await cand.fs().read_file(block_path(block.id));
          }
          if (!view.ok()) continue;
          if (view->corrupted || crc32c(*view->data) != block.crc) {
            metrics.counter("hdfs.read.checksum_mismatches").add();
            continue;
          }
          source = &cand;
          payload = view->data;
          scale = view->scale;
          modeled = view->modeled_size();
          break;
        }
        if (source == nullptr) break;  // no clean copy this round
        // Target: a live DataNode without a replica.
        int target = -1;
        for (int candidate : namenode_.datanodes()) {
          if (std::find(block.replicas.begin(), block.replicas.end(),
                        candidate) == block.replicas.end()) {
            target = candidate;
            break;
          }
        }
        if (target < 0) break;  // not enough live nodes
        Host& dst = cluster_.host(target);
        co_await network_.transmit(*source, dst, modeled);
        co_await write_replica(dst, block.id, std::move(payload), scale);
        // The block map may have changed across the awaits; only record
        // the new replica if it is still missing.
        if (std::find(block.replicas.begin(), block.replicas.end(), target) ==
            block.replicas.end()) {
          block.replicas.push_back(target);
          ++copied;
        }
      }
    }
  }
  co_return copied;
}

sim::Task<Result<Bytes>> MiniDfs::read_block(Host& reader,
                                             const std::string& path,
                                             size_t block_index) {
  auto info = namenode_.stat(path);
  if (!info.ok()) co_return Result<Bytes>(info.status());
  if (block_index >= info->blocks.size()) {
    co_return Result<Bytes>(Status::OutOfRange("block index"));
  }
  co_await rpc(reader);  // getBlockLocations()
  const BlockInfo block = info->blocks[block_index];

  if (block.replicas.empty()) {
    co_return Result<Bytes>(Status::Unavailable(
        "all replicas of block " + std::to_string(block.id) + " are dead"));
  }
  // Candidate order: the node-local replica first, then placement order.
  std::vector<int> candidates;
  for (int replica : block.replicas) {
    if (replica == reader.id()) candidates.push_back(replica);
  }
  for (int replica : block.replicas) {
    if (replica != reader.id()) candidates.push_back(replica);
  }

  auto& metrics = cluster_.engine().metrics();
  Status last = Status::Unavailable("unreadable");
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (c > 0) metrics.counter("hdfs.replica.failovers").add();
    const int source = candidates[c];
    Host& dn = cluster_.host(source);
    bool saw_corrupt = false;
    for (int attempt = 0; attempt < kReadAttemptsPerReplica; ++attempt) {
      auto view = co_await dn.fs().read_file(block_path(block.id));
      if (!view.ok()) {
        last = view.status();
        // NotFound means the replica itself is gone; only transient
        // errors are worth retrying on the same DataNode.
        if (last.code() != StatusCode::kUnavailable) break;
        metrics.counter("hdfs.read.retries").add();
        continue;
      }
      // HDFS verifies block checksums on every read (DataChecksum).
      if (view->corrupted || crc32c(*view->data) != block.crc) {
        metrics.counter("hdfs.read.checksum_mismatches").add();
        last = Status::Internal("checksum mismatch reading block " +
                                std::to_string(block.id) + " of " + path);
        saw_corrupt = true;  // re-read: a transient flip may clear
        continue;
      }
      if (source != reader.id()) {
        co_await network_.transmit(dn, reader, view->modeled_size());
      }
      co_return Bytes(*view->data);
    }
    if (saw_corrupt) {
      // Persistently corrupt replica: report it bad, drop it from the
      // block map, and let the replication monitor restore the count
      // from a clean copy while we fail over.
      prune_replica(path, block.id, source);
      spawn_rereplication();
    }
  }
  co_return Result<Bytes>(Status::Unavailable(
      "no readable replica of block " + std::to_string(block.id) + " of " +
      path + " (last error: " + last.to_string() + ")"));
}

sim::Task<Result<Bytes>> MiniDfs::read(Host& reader, std::string path) {
  auto info = namenode_.stat(path);
  if (!info.ok()) co_return Result<Bytes>(info.status());
  Bytes out;
  out.reserve(info->real_size);
  for (size_t b = 0; b < info->blocks.size(); ++b) {
    auto block = co_await read_block(reader, path, b);
    if (!block.ok()) co_return Result<Bytes>(block.status());
    out.insert(out.end(), block->begin(), block->end());
  }
  co_return out;
}

Result<Bytes> MiniDfs::peek(const std::string& path) const {
  auto info = namenode_.stat(path);
  if (!info.ok()) return info.status();
  Bytes out;
  out.reserve(info->real_size);
  for (const auto& block : info->blocks) {
    // Any clean replica works; at-rest rot on one replica must not make
    // validation read garbage when a clean copy exists.
    std::optional<storage::FileView> chosen;
    for (int replica : block.replicas) {
      auto view = cluster_.host(replica).fs().peek(block_path(block.id));
      if (!view.ok()) continue;
      if (!view->corrupted) {
        chosen = *view;
        break;
      }
      if (!chosen) chosen = *view;  // corrupt fallback, better than nothing
    }
    if (!chosen) {
      return Status::Unavailable("no readable replica of block " +
                                 std::to_string(block.id) + " of " + path);
    }
    out.insert(out.end(), chosen->data->begin(), chosen->data->end());
  }
  return out;
}

}  // namespace hmr::hdfs
