#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "common/units.h"
#include "hdfs/hdfs.h"

namespace hmr::hdfs {
using hmr::kMiB;
namespace {

using net::Cluster;
using net::NetProfile;
using sim::Engine;
using sim::Task;

struct DfsWorld {
  Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Network> network;
  std::unique_ptr<MiniDfs> dfs;

  explicit DfsWorld(int hosts = 5, HdfsParams params = {},
                    NetProfile profile = NetProfile::ipoib_qdr()) {
    cluster = std::make_unique<Cluster>(engine, profile,
                                        Cluster::uniform(hosts, 1));
    network = std::make_unique<Network>(engine, profile);
    // host0 is the master; every other host runs a DataNode.
    std::vector<int> datanodes;
    for (int i = 1; i < hosts; ++i) datanodes.push_back(i);
    dfs = std::make_unique<MiniDfs>(*cluster, *network, params, 0,
                                    std::move(datanodes));
  }
  Host& host(int i) { return cluster->host(i); }
};

Bytes pattern(size_t n) {
  Bytes out(n);
  std::iota(out.begin(), out.end(), std::uint8_t(1));
  return out;
}

TEST(HdfsTest, WriteReadRoundTrip) {
  DfsWorld w;
  Bytes data = pattern(10'000);
  Bytes got;
  w.engine.spawn([](DfsWorld& w, Bytes data, Bytes& got) -> Task<> {
    EXPECT_TRUE((co_await w.dfs->write(w.host(1), "/in/part0", data)).ok());
    auto back = co_await w.dfs->read(w.host(2), "/in/part0");
    EXPECT_TRUE(back.ok());
    got = std::move(back.value());
  }(w, data, got));
  w.engine.run();
  EXPECT_EQ(got, data);
}

TEST(HdfsTest, MissingFileErrors) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    auto r = co_await w.dfs->read(w.host(1), "/nope");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }(w));
  w.engine.run();
  EXPECT_FALSE(w.dfs->stat("/nope").ok());
}

TEST(HdfsTest, DuplicateCreateRejected) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    EXPECT_TRUE((co_await w.dfs->write(w.host(1), "/f", pattern(10))).ok());
    auto again = co_await w.dfs->write(w.host(1), "/f", pattern(10));
    EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  }(w));
  w.engine.run();
}

TEST(HdfsTest, FileSplitsIntoBlocks) {
  HdfsParams params;
  params.block_size = 1000;  // modeled
  DfsWorld w(5, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/big", pattern(3500), 1.0);
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/big").value();
  ASSERT_EQ(info.blocks.size(), 4u);
  EXPECT_EQ(info.blocks[0].real_len, 1000u);
  EXPECT_EQ(info.blocks[3].real_len, 500u);
  EXPECT_EQ(info.real_size, 3500u);
}

TEST(HdfsTest, ScaledFileSplitsByModeledSize) {
  HdfsParams params;
  params.block_size = 64 * kMiB;
  DfsWorld w(5, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    // 1 MB real at scale 256 = 256 MB modeled = 4 blocks.
    co_await w.dfs->write(w.host(1), "/scaled", pattern(1024 * 1024), 256.0);
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/scaled").value();
  EXPECT_EQ(info.blocks.size(), 4u);
  EXPECT_EQ(info.modeled_size(), 256 * kMiB);
}

TEST(HdfsTest, ReplicationPlacesDistinctHosts) {
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(6, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(2), "/r", pattern(100));
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/r").value();
  ASSERT_EQ(info.blocks.size(), 1u);
  const auto& replicas = info.blocks[0].replicas;
  EXPECT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 2);  // writer-local first
  std::set<int> distinct(replicas.begin(), replicas.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(HdfsTest, ReplicationClampedToClusterSize) {
  HdfsParams params;
  params.replication = 10;
  DfsWorld w(4, params);  // only 3 DataNodes
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/r", pattern(100));
  }(w));
  w.engine.run();
  EXPECT_EQ(w.dfs->stat("/r").value().blocks[0].replicas.size(), 3u);
}

TEST(HdfsTest, NonDatanodeWriterGetsRemoteReplicas) {
  DfsWorld w;  // host0 (master) is not a DataNode
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(0), "/from-master", pattern(100));
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/from-master").value();
  for (int replica : info.blocks[0].replicas) {
    EXPECT_NE(replica, 0);
  }
}

TEST(HdfsTest, BlocksLandOnDataNodeDisks) {
  HdfsParams params;
  params.replication = 2;
  DfsWorld w(4, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/d", pattern(5000));
  }(w));
  w.engine.run();
  std::uint64_t written = 0;
  for (int h = 1; h < 4; ++h) {
    written += w.host(h).fs().disk(0).bytes_written();
  }
  EXPECT_EQ(written, 2u * 5000u);  // replication factor x file size
}

TEST(HdfsTest, LocalReadAvoidsNetwork) {
  HdfsParams params;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/local", pattern(100'000), 1.0);
  }(w));
  w.engine.run();
  const auto before = w.engine.metrics().counter_value("net.bytes");
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    auto r = co_await w.dfs->read(w.host(1), "/local");
    EXPECT_TRUE(r.ok());
  }(w));
  w.engine.run();
  // Only RPC bytes, no block payload on the wire.
  EXPECT_LT(w.engine.metrics().counter_value("net.bytes") - before, 10'000);
}

TEST(HdfsTest, RemoteReadMovesPayload) {
  HdfsParams params;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/remote", pattern(100'000), 1.0);
  }(w));
  w.engine.run();
  const auto before = w.engine.metrics().counter_value("net.bytes");
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    auto r = co_await w.dfs->read(w.host(2), "/remote");
    EXPECT_TRUE(r.ok());
  }(w));
  w.engine.run();
  EXPECT_GE(w.engine.metrics().counter_value("net.bytes") - before, 100'000);
}

TEST(HdfsTest, ReadBlockBoundsChecked) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/b", pattern(10));
    auto bad = co_await w.dfs->read_block(w.host(1), "/b", 5);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  }(w));
  w.engine.run();
}

TEST(HdfsTest, PeekMatchesContentWithoutTiming) {
  DfsWorld w;
  Bytes data = pattern(2500);
  w.engine.spawn([](DfsWorld& w, Bytes data) -> Task<> {
    co_await w.dfs->write(w.host(1), "/p", std::move(data));
  }(w, data));
  w.engine.run();
  const double t = w.engine.now();
  EXPECT_EQ(w.dfs->peek("/p").value(), data);
  EXPECT_DOUBLE_EQ(w.engine.now(), t);
}

TEST(HdfsTest, RemoveAndList) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/out/part-0", pattern(10));
    co_await w.dfs->write(w.host(1), "/out/part-1", pattern(10));
    co_await w.dfs->write(w.host(1), "/in/part-0", pattern(10));
  }(w));
  w.engine.run();
  EXPECT_EQ(w.dfs->list("/out/").size(), 2u);
  EXPECT_TRUE(w.dfs->namenode().remove("/out/part-0").ok());
  EXPECT_EQ(w.dfs->list("/out/").size(), 1u);
  EXPECT_FALSE(w.dfs->namenode().remove("/out/part-0").ok());
}

TEST(HdfsTest, EmptyFileSupported) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    Bytes empty;
    EXPECT_TRUE((co_await w.dfs->write(w.host(1), "/empty", empty)).ok());
    auto r = co_await w.dfs->read(w.host(2), "/empty");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->empty());
  }(w));
  w.engine.run();
}

TEST(HdfsTest, PipelinedWriteFasterThanSequentialWould) {
  // With 3 replicas the pipelined write should take ~1 block transfer
  // time, not ~3. We allow generous slack for disk time.
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(5, params, NetProfile::ten_gige());
  double elapsed = -1;
  const std::uint64_t modeled = 115'000'000;  // ~0.1 s on the wire
  w.engine.spawn([](DfsWorld& w, std::uint64_t modeled, double& out)
                     -> Task<> {
    // 100 KB real at scale 1150 -> 115 MB modeled.
    co_await w.dfs->write(w.host(0), "/pipe", pattern(100'000),
                          double(modeled) / 100'000.0);
    out = w.engine.now();
  }(w, modeled, elapsed));
  w.engine.run();
  const double wire = double(modeled) / NetProfile::ten_gige().effective_bw();
  const double disk = double(modeled) / 115e6;
  EXPECT_LT(elapsed, 1.6 * (wire + disk));
}

}  // namespace
}  // namespace hmr::hdfs

namespace hmr::hdfs {
namespace {

TEST(HdfsWriterTest, StreamingAppendFlushesFullBlocks) {
  HdfsParams params;
  params.block_size = 1000;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    MiniDfs::Writer out(*w.dfs, w.host(1), "/stream", 1.0);
    for (int i = 0; i < 7; ++i) {
      co_await out.append(pattern(500));
    }
    EXPECT_TRUE((co_await out.close()).ok());
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/stream").value();
  EXPECT_EQ(info.real_size, 3500u);
  EXPECT_EQ(info.blocks.size(), 4u);  // 3 full + 1 tail of 500
  EXPECT_EQ(info.blocks[3].real_len, 500u);
}

TEST(HdfsWriterTest, ReplicationOverrideApplies) {
  HdfsParams params;
  params.block_size = 1000;
  params.replication = 3;
  DfsWorld w(5, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    MiniDfs::Writer out(*w.dfs, w.host(1), "/r1", 1.0, /*replication=*/1);
    co_await out.append(pattern(100));
    EXPECT_TRUE((co_await out.close()).ok());
  }(w));
  w.engine.run();
  EXPECT_EQ(w.dfs->stat("/r1").value().blocks[0].replicas.size(), 1u);
}

TEST(HdfsWriterTest, ContentSurvivesBlockBoundaries) {
  HdfsParams params;
  params.block_size = 777;  // awkward boundary
  params.replication = 2;
  DfsWorld w(4, params);
  Bytes expected;
  w.engine.spawn([](DfsWorld& w, Bytes& expected) -> Task<> {
    MiniDfs::Writer out(*w.dfs, w.host(2), "/chunky", 1.0);
    for (int i = 0; i < 5; ++i) {
      Bytes piece(300 + i * 37);
      for (size_t b = 0; b < piece.size(); ++b) {
        piece[b] = std::uint8_t(i * 31 + b);
      }
      expected.insert(expected.end(), piece.begin(), piece.end());
      co_await out.append(piece);
    }
    EXPECT_TRUE((co_await out.close()).ok());
  }(w, expected));
  w.engine.run();
  EXPECT_EQ(w.dfs->peek("/chunky").value(), expected);
}

}  // namespace
}  // namespace hmr::hdfs

namespace hmr::hdfs {
namespace {

TEST(HdfsChecksumTest, BlocksCarryCrcs) {
  DfsWorld w;
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/c", pattern(5000));
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/c").value();
  for (const auto& block : info.blocks) {
    EXPECT_NE(block.crc, 0u);
  }
}

TEST(HdfsChecksumTest, CorruptReplicaDetectedOnRead) {
  HdfsParams params;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/x", pattern(1000));
  }(w));
  w.engine.run();
  // Flip bits in the stored block behind HDFS's back.
  const auto block_files = w.host(1).fs().list("dfs/");
  ASSERT_EQ(block_files.size(), 1u);
  w.engine.spawn([](DfsWorld& w, std::string path) -> Task<> {
    Bytes garbage(1000, 0xEE);
    EXPECT_TRUE((co_await w.host(1).fs().write_file(path, std::move(garbage))).ok());
    auto read = co_await w.dfs->read(w.host(2), "/x");
    EXPECT_FALSE(read.ok());
    EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
  }(w, block_files[0]));
  w.engine.run();
}

TEST(HdfsChecksumTest, ReplicasShareOneBufferButNotCorruption) {
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(5, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/shared", pattern(2000));
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/shared").value();
  ASSERT_EQ(info.blocks.size(), 1u);
  const auto& block = info.blocks[0];
  ASSERT_EQ(block.replicas.size(), 3u);
  const std::string path = "dfs/blk_" + std::to_string(block.id);
  const Bytes* buffer = nullptr;
  for (int replica : block.replicas) {
    const auto view = w.host(replica).fs().peek(path);
    ASSERT_TRUE(view.ok());
    if (buffer == nullptr) buffer = view->data.get();
    EXPECT_EQ(view->data.get(), buffer);  // one payload, three files
  }
  EXPECT_EQ(*buffer, pattern(2000));

  // At-rest rot on one replica stays on that replica.
  const int bad = block.replicas[0];
  ASSERT_TRUE(w.host(bad).fs().mark_corrupt(path).ok());
  for (int replica : block.replicas) {
    const auto view = w.host(replica).fs().peek(path);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->corrupted, replica == bad) << "host " << replica;
  }
  Bytes got;
  w.engine.spawn([](DfsWorld& w, Bytes& got) -> Task<> {
    auto r = co_await w.dfs->read(w.host(0), "/shared");
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  }(w, got));
  w.engine.run();
  EXPECT_EQ(got, pattern(2000));
}

TEST(HdfsChecksumTest, IntactReplicaPassesThroughEveryPath) {
  DfsWorld w;
  Bytes data = pattern(3000);
  w.engine.spawn([](DfsWorld& w, Bytes data) -> Task<> {
    co_await w.dfs->write(w.host(1), "/ok", data);
    auto whole = co_await w.dfs->read(w.host(2), "/ok");
    EXPECT_TRUE(whole.ok());
    auto block = co_await w.dfs->read_block(w.host(3), "/ok", 0);
    EXPECT_TRUE(block.ok());
  }(w, data));
  w.engine.run();
}

}  // namespace
}  // namespace hmr::hdfs

namespace hmr::hdfs {
namespace {

TEST(HdfsFaultTest, ReadsSurviveOneReplicaLoss) {
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(5, params);
  Bytes data = pattern(4000);
  w.engine.spawn([](DfsWorld& w, Bytes data) -> Task<> {
    co_await w.dfs->write(w.host(1), "/f", std::move(data));
  }(w, data));
  w.engine.run();
  const int victim = w.dfs->stat("/f").value().blocks[0].replicas[0];
  w.dfs->kill_datanode(victim);
  EXPECT_FALSE(w.dfs->is_alive(victim));
  Bytes got;
  w.engine.spawn([](DfsWorld& w, Bytes& got) -> Task<> {
    auto r = co_await w.dfs->read(w.host(0), "/f");
    EXPECT_TRUE(r.ok());
    got = std::move(r.value());
  }(w, got));
  w.engine.run();
  EXPECT_EQ(got, data);
}

TEST(HdfsFaultTest, AllReplicasLostIsUnavailable) {
  HdfsParams params;
  params.replication = 1;
  DfsWorld w(3, params);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/gone", pattern(100));
  }(w));
  w.engine.run();
  w.dfs->kill_datanode(w.dfs->stat("/gone").value().blocks[0].replicas[0]);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    auto r = co_await w.dfs->read(w.host(0), "/gone");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }(w));
  w.engine.run();
}

TEST(HdfsFaultTest, ReplicationMonitorRestoresFactor) {
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(6, params);  // 5 DataNodes
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/r", pattern(9000));
    co_await w.dfs->write(w.host(2), "/s", pattern(5000));
  }(w));
  w.engine.run();
  EXPECT_EQ(w.dfs->under_replicated_blocks(), 0);

  w.dfs->kill_datanode(1);
  EXPECT_GT(w.dfs->under_replicated_blocks(), 0);

  int copied = -1;
  w.engine.spawn([](DfsWorld& w, int& copied) -> Task<> {
    copied = co_await w.dfs->replicate_under_replicated();
  }(w, copied));
  w.engine.run();
  EXPECT_GT(copied, 0);
  EXPECT_EQ(w.dfs->under_replicated_blocks(), 0);

  // Every block still readable with verified checksums.
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    EXPECT_TRUE((co_await w.dfs->read(w.host(0), "/r")).ok());
    EXPECT_TRUE((co_await w.dfs->read(w.host(0), "/s")).ok());
  }(w));
  w.engine.run();
}

TEST(HdfsFaultTest, DeadNodeNotChosenForNewBlocks) {
  HdfsParams params;
  params.replication = 2;
  DfsWorld w(5, params);
  w.dfs->kill_datanode(2);
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/new", pattern(2000));
  }(w));
  w.engine.run();
  const auto info = w.dfs->stat("/new").value();
  for (const auto& block : info.blocks) {
    for (int replica : block.replicas) EXPECT_NE(replica, 2);
  }
}

TEST(HdfsFaultTest, ReplicationCapsAtLiveNodeCount) {
  HdfsParams params;
  params.replication = 3;
  DfsWorld w(4, params);  // 3 DataNodes
  w.engine.spawn([](DfsWorld& w) -> Task<> {
    co_await w.dfs->write(w.host(1), "/f", pattern(100));
  }(w));
  w.engine.run();
  w.dfs->kill_datanode(3);
  // Only 2 live DataNodes remain: "fully replicated" now means 2.
  int copied = -1;
  w.engine.spawn([](DfsWorld& w, int& copied) -> Task<> {
    copied = co_await w.dfs->replicate_under_replicated();
  }(w, copied));
  w.engine.run();
  EXPECT_EQ(w.dfs->under_replicated_blocks(), 0);
}

}  // namespace
}  // namespace hmr::hdfs
