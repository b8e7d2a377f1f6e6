#include <gtest/gtest.h>

#include <memory>

#include "net/cluster.h"
#include "net/ibfab.h"
#include "net/network.h"
#include "net/profile.h"
#include "net/socket.h"

namespace hmr::net {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Network> network;

  explicit World(NetProfile profile, int hosts = 2) {
    cluster = std::make_unique<Cluster>(engine, profile,
                                        Cluster::uniform(hosts, 1));
    network = std::make_unique<Network>(engine, profile);
  }
  Host& host(int i) { return cluster->host(i); }
};

// --------------------------------------------------------------- profile

TEST(ProfileTest, RelativeBandwidthOrdering) {
  EXPECT_LT(NetProfile::one_gige().effective_bw(),
            NetProfile::ten_gige().effective_bw());
  EXPECT_LT(NetProfile::ten_gige().effective_bw(),
            NetProfile::ipoib_qdr().effective_bw());
  EXPECT_LT(NetProfile::ipoib_qdr().effective_bw(),
            NetProfile::verbs_qdr().effective_bw());
}

TEST(ProfileTest, VerbsIsOsBypassSocketsAreNot) {
  EXPECT_TRUE(NetProfile::verbs_qdr().os_bypass());
  EXPECT_FALSE(NetProfile::ipoib_qdr().os_bypass());
  EXPECT_FALSE(NetProfile::one_gige().os_bypass());
  EXPECT_FALSE(NetProfile::ten_gige().os_bypass());
}

TEST(ProfileTest, VerbsLatencyMuchLower) {
  EXPECT_LT(NetProfile::verbs_qdr().base_latency,
            NetProfile::ipoib_qdr().base_latency / 5);
}

// --------------------------------------------------------------- network

TEST(NetworkTest, TransferTimeMatchesBandwidth) {
  World w(NetProfile::verbs_qdr());
  double done = -1;
  const std::uint64_t bytes = 324'000'000;  // 0.1 s at 3.24 GB/s effective
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), n);
    out = w.engine.now();
  }(w, bytes, done));
  w.engine.run();
  const double expected =
      double(bytes) / NetProfile::verbs_qdr().effective_bw();
  EXPECT_NEAR(done, expected, expected * 0.02);
  EXPECT_EQ(w.engine.metrics().counter_value("net.bytes"),
            std::int64_t(bytes));
  EXPECT_EQ(w.engine.metrics().counter_value("net.messages"), 1);
}

TEST(NetworkTest, ControlMessagePaysLatencyOnly) {
  World w(NetProfile::ipoib_qdr());
  double done = -1;
  w.engine.spawn([](World& w, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), 0);
    out = w.engine.now();
  }(w, done));
  w.engine.run();
  EXPECT_NEAR(done,
              NetProfile::ipoib_qdr().base_latency +
                  NetProfile::ipoib_qdr().per_msg_cpu,
              1e-6);
}

TEST(NetworkTest, TwoFlowsShareEgressLink) {
  // Two flows from host0 to different receivers halve each other's rate.
  World w(NetProfile::verbs_qdr(), 3);
  const std::uint64_t bytes = 100'000'000;
  double t1 = -1, t2 = -1;
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), n);
    out = w.engine.now();
  }(w, bytes, t1));
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(2), n);
    out = w.engine.now();
  }(w, bytes, t2));
  w.engine.run();
  const double solo = double(bytes) / NetProfile::verbs_qdr().effective_bw();
  EXPECT_NEAR(t1, 2 * solo, 2 * solo * 0.05);
  EXPECT_NEAR(t2, 2 * solo, 2 * solo * 0.05);
}

TEST(NetworkTest, DisjointPairsDoNotInterfere) {
  World w(NetProfile::verbs_qdr(), 4);
  const std::uint64_t bytes = 100'000'000;
  double t1 = -1, t2 = -1;
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), n);
    out = w.engine.now();
  }(w, bytes, t1));
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(2), w.host(3), n);
    out = w.engine.now();
  }(w, bytes, t2));
  w.engine.run();
  const double solo = double(bytes) / NetProfile::verbs_qdr().effective_bw();
  EXPECT_NEAR(t1, solo, solo * 0.05);
  EXPECT_NEAR(t2, solo, solo * 0.05);
}

TEST(NetworkTest, SocketPathChargesCpu) {
  World w(NetProfile::ipoib_qdr());
  w.engine.spawn([](World& w) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), 50'000'000);
  }(w));
  w.engine.run();
  EXPECT_GT(w.engine.metrics().gauge_value("net.cpu_seconds"), 0.0);

  World v(NetProfile::verbs_qdr());
  v.engine.spawn([](World& w) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), 50'000'000);
  }(v));
  v.engine.run();
  EXPECT_EQ(v.engine.metrics().gauge_value("net.cpu_seconds"), 0.0);
}

TEST(NetworkTest, BusyCpuSlowsSocketTransfersOnly) {
  auto run = [](NetProfile profile) {
    World w(profile);
    // Saturate every core on both hosts with long compute.
    for (int h = 0; h < 2; ++h) {
      for (int c = 0; c < w.host(h).cores(); ++c) {
        w.engine.spawn(
            [](Host& host) -> Task<> { co_await host.compute(1000.0); }(
                w.host(h)));
      }
    }
    double done = -1;
    w.engine.spawn([](World& w, double& out) -> Task<> {
      co_await w.engine.delay(0.001);  // let compute grab the cores
      co_await w.network->transmit(w.host(0), w.host(1), 10'000'000);
      out = w.engine.now();
    }(w, done));
    w.engine.run();
    return done;
  };
  // Verbs ignores CPU saturation; the socket path stalls behind compute.
  EXPECT_LT(run(NetProfile::verbs_qdr()), 1.0);
  EXPECT_GT(run(NetProfile::ipoib_qdr()), 999.0);
}

// ---------------------------------------------------------------- socket

TEST(SocketTest, ConnectSendRecv) {
  World w(NetProfile::one_gige());
  Listener listener(*w.network, w.host(1));
  std::string received;
  w.engine.spawn([](Listener& l, std::string& out) -> Task<> {
    auto sock = co_await l.accept();
    auto msg = co_await sock->recv();
    EXPECT_TRUE(msg.has_value());
    out.assign(msg->payload->begin(), msg->payload->end());
  }(listener, received));
  w.engine.spawn([](World& w, Listener& l) -> Task<> {
    auto sock = co_await connect(*w.network, w.host(0), l);
    Bytes hi = {'h', 'i'};
    co_await sock->send(Message::data(std::move(hi)));
    sock->close();
  }(w, listener));
  w.engine.run();
  EXPECT_EQ(received, "hi");
}

TEST(SocketTest, MessagesArriveInOrder) {
  World w(NetProfile::ten_gige());
  Listener listener(*w.network, w.host(1));
  std::vector<std::uint64_t> tags;
  w.engine.spawn([](Listener& l, std::vector<std::uint64_t>& tags) -> Task<> {
    auto sock = co_await l.accept();
    while (auto msg = co_await sock->recv()) tags.push_back(msg->tag);
  }(listener, tags));
  w.engine.spawn([](World& w, Listener& l) -> Task<> {
    auto sock = co_await connect(*w.network, w.host(0), l);
    for (std::uint64_t i = 0; i < 20; ++i) {
      co_await sock->send(Message::control(i, 1000));
    }
    sock->close();
  }(w, listener));
  w.engine.run();
  EXPECT_EQ(tags.size(), 20u);
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));
}

TEST(SocketTest, BigTransferTakesBandwidthTime) {
  World w(NetProfile::one_gige());
  Listener listener(*w.network, w.host(1));
  double done = -1;
  w.engine.spawn([](Listener& l, double&) -> Task<> {
    auto sock = co_await l.accept();
    while (co_await sock->recv()) {
    }
  }(listener, done));
  w.engine.spawn([](World& w, Listener& l, double& out) -> Task<> {
    auto sock = co_await connect(*w.network, w.host(0), l);
    Message bulk{nullptr, 117'500'000, 0};  // 1 s at 1GigE effective bw
    co_await sock->send(std::move(bulk));
    sock->close();
    out = w.engine.now();
  }(w, listener, done));
  w.engine.run();
  EXPECT_NEAR(done, 1.0, 0.1);
}

TEST(SocketTest, DuplexDirectionsIndependent) {
  World w(NetProfile::ten_gige());
  Listener listener(*w.network, w.host(1));
  bool server_got = false, client_got = false;
  w.engine.spawn([](Listener& l, bool& got) -> Task<> {
    auto sock = co_await l.accept();
    auto msg = co_await sock->recv();
    got = msg.has_value() && msg->tag == 1;
    co_await sock->send(Message::control(2, 10));
    sock->close();
  }(listener, server_got));
  w.engine.spawn([](World& w, Listener& l, bool& got) -> Task<> {
    auto sock = co_await connect(*w.network, w.host(0), l);
    co_await sock->send(Message::control(1, 10));
    auto msg = co_await sock->recv();
    got = msg.has_value() && msg->tag == 2;
    sock->close();
  }(w, listener, client_got));
  w.engine.run();
  EXPECT_TRUE(server_got);
  EXPECT_TRUE(client_got);
}

TEST(SocketTest, ListenerCloseUnblocksAccept) {
  World w(NetProfile::one_gige());
  Listener listener(*w.network, w.host(1));
  bool got_null = false;
  w.engine.spawn([](Listener& l, bool& got_null) -> Task<> {
    auto sock = co_await l.accept();
    got_null = sock == nullptr;
  }(listener, got_null));
  w.engine.spawn([](World& w, Listener& l) -> Task<> {
    co_await w.engine.delay(1.0);
    l.close();
  }(w, listener));
  w.engine.run();
  EXPECT_TRUE(got_null);
  EXPECT_EQ(w.engine.live_processes(), 0);
}

// ----------------------------------------------------------------- verbs

struct VerbsWorld : World {
  ibv::ProtectionDomain pd0, pd1;
  ibv::CompletionQueue scq0, rcq0, scq1, rcq1;
  ibv::QueuePair qp0, qp1;

  VerbsWorld()
      : World(NetProfile::verbs_qdr()),
        pd0(engine, host(0)),
        pd1(engine, host(1)),
        scq0(engine),
        rcq0(engine),
        scq1(engine),
        rcq1(engine),
        qp0(*network, pd0, scq0, rcq0),
        qp1(*network, pd1, scq1, rcq1) {
    HMR_CHECK(ibv::QueuePair::connect(qp0, qp1).ok());
  }
};

TEST(VerbsTest, ConnectTransitionsToRts) {
  VerbsWorld w;
  EXPECT_EQ(w.qp0.state(), ibv::QpState::kRts);
  EXPECT_EQ(w.qp1.state(), ibv::QpState::kRts);
}

TEST(VerbsTest, CannotConnectTwice) {
  VerbsWorld w;
  EXPECT_FALSE(ibv::QueuePair::connect(w.qp0, w.qp1).ok());
}

TEST(VerbsTest, PostSendRequiresRts) {
  Engine engine;
  auto cluster = std::make_unique<Cluster>(engine, NetProfile::verbs_qdr(),
                                           Cluster::uniform(2, 1));
  Network network(engine, NetProfile::verbs_qdr());
  ibv::ProtectionDomain pd(engine, cluster->host(0));
  ibv::CompletionQueue scq(engine), rcq(engine);
  ibv::QueuePair qp(network, pd, scq, rcq);
  EXPECT_FALSE(qp.post_send({1, Message::control(0, 8)}).ok());
  ibv::Completion read;
  engine.spawn([](ibv::QueuePair& qp, ibv::Completion& out) -> Task<> {
    const ibv::RdmaReadWr wr{.wr_id = 1, .remote_rkey = 5, .real_len = 8};
    out = co_await qp.rdma_read(wr);
  }(qp, read));
  engine.run();
  EXPECT_EQ(read.status, ibv::WcStatus::kWrFlushError);
}

TEST(VerbsTest, SendRecvCompletesBothSides) {
  VerbsWorld w;
  bool done = false;
  w.engine.spawn([](VerbsWorld& w, bool& done) -> Task<> {
    EXPECT_TRUE(w.qp1.post_recv({.wr_id = 77}).ok());
    EXPECT_TRUE(
        w.qp0.post_send({.wr_id = 11, .message = Message::data(Bytes{1, 2, 3})})
            .ok());
    auto rx = co_await w.rcq1.wait();
    EXPECT_EQ(rx.wr_id, 77u);
    EXPECT_EQ(rx.opcode, ibv::Opcode::kRecv);
    EXPECT_EQ(rx.message.real_size(), 3u);
    auto tx = co_await w.scq0.wait();
    EXPECT_EQ(tx.wr_id, 11u);
    EXPECT_EQ(tx.opcode, ibv::Opcode::kSend);
    done = true;
  }(w, done));
  w.engine.run();
  EXPECT_TRUE(done);
}

TEST(VerbsTest, SendParksUntilRecvPosted) {
  VerbsWorld w;
  double recv_time = -1;
  w.engine.spawn([](VerbsWorld& w, double& recv_time) -> Task<> {
    EXPECT_TRUE(
        w.qp0.post_send({.wr_id = 1, .message = Message::control(0, 100)})
            .ok());
    // Post the receive 2 s later; the send must not complete before.
    co_await w.engine.delay(2.0);
    EXPECT_TRUE(w.qp1.post_recv({.wr_id = 2}).ok());
    auto rx = co_await w.rcq1.wait();
    recv_time = w.engine.now();
    EXPECT_EQ(rx.wr_id, 2u);
  }(w, recv_time));
  w.engine.run();
  EXPECT_GE(recv_time, 2.0);
}

TEST(VerbsTest, SendsCompleteInPostingOrder) {
  VerbsWorld w;
  std::vector<std::uint64_t> order;
  w.engine.spawn([](VerbsWorld& w, std::vector<std::uint64_t>& order)
                     -> Task<> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(w.qp1.post_recv({.wr_id = std::uint64_t(i)}).ok());
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(w.qp0.post_send({.wr_id = std::uint64_t(100 + i),
                                   .message = Message::control(0, 1000)})
                      .ok());
    }
    for (int i = 0; i < 8; ++i) {
      auto tx = co_await w.scq0.wait();
      order.push_back(tx.wr_id);
    }
  }(w, order));
  w.engine.run();
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 8u);
}

TEST(VerbsTest, RegistrationChargesTime) {
  VerbsWorld w;
  double elapsed = -1;
  w.engine.spawn([](VerbsWorld& w, double& out) -> Task<> {
    auto buffer = std::make_shared<Bytes>(1024);
    // 1 KiB real, scale 1024 -> 1 MiB modeled: base + per_mib.
    ibv::MemoryRegionSpec spec{buffer, 1024.0};
    auto* mr = co_await w.pd0.register_memory(std::move(spec));
    EXPECT_NE(mr, nullptr);
    EXPECT_EQ(mr->modeled_size(), 1024u * 1024u);
    out = w.engine.now();
  }(w, elapsed));
  w.engine.run();
  const auto& cost = ibv::RegistrationCost{};
  EXPECT_NEAR(elapsed, cost.base + cost.per_mib, 1e-9);
}

TEST(VerbsTest, RdmaReadFetchesRemoteBytes) {
  VerbsWorld w;
  bool verified = false;
  w.engine.spawn([](VerbsWorld& w, bool& verified) -> Task<> {
    auto buffer = std::make_shared<Bytes>(Bytes{10, 20, 30, 40, 50});
    ibv::MemoryRegionSpec spec{buffer, 1.0};
    auto* mr = co_await w.pd1.register_memory(std::move(spec));
    const ibv::RdmaReadWr read{.wr_id = 9, .remote_rkey = mr->rkey(),
                               .real_offset = 1, .real_len = 3};
    const auto wc = co_await w.qp0.rdma_read(read);
    EXPECT_EQ(wc.wr_id, 9u);
    EXPECT_EQ(wc.opcode, ibv::Opcode::kRdmaRead);
    EXPECT_EQ(wc.status, ibv::WcStatus::kSuccess);
    EXPECT_EQ(*wc.message.payload, (Bytes{20, 30, 40}));
    verified = true;
  }(w, verified));
  w.engine.run();
  EXPECT_TRUE(verified);
}

TEST(VerbsTest, WholeRegionReadSharesBufferPartialReadCopies) {
  VerbsWorld w;
  bool verified = false;
  w.engine.spawn([](VerbsWorld& w, bool& verified) -> Task<> {
    auto buffer = std::make_shared<const Bytes>(Bytes{1, 2, 3, 4, 5, 6});
    ibv::MemoryRegionSpec spec{buffer, 2.0};
    auto* mr = co_await w.pd1.register_memory(std::move(spec));
    const ibv::RdmaReadWr whole{.wr_id = 1, .remote_rkey = mr->rkey(),
                                .real_offset = 0, .real_len = 6};
    const auto all = co_await w.qp0.rdma_read(whole);
    EXPECT_EQ(all.status, ibv::WcStatus::kSuccess);
    EXPECT_EQ(all.message.payload.get(), buffer.get());
    EXPECT_EQ(all.byte_len, 12u);
    // A prefix starts at offset 0 but is still partial.
    const ibv::RdmaReadWr prefix{.wr_id = 2, .remote_rkey = mr->rkey(),
                                 .real_offset = 0, .real_len = 4};
    const auto head = co_await w.qp0.rdma_read(prefix);
    EXPECT_NE(head.message.payload.get(), buffer.get());
    EXPECT_EQ(*head.message.payload, (Bytes{1, 2, 3, 4}));
    const ibv::RdmaReadWr tail{.wr_id = 3, .remote_rkey = mr->rkey(),
                               .real_offset = 4, .real_len = 2};
    const auto end = co_await w.qp0.rdma_read(tail);
    EXPECT_NE(end.message.payload.get(), buffer.get());
    EXPECT_EQ(*end.message.payload, (Bytes{5, 6}));
    EXPECT_EQ(end.byte_len, 4u);
    verified = true;
  }(w, verified));
  w.engine.run();
  EXPECT_TRUE(verified);
}

TEST(VerbsTest, RdmaReadOutOfBoundsFails) {
  VerbsWorld w;
  w.engine.spawn([](VerbsWorld& w) -> Task<> {
    auto buffer = std::make_shared<Bytes>(16);
    ibv::MemoryRegionSpec spec{buffer, 1.0};
    auto* mr = co_await w.pd1.register_memory(std::move(spec));
    const ibv::RdmaReadWr read{.wr_id = 1, .remote_rkey = mr->rkey(),
                               .real_offset = 10, .real_len = 10};
    const auto wc = co_await w.qp0.rdma_read(read);
    EXPECT_EQ(wc.status, ibv::WcStatus::kRemoteAccessError);
  }(w));
  w.engine.run();
}

TEST(VerbsTest, DeregisterInvalidatesRkey) {
  VerbsWorld w;
  w.engine.spawn([](VerbsWorld& w) -> Task<> {
    auto buffer = std::make_shared<Bytes>(8);
    ibv::MemoryRegionSpec spec{buffer, 1.0};
    auto* mr = co_await w.pd1.register_memory(std::move(spec));
    const auto rkey = mr->rkey();
    EXPECT_TRUE(w.pd1.deregister(rkey).ok());
    EXPECT_FALSE(w.pd1.deregister(rkey).ok());
    EXPECT_EQ(w.pd1.find(rkey), nullptr);
  }(w));
  w.engine.run();
}

TEST(VerbsTest, CqPollNonBlocking) {
  VerbsWorld w;
  EXPECT_FALSE(w.scq0.poll().has_value());
  w.engine.spawn([](VerbsWorld& w) -> Task<> {
    EXPECT_TRUE(w.qp1.post_recv({.wr_id = 1}).ok());
    EXPECT_TRUE(
        w.qp0.post_send({.wr_id = 2, .message = Message::control(0, 16)})
            .ok());
    co_return;
  }(w));
  w.engine.run();
  auto wc = w.scq0.poll();
  EXPECT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 2u);
  EXPECT_FALSE(w.scq0.poll().has_value());
}

}  // namespace
}  // namespace hmr::net

namespace hmr::net {
namespace {

TEST(NetworkTest, IncastCollapsesSocketFanIn) {
  // N flows into one 1GigE receiver achieve much less than the nominal
  // link rate; the same fan-in on the credit-based verbs fabric does not.
  auto aggregate_time = [](NetProfile profile, int senders) {
    World w(profile, senders + 1);
    const std::uint64_t bytes = 20'000'000;
    for (int s = 1; s <= senders; ++s) {
      w.engine.spawn([](World& w, int s, std::uint64_t n) -> Task<> {
        co_await w.network->transmit(w.host(s), w.host(0), n);
      }(w, s, bytes));
    }
    return w.engine.run();
  };
  const double one_flow = aggregate_time(NetProfile::one_gige(), 1);
  const double eight_flows = aggregate_time(NetProfile::one_gige(), 8);
  // Perfect sharing would take ~8x one flow's time (8x the bytes over one
  // link); incast pushes it well beyond that.
  EXPECT_GT(eight_flows, 8.0 * one_flow * 1.5);

  const double verbs_one = aggregate_time(NetProfile::verbs_qdr(), 1);
  const double verbs_eight = aggregate_time(NetProfile::verbs_qdr(), 8);
  EXPECT_NEAR(verbs_eight, 8.0 * verbs_one, verbs_one);
}

TEST(VerbsTest, ErroredQpRejectsAllOps) {
  VerbsWorld w;
  w.engine.spawn([](VerbsWorld& w) -> Task<> {
    const ibv::RdmaReadWr bad{.wr_id = 1, .remote_rkey = 424242,
                              .real_len = 1};
    (void)co_await w.qp0.rdma_read(bad);  // RemoteAccessError -> error state
    EXPECT_EQ(w.qp0.state(), ibv::QpState::kError);
    EXPECT_FALSE(w.qp0.post_send({2, Message::control(0, 1)}).ok());
    EXPECT_FALSE(w.qp0.post_recv({4}).ok());
  }(w));
  w.engine.run();
}

TEST(NetworkTest, VerbsTransmitChargesWqeAndLatencyAsOneEvent) {
  // WQE cost plus latency is one event, then one per wire chunk; the
  // arrival time is the closed form.
  World w(NetProfile::verbs_qdr());
  const auto profile = NetProfile::verbs_qdr();
  const std::uint64_t bytes = 1000;
  double done = -1;
  w.engine.spawn([](World& w, std::uint64_t n, double& out) -> Task<> {
    co_await w.network->transmit(w.host(0), w.host(1), n);
    out = w.engine.now();
  }(w, bytes, done));
  w.engine.run();
  EXPECT_EQ(w.engine.events_dispatched(), 3u);  // spawn, latency, wire
  EXPECT_EQ(done, (0.0 + profile.per_msg_cpu) + profile.base_latency +
                      double(bytes) / profile.effective_bw());
}

TEST(VerbsTest, UnsignaledSendMakesNoCqEntry) {
  VerbsWorld w;
  EXPECT_TRUE(w.qp1.post_recv({.wr_id = 5}).ok());
  EXPECT_TRUE(w.qp0.post_send({.wr_id = 6,
                               .message = Message::data(Bytes{4, 2}),
                               .signaled = false})
                  .ok());
  w.engine.run();
  EXPECT_FALSE(w.scq0.poll().has_value());
  auto rx = w.rcq1.poll();
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(rx->wr_id, 5u);
  EXPECT_EQ(*rx->message.payload, (Bytes{4, 2}));
}

TEST(VerbsTest, AwaitedSendReturnsCompletionWithoutCqEntry) {
  VerbsWorld w;
  w.engine.spawn([](VerbsWorld& w) -> Task<> {
    EXPECT_TRUE(w.qp1.post_recv({.wr_id = 8}).ok());
    ibv::SendWr wr{.wr_id = 9, .message = Message::control(0, 100)};
    const auto tx = co_await w.qp0.send(std::move(wr));
    EXPECT_EQ(tx.wr_id, 9u);
    EXPECT_EQ(tx.opcode, ibv::Opcode::kSend);
    EXPECT_EQ(tx.status, ibv::WcStatus::kSuccess);
    EXPECT_EQ(tx.byte_len, 100u);
    // The peer's receive landed before the send completed.
    EXPECT_EQ(w.rcq1.depth(), 1u);
  }(w));
  w.engine.run();
  EXPECT_FALSE(w.scq0.poll().has_value());
}

TEST(VerbsTest, AwaitedRdmaReadBadRkeyErrorsQp) {
  VerbsWorld w;
  bool checked = false;
  w.engine.spawn([](VerbsWorld& w, bool& checked) -> Task<> {
    const ibv::RdmaReadWr bad{.wr_id = 1, .remote_rkey = 9999,
                              .real_offset = 0, .real_len = 4};
    const auto wc = co_await w.qp0.rdma_read(bad);
    EXPECT_EQ(wc.wr_id, 1u);
    EXPECT_EQ(wc.status, ibv::WcStatus::kRemoteAccessError);
    EXPECT_EQ(w.qp0.state(), ibv::QpState::kError);
    // Later ops are rejected: posted forms fail fast, awaited forms are
    // flushed without touching the wire.
    EXPECT_FALSE(w.qp0.post_send({2, Message::control(0, 1)}).ok());
    ibv::SendWr send{.wr_id = 3, .message = Message::control(0, 1)};
    const auto flushed = co_await w.qp0.send(std::move(send));
    EXPECT_EQ(flushed.status, ibv::WcStatus::kWrFlushError);
    const auto reflushed = co_await w.qp0.rdma_read(bad);
    EXPECT_EQ(reflushed.status, ibv::WcStatus::kWrFlushError);
    checked = true;
  }(w, checked));
  w.engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(w.engine.metrics().counter_value("net.messages"), 0);
  EXPECT_FALSE(w.scq0.poll().has_value());  // awaited: no CQ entries
}

}  // namespace
}  // namespace hmr::net
