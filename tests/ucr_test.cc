#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <numeric>
#include <vector>

#include "net/cluster.h"
#include "ucr/endpoint.h"

namespace hmr::ucr {

// Posts raw control frames from an endpoint, as a faulty peer could.
// The wire kind sits in the tag's top byte (endpoint.cc): 2 is an RTS,
// 3 a FIN whose low bits name the rendezvous.
struct EndpointTestPeer {
  static constexpr std::uint64_t kRtsTag = std::uint64_t{2} << 56;
  static constexpr std::uint64_t kFinTag = std::uint64_t{3} << 56;
  static void post(Endpoint& from, Message frame) {
    from.post_control(std::move(frame));
  }
};

namespace {

using net::Cluster;
using net::NetProfile;
using sim::Engine;
using sim::Task;

struct UcrWorld {
  Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Network> network;
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Endpoint> client;
  std::unique_ptr<Endpoint> server;

  UcrWorld() {
    const auto profile = NetProfile::verbs_qdr();
    cluster =
        std::make_unique<Cluster>(engine, profile, Cluster::uniform(2, 1));
    network = std::make_unique<Network>(engine, profile);
    listener = std::make_unique<Listener>(*network, cluster->host(1));
    engine.spawn([](UcrWorld& w) -> Task<> {
      w.server = co_await w.listener->accept();
    }(*this));
    engine.spawn([](UcrWorld& w) -> Task<> {
      w.client = co_await connect(*w.network, w.cluster->host(0), *w.listener);
    }(*this));
    engine.run();
    HMR_CHECK(client && server);
  }

  void teardown() {
    client->close();
    server->close();
    engine.run();
  }
};

TEST(UcrTest, ConnectEstablishesEndpointPair) {
  UcrWorld w;
  EXPECT_EQ(&w.client->local_host(), &w.cluster->host(0));
  EXPECT_EQ(&w.client->remote_host(), &w.cluster->host(1));
  EXPECT_EQ(&w.server->local_host(), &w.cluster->host(1));
  w.teardown();
}

TEST(UcrTest, EagerSmallMessageRoundTrip) {
  UcrWorld w;
  std::string got;
  w.engine.spawn([](UcrWorld& w, std::string& got) -> Task<> {
    Bytes payload = {'p', 'i', 'n', 'g'};
    co_await w.client->send(Message::data(std::move(payload), 1.0, 42));
    auto reply = co_await w.server->recv();
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(reply->tag, 42u);
    got.assign(reply->payload->begin(), reply->payload->end());
  }(w, got));
  w.engine.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(w.client->eager_sends(), 1u);
  EXPECT_EQ(w.client->rendezvous_sends(), 0u);
  w.teardown();
}

TEST(UcrTest, LargeMessageUsesRendezvous) {
  UcrWorld w;
  bool ok = false;
  w.engine.spawn([](UcrWorld& w, bool& ok) -> Task<> {
    Bytes big(200 * 1024, 0xcd);
    co_await w.client->send(Message::data(std::move(big), 1.0, 7));
    auto msg = co_await w.server->recv();
    EXPECT_TRUE(msg.has_value());
    EXPECT_EQ(msg->tag, 7u);
    EXPECT_EQ(msg->real_size(), 200u * 1024u);
    EXPECT_EQ((*msg->payload)[1000], 0xcd);
    ok = true;
  }(w, ok));
  w.engine.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.client->rendezvous_sends(), 1u);
  w.teardown();
}

struct Delivery {
  std::optional<Message> msg;  // nullopt: nothing arrived within 1 s
  double elapsed = -1;         // from send() to the server's recv()
};

// Sends one 1 MB modeled rendezvous message carrying `payload` over a
// fresh endpoint pair, so deliveries are comparable to the nanosecond.
Delivery deliver(std::shared_ptr<const Bytes> payload) {
  UcrWorld w;
  Delivery out;
  w.engine.spawn([](UcrWorld& w, std::shared_ptr<const Bytes> payload,
                    Delivery& out) -> Task<> {
    const double start = w.engine.now();
    co_await w.client->send(
        Message::share(std::move(payload), 1'000'000, 5));
    auto msg = co_await w.server->recv();
    out.elapsed = w.engine.now() - start;
    out.msg = std::move(msg);
  }(w, std::move(payload), out));
  w.engine.run_until(1.0);
  w.teardown();
  return out;
}

TEST(UcrTest, ModeledOnlyMessageKeepsNullPayload) {
  // A rendezvous message without real bytes arrives with the kind of
  // payload it was sent with, null or empty, and both take the same time.
  const Delivery null_payload = deliver(nullptr);
  ASSERT_TRUE(null_payload.msg.has_value());
  EXPECT_EQ(null_payload.msg->payload, nullptr);
  EXPECT_EQ(null_payload.msg->modeled_bytes, 1'000'000u);
  EXPECT_EQ(null_payload.msg->tag, 5u);

  const Delivery empty_payload = deliver(std::make_shared<const Bytes>());
  ASSERT_TRUE(empty_payload.msg.has_value());
  ASSERT_NE(empty_payload.msg->payload, nullptr);
  EXPECT_TRUE(empty_payload.msg->payload->empty());
  EXPECT_EQ(empty_payload.msg->modeled_bytes, 1'000'000u);
  EXPECT_EQ(empty_payload.msg->tag, 5u);
  EXPECT_EQ(empty_payload.elapsed, null_payload.elapsed);
}

TEST(UcrTest, MixedSizesStayInOrder) {
  UcrWorld w;
  std::vector<std::uint64_t> tags;
  w.engine.spawn([](UcrWorld& w) -> Task<> {
    for (std::uint64_t i = 0; i < 12; ++i) {
      // Alternate eager and rendezvous.
      const std::uint64_t modeled = (i % 2 == 0) ? 512 : 256 * 1024;
      Message outgoing{nullptr, modeled, i};
      co_await w.client->send(std::move(outgoing));
    }
    w.client->close();
  }(w));
  w.engine.spawn([](UcrWorld& w, std::vector<std::uint64_t>& tags) -> Task<> {
    while (auto msg = co_await w.server->recv()) tags.push_back(msg->tag);
  }(w, tags));
  w.engine.run();
  EXPECT_EQ(tags.size(), 12u);
  EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));
  w.server->close();
  w.engine.run();
}

TEST(UcrTest, BidirectionalTraffic) {
  UcrWorld w;
  int exchanges = 0;
  w.engine.spawn([](UcrWorld& w, int& exchanges) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      Message outgoing{nullptr, 100, 1};
      co_await w.client->send(std::move(outgoing));
      auto reply = co_await w.client->recv();
      EXPECT_TRUE(reply.has_value() && reply->tag == 2);
      ++exchanges;
    }
  }(w, exchanges));
  w.engine.spawn([](UcrWorld& w) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      auto req = co_await w.server->recv();
      EXPECT_TRUE(req.has_value() && req->tag == 1);
      Message outgoing{nullptr, 100, 2};
      co_await w.server->send(std::move(outgoing));
    }
  }(w));
  w.engine.run();
  EXPECT_EQ(exchanges, 5);
  w.teardown();
}

TEST(UcrTest, CloseDeliversNulloptToPeer) {
  UcrWorld w;
  bool saw_nullopt = false;
  w.engine.spawn([](UcrWorld& w, bool& saw) -> Task<> {
    w.client->close();
    auto msg = co_await w.server->recv();
    saw = !msg.has_value();
  }(w, saw_nullopt));
  w.engine.run();
  EXPECT_TRUE(saw_nullopt);
  w.server->close();
  w.engine.run();
}

TEST(UcrTest, MalformedControlFramesAreDroppedAndCounted) {
  // A truncated RTS header, an RTS without one and a FIN naming no
  // rendezvous in flight: each is dropped and counted, and the endpoint
  // keeps serving eager and rendezvous traffic.
  UcrWorld w;
  EndpointTestPeer::post(
      *w.client,
      Message::share(std::make_shared<const Bytes>(Bytes{1, 2, 3}), 64,
                     EndpointTestPeer::kRtsTag));
  EndpointTestPeer::post(*w.client,
                         Message::control(EndpointTestPeer::kRtsTag, 64));
  EndpointTestPeer::post(*w.client,
                         Message::control(EndpointTestPeer::kFinTag | 999, 16));
  w.engine.run();
  EXPECT_EQ(w.engine.metrics().counter("ucr.malformed_ctrl").value(), 3);

  std::vector<std::uint64_t> sizes;
  w.engine.spawn([](UcrWorld& w, std::vector<std::uint64_t>& sizes) -> Task<> {
    co_await w.client->send(Message::data(Bytes(100, 0xab), 1.0, 1));
    co_await w.client->send(Message::data(Bytes(200 * 1024, 0xcd), 1.0, 2));
    for (int i = 0; i < 2; ++i) {
      auto msg = co_await w.server->recv();
      if (msg.has_value()) sizes.push_back(msg->real_size());
    }
  }(w, sizes));
  w.engine.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{100, 200 * 1024}));
  EXPECT_EQ(w.client->rendezvous_sends(), 1u);
  EXPECT_EQ(w.engine.metrics().counter("ucr.malformed_ctrl").value(), 3);
  w.teardown();
}

TEST(UcrTest, RendezvousIsFasterThanEagerForBulk) {
  // The same 16 MB modeled total sent as one rendezvous message and as a
  // stream of 8 KiB eager messages: one zero-copy RDMA READ must beat the
  // per-message copies and hops.
  const std::uint64_t total = 16 * 1024 * 1024;
  double rzv_time, eager_time;
  {
    UcrWorld w;
    w.engine.spawn([](UcrWorld& w, std::uint64_t total) -> Task<> {
      Message outgoing{nullptr, total, 0};
      co_await w.client->send(std::move(outgoing));
      (void)co_await w.server->recv();
    }(w, total));
    const double t0 = w.engine.now();
    w.engine.run();
    rzv_time = w.engine.now() - t0;
    w.teardown();
  }
  {
    UcrWorld w;
    const std::uint64_t kChunk = 8 * 1024;
    // Producer and consumer must run concurrently: the endpoint's inbox
    // and credits are bounded, so a send-everything-then-receive pattern
    // would (correctly) stall.
    w.engine.spawn([](UcrWorld& w, std::uint64_t total,
                      std::uint64_t kChunk) -> Task<> {
      for (std::uint64_t sent = 0; sent < total; sent += kChunk) {
        Message outgoing{nullptr, kChunk, 0};
        co_await w.client->send(std::move(outgoing));
      }
    }(w, total, kChunk));
    w.engine.spawn([](UcrWorld& w, std::uint64_t total,
                      std::uint64_t kChunk) -> Task<> {
      for (std::uint64_t sent = 0; sent < total; sent += kChunk) {
        (void)co_await w.server->recv();
      }
    }(w, total, kChunk));
    const double t0 = w.engine.now();
    w.engine.run();
    eager_time = w.engine.now() - t0;
    w.teardown();
  }
  EXPECT_LT(rzv_time, eager_time);
}

TEST(UcrTest, ListenerCloseUnblocksAccept) {
  Engine engine;
  const auto profile = NetProfile::verbs_qdr();
  Cluster cluster(engine, profile, Cluster::uniform(2, 1));
  Network network(engine, profile);
  Listener listener(network, cluster.host(1));
  bool got_null = false;
  engine.spawn([](Listener& l, bool& out) -> Task<> {
    auto ep = co_await l.accept();
    out = ep == nullptr;
  }(listener, got_null));
  engine.spawn([](Engine& e, Listener& l) -> Task<> {
    co_await e.delay(0.5);
    l.close();
  }(engine, listener));
  engine.run();
  EXPECT_TRUE(got_null);
}

// Property sweep: payload integrity across sizes spanning the
// eager/rendezvous boundary.
class UcrSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(UcrSizeSweep, PayloadIntegrity) {
  const size_t size = GetParam();
  UcrWorld w;
  bool ok = false;
  w.engine.spawn([](UcrWorld& w, size_t size, bool& ok) -> Task<> {
    Bytes payload(size);
    std::iota(payload.begin(), payload.end(), std::uint8_t(0));
    Bytes expected = payload;
    co_await w.client->send(Message::data(std::move(payload), 1.0, 1));
    auto msg = co_await w.server->recv();
    EXPECT_TRUE(msg.has_value());
    ok = msg.has_value() && *msg->payload == expected;
  }(w, size, ok));
  w.engine.run();
  EXPECT_TRUE(ok);
  w.teardown();
}

INSTANTIATE_TEST_SUITE_P(Sizes, UcrSizeSweep,
                         ::testing::Values(1, 100, 16 * 1024 - 1, 16 * 1024,
                                           16 * 1024 + 1, 128 * 1024,
                                           1024 * 1024));

// --------------------------------------------- event budget and timing

struct OneMessage {
  std::uint64_t events = 0;  // dispatched, excluding the sender's spawn
  double sent_at = -1;
  double received_at = -1;
};

// Carries one modeled-only message from the client's send() to a server
// recv() that is already parked, the steady state of a shuffle stream.
OneMessage send_one(UcrWorld& w, std::uint64_t modeled) {
  OneMessage out;
  w.engine.spawn([](UcrWorld& w, OneMessage& out) -> Task<> {
    auto msg = co_await w.server->recv();
    EXPECT_TRUE(msg.has_value());
    out.received_at = w.engine.now();
  }(w, out));
  w.engine.run();
  const std::uint64_t before = w.engine.events_dispatched();
  w.engine.spawn([](UcrWorld& w, OneMessage& out,
                    std::uint64_t modeled) -> Task<> {
    out.sent_at = w.engine.now();
    Message msg{nullptr, modeled, 3};
    co_await w.client->send(std::move(msg));
  }(w, out, modeled));
  w.engine.run();
  out.events = w.engine.events_dispatched() - before - 1;
  return out;
}

TEST(UcrBudgetTest, EagerMessageTakesSixEvents) {
  // Copy-in, WQE + latency, wire, receive-CQ wakeup, copy-out, inbox
  // wakeup; the send completion returns to the sender without an event.
  UcrWorld w;
  EXPECT_EQ(send_one(w, 64).events, 6u);
  w.teardown();
}

TEST(UcrBudgetTest, RendezvousMessageTakesTwelveEvents) {
  // Registration, RTS (WQE + latency, wire, receive-CQ wakeup), RDMA READ
  // (WQE + latency, wire), inbox wakeup, FIN (post, WQE + latency, wire,
  // receive-CQ wakeup), and the sender's wakeup on the FIN.
  UcrWorld w;
  EXPECT_EQ(send_one(w, 256 * 1024).events, 12u);
  w.teardown();
}

TEST(UcrBudgetTest, EagerTimingMatchesClosedForm) {
  UcrWorld w;
  const auto profile = NetProfile::verbs_qdr();
  const std::uint64_t bytes = 4096;
  const OneMessage one = send_one(w, bytes);
  const double copy = double(bytes) / kCopyBw;
  const double expected = copy + profile.per_msg_cpu + profile.base_latency +
                          double(bytes) / profile.effective_bw() + copy;
  EXPECT_NEAR(one.received_at - one.sent_at, expected, 1e-12);
  w.teardown();
}

TEST(UcrBudgetTest, RendezvousTimingMatchesClosedForm) {
  // Delivery waits for registration, the RTS and the RDMA READ; the FIN
  // back to the sender is off the receiver's path.
  UcrWorld w;
  const auto profile = NetProfile::verbs_qdr();
  const ibv::RegistrationCost reg;
  const std::uint64_t bytes = 256 * 1024;
  const std::uint64_t rts_bytes = 64;
  const OneMessage one = send_one(w, bytes);
  const double hop = profile.per_msg_cpu + profile.base_latency;
  const double expected =
      reg.base + reg.per_mib * (double(bytes) / (1024.0 * 1024.0)) +
      hop + double(rts_bytes) / profile.effective_bw() +
      hop + double(bytes) / profile.effective_bw();
  EXPECT_NEAR(one.received_at - one.sent_at, expected, 1e-12);
  w.teardown();
}

}  // namespace
}  // namespace hmr::ucr
