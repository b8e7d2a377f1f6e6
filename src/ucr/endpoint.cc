#include "ucr/endpoint.h"

#include <algorithm>

#include "common/bytes.h"

namespace hmr::ucr {
namespace {

// UCR wire kinds, packed into the top byte of Message::tag. Application
// tags are therefore limited to 56 bits (plenty for protocol enums).
enum Kind : std::uint64_t {
  kEager = 1,
  kRts = 2,
  kFin = 3,  // receiver -> sender: the RDMA READ is done
  kClose = 4,
};

constexpr std::uint64_t kAppTagMask = (1ull << 56) - 1;

std::uint64_t pack_tag(Kind kind, std::uint64_t value) {
  HMR_CHECK_MSG((value & ~kAppTagMask) == 0, "app tag exceeds 56 bits");
  return (std::uint64_t(kind) << 56) | value;
}
Kind tag_kind(std::uint64_t tag) { return Kind(tag >> 56); }
std::uint64_t tag_value(std::uint64_t tag) { return tag & kAppTagMask; }

constexpr std::uint64_t kRtsWireBytes = 64;
constexpr std::uint64_t kFinWireBytes = 16;
constexpr std::uint64_t kCloseWireBytes = 16;

struct RtsHeader {
  std::uint64_t seq = 0;
  std::uint64_t app_tag = 0;
  std::uint32_t rkey = 0;      // sender's pinned buffer
  std::uint64_t real_len = 0;  // payload bytes; 0 for a null or empty one
  std::uint64_t modeled_len = 0;
  bool has_payload = true;

  static constexpr size_t kEncodedBytes = 4 * 8 + 4 + 1;

  Bytes encode() const {
    ByteWriter w;
    w.reserve(kEncodedBytes);
    w.put_u64(seq);
    w.put_u64(app_tag);
    w.put_u32(rkey);
    w.put_u64(real_len);
    w.put_u64(modeled_len);
    w.put_u8(has_payload ? 1 : 0);
    return w.take();
  }
  // An RTS without a payload, or with a truncated header, is malformed:
  // the caller drops the frame.
  static Result<RtsHeader> decode(const Message& ctrl) {
    if (ctrl.payload == nullptr) {
      return Status::InvalidArgument("RTS without a header");
    }
    ByteReader r(*ctrl.payload);
    const auto seq = r.u64();
    const auto app_tag = r.u64();
    const auto rkey = r.u32();
    const auto real_len = r.u64();
    const auto modeled_len = r.u64();
    const auto has_payload = r.u8();
    if (!(seq.ok() && app_tag.ok() && rkey.ok() && real_len.ok() &&
          modeled_len.ok() && has_payload.ok())) {
      return Status::OutOfRange("truncated RTS header");
    }
    RtsHeader h;
    h.seq = seq.value();
    h.app_tag = app_tag.value();
    h.rkey = rkey.value();
    h.real_len = real_len.value();
    h.modeled_len = modeled_len.value();
    h.has_payload = has_payload.value() != 0;
    return h;
  }
};

}  // namespace

Endpoint::Endpoint(Network& network, Host& host)
    : network_(network),
      pd_(network.engine(), host),
      send_cq_(network.engine()),
      recv_cq_(network.engine()),
      qp_(std::make_unique<ibv::QueuePair>(network, pd_, send_cq_, recv_cq_)),
      send_window_(network.engine(), kSendWindow, "ucr.window"),
      send_order_(network.engine(), 1, "ucr.order"),
      inbox_(network.engine(), 1024) {}

Endpoint::~Endpoint() {
  send_cq_.shutdown();
  recv_cq_.shutdown();
}

void Endpoint::establish(Endpoint& a, Endpoint& b) {
  HMR_CHECK(ibv::QueuePair::connect(*a.qp_, *b.qp_).ok());
  a.start_daemons();
  b.start_daemons();
}

void Endpoint::start_daemons() {
  // Pre-post receive credits: enough for the peer's full send window plus
  // control traffic.
  for (std::int64_t i = 0; i < kSendWindow * 2 + 4; ++i) {
    HMR_CHECK(qp_->post_recv({next_recv_wr_++}).ok());
  }
  network_.engine().spawn(recv_loop());
}

void Endpoint::post_control(Message ctrl) {
  ibv::SendWr wr{.message = std::move(ctrl), .signaled = false};
  HMR_CHECK(qp_->post_send(std::move(wr)).ok());
}

sim::Task<> Endpoint::recv_loop() {
  while (auto wc = co_await recv_cq_.wait_opt()) {
    if (qp_->state() == ibv::QpState::kRts) {
      HMR_CHECK(qp_->post_recv({next_recv_wr_++}).ok());  // replenish credit
    }
    const Kind kind = tag_kind(wc->message.tag);
    switch (kind) {
      case kEager: {
        Message app = std::move(wc->message);
        app.tag = tag_value(app.tag);
        // Receive-side bounce-buffer copy-out.
        co_await network_.engine().delay(double(app.modeled_bytes) /
                                         kCopyBw);
        co_await inbox_.send(std::move(app));
        break;
      }
      case kRts:
        co_await handle_rts(wc->message);
        break;
      case kFin: {
        auto it = awaiting_fin_.find(tag_value(wc->message.tag));
        if (it == awaiting_fin_.end()) {
          // No send of ours waits on this rendezvous: a corrupt or
          // duplicated FIN. Drop it.
          count_malformed_ctrl();
          break;
        }
        it->second->done.set();
        awaiting_fin_.erase(it);
        break;
      }
      case kClose:
        // The peer has closed. This loop exits, so any FIN still in
        // flight toward us lands in a dead CQ — flush the senders parked
        // on them now, and refuse rendezvous from here on (send()
        // checks peer_closed_). A FIN the peer posted before its CLOSE
        // is ordered ahead of it on the RC wire, so it was already
        // handled above; only genuinely unanswerable waits remain.
        peer_closed_ = true;
        inbox_.close();
        flush_pending_sends();
        co_return;
    }
  }
}

void Endpoint::flush_pending_sends() {
  for (auto& [seq, fin] : awaiting_fin_) {
    fin->aborted = true;
    fin->done.set();
  }
  awaiting_fin_.clear();
}

void Endpoint::count_malformed_ctrl() {
  // Registered on first use: a run that never sees a malformed frame
  // reports no such counter.
  network_.engine().metrics().counter("ucr.malformed_ctrl").add();
}

sim::Task<> Endpoint::handle_rts(const Message& ctrl) {
  const auto decoded = RtsHeader::decode(ctrl);
  if (!decoded.ok()) {
    // Nothing names a region to read: drop the frame. Its sender, if
    // any, never sees a FIN, as when the frame is lost.
    count_malformed_ctrl();
    co_return;
  }
  const RtsHeader header = *decoded;

  // send() pins a payload without bytes as a one-byte stand-in; reading
  // that byte carries the modeled size. Named local: GCC 12 miscompiles
  // aggregates built inside a co_await operand (hmr-lint rule
  // coawait-aggregate).
  const ibv::RdmaReadWr read{
      .remote_rkey = header.rkey,
      .real_offset = 0,
      .real_len = std::max<std::uint64_t>(header.real_len, 1)};
  auto wc = co_await qp_->rdma_read(read);
  HMR_CHECK_MSG(wc.status == ibv::WcStatus::kSuccess,
                "rendezvous RDMA read failed");

  Message app;
  app.tag = header.app_tag;
  app.modeled_bytes = header.modeled_len;
  if (header.has_payload) {
    app.payload = header.real_len > 0 ? std::move(wc.message.payload)
                                      : std::make_shared<const Bytes>();
  }
  co_await inbox_.send(std::move(app));
  post_control(Message::control(pack_tag(kFin, header.seq), kFinWireBytes));
}

sim::Task<> Endpoint::send(Message msg) {
  HMR_CHECK_MSG(!closed_, "send on closed UCR endpoint");
  auto order = co_await sim::hold(send_order_);
  auto window = co_await sim::hold(send_window_);
  if (closed_ || peer_closed_) {
    // The connection tore down while this send was parked behind the
    // order/window resources. Nobody is left to read the payload; drop
    // it, like a WR flushed from an error-state QP.
    co_return;
  }

  if (msg.modeled_bytes <= kEagerThreshold) {
    ++eager_sends_;
    // Copy into a pre-registered bounce buffer.
    co_await network_.engine().delay(double(msg.modeled_bytes) /
                                     kCopyBw);
    msg.tag = pack_tag(kEager, msg.tag);
    ibv::SendWr wire{.message = std::move(msg)};
    (void)co_await qp_->send(std::move(wire));
    co_return;
  }

  // Rendezvous: pin the payload in place, advertise it in an RTS, and
  // wait for the peer to RDMA-read it and FIN. A null or empty payload
  // pins a one-byte stand-in instead, so the region still has a real
  // length to scale the modeled size from.
  ++rendezvous_sends_;
  RtsHeader header;
  header.seq = next_rzv_seq_++;
  header.app_tag = msg.tag;
  header.real_len = msg.real_size();
  header.modeled_len = msg.modeled_bytes;
  header.has_payload = msg.payload != nullptr;
  auto buffer = header.real_len > 0 ? std::move(msg.payload)
                                    : std::make_shared<const Bytes>(1);
  const double scale = double(msg.modeled_bytes) / double(buffer->size());
  // Named local: GCC 12 miscompiles aggregate construction inside
  // co_await operands (see net/socket.cc connect()).
  ibv::MemoryRegionSpec mr_spec{std::move(buffer), scale};
  auto* mr = co_await pd_.register_memory(std::move(mr_spec));
  header.rkey = mr->rkey();

  auto fin = std::make_shared<PendingFin>(network_.engine());
  awaiting_fin_.emplace(header.seq, fin);

  ibv::SendWr rts{.message = Message::share(
                      std::make_shared<const Bytes>(header.encode()),
                      kRtsWireBytes, pack_tag(kRts, 0))};
  (void)co_await qp_->send(std::move(rts));
  if (peer_closed_ && !fin->aborted) {
    // The peer's CLOSE raced ahead of this RTS (flush_pending_sends ran
    // before the FIN was registered); flush this transfer by hand.
    fin->aborted = true;
    fin->done.set();
    awaiting_fin_.erase(header.seq);
  }
  co_await fin->done.wait();
  // An aborted transfer skips deregistration: the peer may still be
  // mid-RDMA-read (it answers with a FIN we will never see), and
  // yanking the region under the read would fault it. The MR is
  // reclaimed with the endpoint.
  if (!fin->aborted) {
    HMR_CHECK(pd_.deregister(mr->rkey()).ok());
  }
}

sim::Task<std::optional<Message>> Endpoint::recv() {
  co_return co_await inbox_.recv();
}

void Endpoint::close() {
  if (closed_) return;
  closed_ = true;
  if (qp_->state() == ibv::QpState::kRts) {
    post_control(Message::control(pack_tag(kClose, 0), kCloseWireBytes));
  }
}

Listener::Listener(Network& network, Host& host)
    : network_(network), host_(host), pending_(network.engine(), 128) {}

sim::Task<std::unique_ptr<Endpoint>> Listener::accept() {
  auto conn = co_await pending_.recv();
  if (!conn) co_return nullptr;
  auto server = std::unique_ptr<Endpoint>(
      new Endpoint(network_, host_));
  Endpoint::establish(*conn->client, *server);
  co_await network_.engine().delay(kSetupTime);
  co_await network_.transmit(host_, conn->client->local_host(), 0);
  conn->established->set();
  co_return server;
}

sim::Task<std::unique_ptr<Endpoint>> connect(Network& network, Host& from,
                                             Listener& listener) {
  auto client = std::unique_ptr<Endpoint>(new Endpoint(network, from));
  sim::Event established(network.engine());
  co_await network.transmit(from, listener.host(), 0);  // connection request
  Listener::PendingConn pending_conn{client.get(), &established};
  co_await listener.pending_.send(pending_conn);
  co_await established.wait();
  co_await network.engine().delay(kSetupTime);
  co_return client;
}

}  // namespace hmr::ucr
