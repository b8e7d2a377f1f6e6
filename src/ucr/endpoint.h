// UCR-lite: the Unified Communication Runtime the paper layers its
// shuffle on (§II-D). Gives Java-socket-like *endpoints* over the verbs
// layer:
//
//  * eager protocol for small messages (bounce-buffer copy + SEND/RECV),
//  * rendezvous for large ones (sender registers the payload in place
//    and sends RTS; receiver RDMA-reads it zero-copy, then FINs),
//  * credit-based flow control (bounded outstanding sends),
//  * in-order delivery per endpoint,
//  * connection establishment through a Listener (RDMA-CM equivalent).
//
// The TaskTracker-side RDMAListener and the ReduceTask-side RDMACopier
// in src/rdmashuffle are written directly against this API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "net/ibfab.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/channel.h"
#include "sim/sync.h"

namespace hmr::ucr {

using net::Host;
using net::Message;
using net::Network;

// Messages up to this many modeled bytes go eager; larger ones use
// rendezvous.
inline constexpr std::uint64_t kEagerThreshold = 16 * 1024;
inline constexpr std::int64_t kSendWindow = 16;  // outstanding sends
inline constexpr double kCopyBw = 6.0e9;  // bounce-buffer memcpy bytes/sec
inline constexpr double kSetupTime = 120e-6;  // QP setup on connect, sec

class Listener;

class Endpoint {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // Completes when the message is delivered to the peer's reorder buffer
  // (eager) or fully RDMA-read by the peer (rendezvous).
  sim::Task<> send(Message msg);
  // Next application message, or nullopt after the peer closed.
  sim::Task<std::optional<Message>> recv();
  // Sends a CLOSE control message; idempotent.
  void close();
  // True once close() ran (locally or via the symmetric close on peer
  // disconnect). Senders with delayed work — e.g. a fault-stalled
  // responder — must check before send().
  bool closed() const { return closed_; }

  Host& local_host() { return qp_->local_host(); }
  Host& remote_host() { return qp_->remote_host(); }
  std::uint64_t eager_sends() const { return eager_sends_; }
  std::uint64_t rendezvous_sends() const { return rendezvous_sends_; }

 private:
  friend class Listener;
  friend struct EndpointTestPeer;  // tests post raw control frames
  friend sim::Task<std::unique_ptr<Endpoint>> connect(Network& network,
                                                      Host& from,
                                                      Listener& listener);

  Endpoint(Network& network, Host& host);
  // Wires two endpoints' QPs together and starts their receive daemons.
  static void establish(Endpoint& a, Endpoint& b);
  void start_daemons();

  // Fire-and-forget control message (FIN, CLOSE), posted unsignaled:
  // nothing waits on its completion.
  void post_control(Message ctrl);
  sim::Task<> recv_loop();
  // Reads an RTS's region and delivers it. A frame without a whole
  // header is dropped and counted.
  sim::Task<> handle_rts(const Message& ctrl);
  // Counts a control frame dropped as malformed (ucr.malformed_ctrl): a
  // truncated RTS or a FIN naming no rendezvous in flight.
  void count_malformed_ctrl();
  // Connection teardown: completes every send parked on a rendezvous
  // FIN that the departed peer will never deliver (the verbs analogue
  // of an error-state QP flushing its outstanding WRs).
  void flush_pending_sends();

  Network& network_;
  ibv::ProtectionDomain pd_;
  // Data WRs are awaited and control WRs unsignaled, so only a failed
  // control WR would ever land in send_cq_; nothing polls it.
  ibv::CompletionQueue send_cq_;
  ibv::CompletionQueue recv_cq_;
  std::unique_ptr<ibv::QueuePair> qp_;
  sim::Resource send_window_;
  sim::Resource send_order_;  // app-level FIFO across eager/rendezvous
  sim::Channel<Message> inbox_;
  std::uint64_t next_recv_wr_ = 1;

  struct PendingFin {
    explicit PendingFin(sim::Engine& engine) : done(engine) {}
    sim::Event done;
    // Set when the transfer was flushed by connection teardown rather
    // than completed by the peer's FIN; the payload never moved.
    bool aborted = false;
  };
  std::map<std::uint64_t, std::shared_ptr<PendingFin>> awaiting_fin_;
  std::uint64_t next_rzv_seq_ = 1;
  bool closed_ = false;
  // The peer's CLOSE arrived: its recv loop is gone, so no RTS posted
  // from here on will ever be answered. Sends turn into no-ops.
  bool peer_closed_ = false;
  std::uint64_t eager_sends_ = 0;
  std::uint64_t rendezvous_sends_ = 0;
};

class Listener {
 public:
  Listener(Network& network, Host& host);

  sim::Task<std::unique_ptr<Endpoint>> accept();
  void close() { pending_.close(); }
  Host& host() { return host_; }

 private:
  friend sim::Task<std::unique_ptr<Endpoint>> connect(Network& network,
                                                      Host& from,
                                                      Listener& listener);
  struct PendingConn {
    Endpoint* client;
    sim::Event* established;
  };
  Network& network_;
  Host& host_;
  sim::Channel<PendingConn> pending_;
};

// Client-side connect: one control RTT plus QP setup on both ends.
sim::Task<std::unique_ptr<Endpoint>> connect(Network& network, Host& from,
                                             Listener& listener);

}  // namespace hmr::ucr
