// Simulated InfiniBand verbs layer (§II-B of the paper).
//
// Models the RC transport at the level the software above cares about:
// protection domains, memory registration (pinning cost, rkey/lkey),
// queue pairs with a state machine (RESET→INIT→RTR→RTS), posted
// send/recv work requests, the one-sided RDMA READ, and completion
// queues. Data moves over the Network model with the verbs profile (OS
// bypass: no CPU cores consumed).
//
// A SEND has two forms. The posted form (post_send) runs the WR in its
// own task and reports it on the send CQ; one posted with
// `signaled = false` makes no CQ entry unless it fails, as
// IBV_SEND_SIGNALED behaves on hardware. The awaited form (send) runs
// the WR in the caller's task and returns its completion directly, for
// callers that would otherwise block on the CQ for that one entry. RDMA
// READ has only the awaited form.
//
// Deliberate simplifications, documented per DESIGN.md §2: no SRQ, no
// RDMA WRITE, no atomics, RNR handled by parking the sender until a recv
// is posted (infinite rnr_retry), connection setup is an out-of-band
// exchange like RDMA-CM would provide.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "net/cluster.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/channel.h"
#include "sim/fifo.h"
#include "sim/sync.h"

namespace hmr::ibv {

using net::Host;
using net::Message;
using net::Network;

enum class Opcode { kSend, kRecv, kRdmaRead };
// kWrFlushError: the WR reached a QP that is not in RTS (e.g. one an
// earlier WR moved to the error state) and was flushed unexecuted.
enum class WcStatus { kSuccess, kWrFlushError, kRemoteAccessError };

struct Completion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  std::uint64_t byte_len = 0;  // modeled bytes
  Message message;             // inbound payload for kRecv / kRdmaRead
};

class CompletionQueue {
 public:
  CompletionQueue(sim::Engine& engine, size_t capacity = 4096)
      : entries_(engine, capacity) {}

  // Blocks until a completion is available (ibv_get_cq_event-style).
  sim::Task<Completion> wait();
  // Like wait(), but returns nullopt after shutdown() — for daemon loops.
  sim::Task<std::optional<Completion>> wait_opt();
  // Non-blocking poll (ibv_poll_cq-style).
  std::optional<Completion> poll();
  // Tears the CQ down: parked waiters drain then observe nullopt.
  void shutdown() { entries_.close(); }
  size_t depth() const { return entries_.size(); }

 private:
  friend class QueuePair;
  // Completions arriving after shutdown() are dropped.
  sim::Task<> push(Completion completion);
  sim::Channel<Completion> entries_;
};

struct MemoryRegionSpec {
  std::shared_ptr<const Bytes> buffer;
  double scale = 1.0;  // modeled bytes = buffer->size() * scale
};

class MemoryRegion {
 public:
  std::uint32_t rkey() const { return rkey_; }
  std::uint64_t real_size() const { return spec_.buffer->size(); }
  std::uint64_t modeled_size() const {
    return static_cast<std::uint64_t>(double(real_size()) * spec_.scale);
  }
  const MemoryRegionSpec& spec() const { return spec_; }

 private:
  friend class ProtectionDomain;
  std::uint32_t rkey_ = 0;
  MemoryRegionSpec spec_;
};

// Registration cost model: page pinning + HCA translation-table update.
struct RegistrationCost {
  double base = 20e-6;
  double per_mib = 80e-6;  // ~0.3 us per 4 KiB page
};

class ProtectionDomain {
 public:
  ProtectionDomain(sim::Engine& engine, Host& host);

  // Pins the pages; returns the region (remains owned by the PD).
  sim::Task<MemoryRegion*> register_memory(MemoryRegionSpec spec);
  Status deregister(std::uint32_t rkey);
  // Remote lookup used by one-sided ops.
  const MemoryRegion* find(std::uint32_t rkey) const;

  Host& host() { return host_; }

 private:
  sim::Engine& engine_;
  Host& host_;
  RegistrationCost reg_cost_;
  std::uint32_t next_rkey_ = 100;
  std::map<std::uint32_t, std::unique_ptr<MemoryRegion>> regions_;
};

enum class QpState { kReset, kInit, kRtr, kRts, kError };

struct SendWr {
  std::uint64_t wr_id = 0;
  Message message;
  bool signaled = true;  // false: a posted send that succeeds makes no CQ entry
};
struct RecvWr {
  std::uint64_t wr_id = 0;
};
struct RdmaReadWr {
  std::uint64_t wr_id = 0;
  std::uint32_t remote_rkey = 0;
  std::uint64_t real_offset = 0;
  std::uint64_t real_len = 0;
};

class QueuePair {
 public:
  QueuePair(Network& network, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq);
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  QpState state() const { return state_; }

  // Out-of-band connection establishment (RDMA-CM equivalent): moves both
  // QPs RESET→RTS against each other.
  static Status connect(QueuePair& a, QueuePair& b);

  // Two-sided. Sends park while the peer has no posted recv (RNR).
  Status post_send(SendWr wr);
  Status post_recv(RecvWr wr);

  // Awaited send-side WRs: each runs in the caller's task, in posting
  // order with every other WR on this QP, and completes with the WR's
  // Completion instead of a send-CQ entry (SendWr::signaled is ignored).
  // A WR that reaches a non-RTS QP completes kWrFlushError.
  sim::Task<Completion> send(SendWr wr);
  // One-sided; peer CPU and peer CQs are untouched. A READ of a whole
  // region returns the region's own buffer; a partial one, a copy.
  sim::Task<Completion> rdma_read(RdmaReadWr wr);

  Host& local_host();
  Host& remote_host();

 private:
  // Body of post_send: awaits `wr` and reports it on the send CQ.
  sim::Task<> complete_posted(sim::Task<Completion> wr, bool signaled);

  Network& network_;
  ProtectionDomain& pd_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  QueuePair* peer_ = nullptr;
  QpState state_ = QpState::kReset;
  // Posted receive WRs waiting for inbound sends.
  sim::Fifo<RecvWr> recv_queue_;
  // Pulsed whenever a recv is posted, to release RNR-parked remote senders.
  sim::Event recv_posted_;
  // Serializes the wire per QP: RC delivers in posting order.
  sim::Resource send_lock_;
};

}  // namespace hmr::ibv
