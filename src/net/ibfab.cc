#include "net/ibfab.h"

namespace hmr::ibv {

sim::Task<Completion> CompletionQueue::wait() {
  auto completion = co_await entries_.recv();
  HMR_CHECK_MSG(completion.has_value(), "completion queue torn down");
  co_return *completion;
}

sim::Task<std::optional<Completion>> CompletionQueue::wait_opt() {
  co_return co_await entries_.recv();
}

std::optional<Completion> CompletionQueue::poll() {
  return entries_.try_recv();
}

sim::Task<> CompletionQueue::push(Completion completion) {
  if (!entries_.closed()) co_await entries_.send(std::move(completion));
}

ProtectionDomain::ProtectionDomain(sim::Engine& engine, Host& host)
    : engine_(engine), host_(host) {}

sim::Task<MemoryRegion*> ProtectionDomain::register_memory(
    MemoryRegionSpec spec) {
  HMR_CHECK_MSG(spec.buffer != nullptr, "registering null buffer");
  auto region = std::make_unique<MemoryRegion>();
  region->rkey_ = next_rkey_++;
  region->spec_ = std::move(spec);
  const double mib = double(region->modeled_size()) / (1024.0 * 1024.0);
  co_await engine_.delay(reg_cost_.base + reg_cost_.per_mib * mib);
  MemoryRegion* raw = region.get();
  regions_.emplace(raw->rkey_, std::move(region));
  co_return raw;
}

Status ProtectionDomain::deregister(std::uint32_t rkey) {
  if (regions_.erase(rkey) == 0) {
    return Status::NotFound("no such rkey: " + std::to_string(rkey));
  }
  return Status::Ok();
}

const MemoryRegion* ProtectionDomain::find(std::uint32_t rkey) const {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

QueuePair::QueuePair(Network& network, ProtectionDomain& pd,
                     CompletionQueue& send_cq, CompletionQueue& recv_cq)
    : network_(network),
      pd_(pd),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      recv_posted_(network.engine()),
      send_lock_(network.engine(), 1, "qp.send") {}

Status QueuePair::connect(QueuePair& a, QueuePair& b) {
  if (a.state_ != QpState::kReset || b.state_ != QpState::kReset) {
    return Status::FailedPrecondition("QP not in RESET");
  }
  a.peer_ = &b;
  b.peer_ = &a;
  a.state_ = QpState::kRts;
  b.state_ = QpState::kRts;
  return Status::Ok();
}

Host& QueuePair::local_host() { return pd_.host(); }

Host& QueuePair::remote_host() {
  HMR_CHECK_MSG(peer_ != nullptr, "QP not connected");
  return peer_->pd_.host();
}

Status QueuePair::post_send(SendWr wr) {
  if (state_ != QpState::kRts) {
    return Status::FailedPrecondition("post_send on non-RTS QP");
  }
  const bool signaled = wr.signaled;
  network_.engine().spawn(complete_posted(send(std::move(wr)), signaled));
  return Status::Ok();
}

Status QueuePair::post_recv(RecvWr wr) {
  if (state_ == QpState::kReset || state_ == QpState::kError) {
    return Status::FailedPrecondition("post_recv on RESET/ERROR QP");
  }
  recv_queue_.push_back(wr);
  recv_posted_.set();
  recv_posted_.reset();
  return Status::Ok();
}

sim::Task<> QueuePair::complete_posted(sim::Task<Completion> wr,
                                       bool signaled) {
  Completion completion = co_await std::move(wr);
  // Unsignaled WRs still report failures, as on hardware.
  if (signaled || completion.status != WcStatus::kSuccess) {
    co_await send_cq_.push(std::move(completion));
  }
}

sim::Task<Completion> QueuePair::send(SendWr wr) {
  auto order = co_await sim::hold(send_lock_);
  Completion tx;
  tx.wr_id = wr.wr_id;
  tx.opcode = Opcode::kSend;
  if (state_ != QpState::kRts) {
    tx.status = WcStatus::kWrFlushError;
    co_return tx;
  }
  // RNR: park until the peer posts a receive (infinite rnr_retry).
  while (peer_->recv_queue_.empty()) {
    co_await peer_->recv_posted_.wait();
  }
  RecvWr recv = peer_->recv_queue_.front();
  peer_->recv_queue_.pop_front();

  const std::uint64_t bytes = wr.message.modeled_bytes;
  co_await network_.transmit(local_host(), remote_host(), bytes);

  Completion rx;
  rx.wr_id = recv.wr_id;
  rx.opcode = Opcode::kRecv;
  rx.byte_len = bytes;
  rx.message = std::move(wr.message);
  co_await peer_->recv_cq_.push(std::move(rx));

  tx.byte_len = bytes;
  co_return tx;
}

sim::Task<Completion> QueuePair::rdma_read(RdmaReadWr wr) {
  auto order = co_await sim::hold(send_lock_);
  Completion completion;
  completion.wr_id = wr.wr_id;
  completion.opcode = Opcode::kRdmaRead;
  if (state_ != QpState::kRts) {
    completion.status = WcStatus::kWrFlushError;
    co_return completion;
  }

  const MemoryRegion* region = peer_->pd_.find(wr.remote_rkey);
  if (region == nullptr ||
      wr.real_offset + wr.real_len > region->real_size()) {
    completion.status = WcStatus::kRemoteAccessError;
    state_ = QpState::kError;
    co_return completion;
  }
  // Read request travels to the responder (latency-only), data streams
  // back DMA-to-DMA: no CPU at either end.
  const auto modeled = static_cast<std::uint64_t>(
      double(wr.real_len) * region->spec().scale);
  co_await network_.transmit(remote_host(), local_host(), modeled);

  // A READ of the whole region hands back the pinned buffer itself (it
  // is immutable); a partial READ copies out its range.
  const std::shared_ptr<const Bytes>& buffer = region->spec().buffer;
  completion.byte_len = modeled;
  if (wr.real_offset == 0 && wr.real_len == buffer->size()) {
    completion.message = Message::share(buffer, modeled);
  } else {
    completion.message = Message::share(
        std::make_shared<const Bytes>(
            buffer->begin() + wr.real_offset,
            buffer->begin() + wr.real_offset + wr.real_len),
        modeled);
  }
  co_return completion;
}

}  // namespace hmr::ibv
