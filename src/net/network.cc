#include "net/network.h"

#include <algorithm>

namespace hmr::net {
namespace {

// RAII flow registration on both link directions.
class FlowReg {
 public:
  FlowReg(SharedLink& a, SharedLink& b) : a_(a), b_(b) {
    ++a_.active;
    ++b_.active;
  }
  ~FlowReg() {
    --a_.active;
    --b_.active;
  }
  FlowReg(const FlowReg&) = delete;
  FlowReg& operator=(const FlowReg&) = delete;

 private:
  SharedLink& a_;
  SharedLink& b_;
};

}  // namespace

Network::Network(sim::Engine& engine, NetProfile profile)
    : engine_(engine),
      profile_(std::move(profile)),
      messages_metric_(engine.metrics().counter("net.messages")),
      bytes_metric_(engine.metrics().counter("net.bytes")),
      messages_received_metric_(
          engine.metrics().counter("net.messages_received")),
      bytes_received_metric_(engine.metrics().counter("net.bytes_received")),
      cpu_seconds_metric_(engine.metrics().gauge("net.cpu_seconds")) {}

sim::Task<> Network::transmit(Host& src, Host& dst,
                              std::uint64_t modeled_bytes) {
  messages_metric_.add();
  bytes_metric_.add(std::int64_t(modeled_bytes));

  // Fixed per-message CPU (syscall / WQE posting) on the sender, then the
  // first-byte latency.
  if (profile_.os_bypass()) {
    // Posting a WQE is cheap enough not to contend for a core, so the
    // two back-to-back charges are one wait, ending at the same time.
    co_await engine_.delay_until((engine_.now() + profile_.per_msg_cpu) +
                                 profile_.base_latency);
  } else {
    if (profile_.per_msg_cpu > 0.0) {
      co_await src.compute(profile_.per_msg_cpu);
      cpu_seconds_metric_.add(profile_.per_msg_cpu);
    }
    co_await engine_.delay(profile_.base_latency);
  }

  if (modeled_bytes == 0 || &src == &dst) {
    // Loopback or pure control: latency only.
    messages_received_metric_.add();
    bytes_received_metric_.add(std::int64_t(modeled_bytes));
    co_return;
  }

  FlowReg flow(src.egress(), dst.ingress());
  std::uint64_t left = modeled_bytes;
  while (left > 0) {
    const std::uint64_t chunk = std::min(left, chunk_bytes_);
    double rate = std::min(src.egress().share(), dst.ingress().share());
    if (profile_.incast_penalty > 0.0 && dst.ingress().active > 1) {
      rate /= 1.0 + profile_.incast_penalty * double(dst.ingress().active - 1);
    }
    const double wire = double(chunk) / rate;
    if (profile_.os_bypass()) {
      co_await engine_.delay(wire);
    } else {
      // The socket stack keeps a core busy while streaming: first half of
      // the chunk on the sender (copy + segmentation), second half on the
      // receiver (copy + interrupt handling). One resource at a time, so
      // flows cannot deadlock, but saturated hosts slow the stream down.
      {
        auto core = co_await sim::hold(src.cpu());
        co_await engine_.delay(wire / 2);
      }
      {
        auto core = co_await sim::hold(dst.cpu());
        co_await engine_.delay(wire / 2);
      }
      cpu_seconds_metric_.add(wire);
    }
    left -= chunk;
  }
  // Delivery accounting: a transmit destroyed mid-flight (e.g. a teardown
  // cancelling the coroutine) leaves sent > received, which the simfuzz
  // conservation oracle flags.
  messages_received_metric_.add();
  bytes_received_metric_.add(std::int64_t(modeled_bytes));
}

}  // namespace hmr::net
