// Flow-level network model.
//
// All hosts hang off one non-blocking switch; contention happens at the
// NIC links. A transfer is chunked, and each chunk moves at
// min(sender-egress share, receiver-ingress share) sampled when the
// chunk starts — the standard fluid approximation of max-min fairness.
//
// Socket-path transfers additionally occupy a CPU core alternately on
// the sending and receiving host for the wire duration (kernel copies,
// checksums, interrupts), so they contend with map/reduce compute.
// OS-bypass (verbs) transfers never touch the cores; the HCA DMAs.
#pragma once

#include <cstdint>

#include "net/cluster.h"
#include "net/profile.h"
#include "sim/engine.h"

namespace hmr::net {

class Network {
 public:
  Network(sim::Engine& engine, NetProfile profile);

  const NetProfile& profile() const { return profile_; }
  sim::Engine& engine() { return engine_; }

  // Moves `modeled_bytes` from src to dst as one message: one base-latency
  // charge plus chunked bandwidth. Honors the profile's CPU model.
  // Counts into the engine's registry: net.messages and net.bytes when a
  // message is handed over, net.messages_received and net.bytes_received
  // when it is delivered, and the socket stack's CPU time in the
  // net.cpu_seconds gauge.
  sim::Task<> transmit(Host& src, Host& dst, std::uint64_t modeled_bytes);

 private:
  sim::Engine& engine_;
  NetProfile profile_;
  std::uint64_t chunk_bytes_ = 1 * 1024 * 1024;
  // The net.* metrics (one Network per sim::Engine); references are
  // stable for the registry's lifetime, so the per-message hot path skips
  // the name map.
  Counter& messages_metric_;
  Counter& bytes_metric_;
  Counter& messages_received_metric_;
  Counter& bytes_received_metric_;
  Gauge& cpu_seconds_metric_;
};

}  // namespace hmr::net
