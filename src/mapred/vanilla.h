// The default Hadoop shuffle (§III-A): HTTP servlets on every
// TaskTracker serve whole map-output partitions over the socket
// transport; reducer-side parallel copiers buffer them in memory or on
// disk, with the two-level (in-memory + local-FS) merge and the implicit
// reduce barrier. This is the engine behind the 1GigE / 10GigE / IPoIB
// series in every figure.
#pragma once

#include <map>
#include <memory>
#include <span>

#include "mapred/runtime.h"
#include "net/socket.h"

namespace hmr::mapred {

// One servlet request on the wire: the partition a copier asks for.
struct ServletRequest {
  int map_id = 0;
  int reduce_id = 0;

  net::Message frame() const;
  // The servlet's check of one received frame: a request-tagged message
  // whose payload is exactly {map_id, reduce_id}. A wrong tag, a missing
  // payload, or a truncated or padded body is malformed: the servlet
  // drops it (counting shuffle.malformed_msgs) and the copier's fetch
  // timeout re-issues the request.
  static Result<ServletRequest> from_frame(const net::Message& msg);
};

class VanillaShuffleEngine final : public ShuffleEngine {
 public:
  std::string name() const override { return "vanilla"; }

  sim::Task<> start(JobRuntime& job) override;
  sim::Task<> fetch_and_merge(JobRuntime& job, int reduce_id, Host& host,
                              KvSink& sink,
                              TaskAttempt* attempt = nullptr) override;
  bool overlaps_reduce(const JobRuntime& job) const override {
    (void)job;
    return false;  // reduce starts only after all merges complete
  }
  sim::Task<> stop(JobRuntime& job) override;

 private:
  // One fetched partition, either memory-resident or spilled.
  struct Segment {
    std::shared_ptr<const Bytes> data;  // the response, when in memory
    std::string disk_path;              // set when spilled
    std::uint64_t modeled = 0;
    std::span<const std::uint8_t> records;  // data's records
  };
  struct ReduceShuffleState;

  sim::Task<> servlet_accept_loop(JobRuntime& job, net::Listener& listener,
                                  int host_id);
  sim::Task<> servlet_conn_loop(JobRuntime& job,
                                std::unique_ptr<net::Socket> sock,
                                int host_id);
  sim::Task<> copier_loop(JobRuntime& job, ReduceShuffleState& state,
                          int copier_id);
  // Fetches one map's partition with timeout/retry/blacklist recovery
  // (mapred/recovery.h) and stores it in memory or on disk.
  sim::Task<> fetch_one(JobRuntime& job, ReduceShuffleState& state,
                        int map_id, Rng& rng);
  sim::Task<> in_memory_merge(JobRuntime& job, ReduceShuffleState& state);

  std::map<int, std::unique_ptr<net::Listener>> listeners_;  // by host id
  std::unique_ptr<sim::WaitGroup> daemons_;  // accept + connection loops
  // Cached per-fetch handle, rebound in start() (same idiom as
  // JobRuntime::metric: registry references are stable for its lifetime).
  FixedHistogram* fetch_rtt_ = nullptr;
};

}  // namespace hmr::mapred
