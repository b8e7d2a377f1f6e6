// Unit costs measured in isolation: each layer's public functions called
// directly, outside any job, so a per-layer change shows here before it
// is diluted in a job. Host costs are nanoseconds of this process;
// events come from Engine::events_dispatched() read before and after.
#include <algorithm>
#include <chrono>
#include <memory>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/units.h"
#include "dataplane/merger.h"
#include "net/cluster.h"
#include "net/socket.h"
#include "perfbench.h"
#include "ucr/endpoint.h"

namespace perfbench {

using namespace hmr;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

void fill_random(Bytes& out, size_t n, Rng& rng) {
  out.resize(n);
  for (auto& byte : out) byte = std::uint8_t(rng.next());
}

// Keeps measured results observable so the work is not optimized away.
volatile std::uint64_t g_sink = 0;

void crc_cost(std::uint64_t seed, std::map<std::string, Value>& out) {
  Rng rng(seed, "perfbench.crc");
  Bytes buffer;
  fill_random(buffer, 1 * kMiB, rng);
  constexpr int kReps = 32;
  std::uint32_t crc = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kReps; ++i) crc = crc32c(buffer, crc);
  const double ns = ns_since(start);
  g_sink = g_sink + crc;
  out["common.crc32c_ns_per_byte"] = {ns / double(kReps * buffer.size()),
                                      "ns/byte"};
}

// K sorted runs of records shaped like the workload's real records (the
// generators' sizes after the same payload scaling), merged repeatedly.
void merge_cost(const WorkloadSpec& workload, std::uint64_t seed,
                std::map<std::string, Value>& out) {
  const double scale = std::max(1.0, double(workload.modeled_bytes) /
                                         double(workload.target_real_bytes));
  const double shrink = std::max(1.0, scale / 32.0) / scale;
  const bool sort_records = workload.kind == "sort";
  constexpr int kRuns = 8;
  constexpr std::uint64_t kRunBytes = 512 * kKiB;
  Rng rng(seed, "perfbench.merge");
  std::vector<std::shared_ptr<const Bytes>> runs;
  for (int r = 0; r < kRuns; ++r) {
    std::vector<dataplane::KvPair> pairs;
    std::uint64_t bytes = 0;
    while (bytes < kRunBytes) {
      dataplane::KvPair pair;
      if (sort_records) {
        const auto key_paper = 10 + rng.below(981);
        const auto value_paper = rng.below(19001);
        fill_random(pair.key,
                    std::max<size_t>(2, size_t(double(key_paper) * shrink)),
                    rng);
        fill_random(pair.value, size_t(double(value_paper) * shrink), rng);
      } else {
        fill_random(pair.key, 10, rng);
        fill_random(pair.value, 90, rng);
      }
      bytes += pair.serialized_size();
      pairs.push_back(std::move(pair));
    }
    std::sort(pairs.begin(), pairs.end(), dataplane::KvLess{});
    runs.push_back(
        std::make_shared<const Bytes>(dataplane::encode_run(pairs)));
  }

  constexpr int kReps = 8;
  std::uint64_t records = 0;
  const auto start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::unique_ptr<dataplane::KvSource>> sources;
    for (const auto& run : runs) {
      sources.push_back(std::make_unique<dataplane::BytesSource>(run));
    }
    dataplane::StreamMerger merger(std::move(sources));
    dataplane::KvView view;
    while (merger.next_view(&view)) g_sink = g_sink + view.key.size();
    records += merger.records_merged();
  }
  const double ns = ns_since(start);
  out["dataplane.merge_records"] = {double(records / kReps), "records"};
  out["dataplane.merge_ns_per_record"] = {ns / double(records), "ns/record"};
}

// --- transports: one connected pair, ping-pong, bursts, one bulk send --

template <typename Conn>
sim::Task<> serve(Conn& conn) {
  while (auto msg = co_await conn->recv()) {
    if (msg->tag == 1) co_await conn->send(net::Message::control(2, 64));
  }
}

template <typename Conn>
sim::Task<> ping(Conn& conn, sim::Engine& engine, double& half_rtt) {
  const double start = engine.now();
  co_await conn->send(net::Message::control(1, 64));
  (void)co_await conn->recv();
  half_rtt = (engine.now() - start) / 2;
}

template <typename Conn>
sim::Task<> send_many(Conn& conn, int count, std::uint64_t bytes) {
  for (int i = 0; i < count; ++i) {
    co_await conn->send(net::Message::control(0, bytes));
  }
}

struct Burst {
  double events_per_msg = 0;
  double host_ns_per_msg = 0;
  double sim_s = 0;
};

// Sends `count` messages of `bytes` modeled bytes one after another and
// drains the engine, so the receiver's work is counted too.
template <typename Conn>
Burst burst(sim::Engine& engine, Conn& client, int count, std::uint64_t bytes) {
  const std::uint64_t events = engine.events_dispatched();
  const double sim_start = engine.now();
  const auto start = Clock::now();
  engine.spawn(send_many(client, count, bytes));
  engine.run();
  Burst b;
  b.host_ns_per_msg = ns_since(start) / count;
  b.events_per_msg = double(engine.events_dispatched() - events) / count;
  b.sim_s = engine.now() - sim_start;
  return b;
}

template <typename Listener, typename Conn>
sim::Task<> accept_into(Listener& listener, Conn& out) {
  out = co_await listener.accept();
  co_await serve(out);
}

sim::Task<> ucr_connect(net::Network& network, net::Host& host,
                        ucr::Listener& listener,
                        std::unique_ptr<ucr::Endpoint>& out) {
  out = co_await ucr::connect(network, host, listener);
}

sim::Task<> socket_connect(net::Network& network, net::Host& host,
                           net::Listener& listener,
                           std::unique_ptr<net::Socket>& out) {
  out = co_await net::connect(network, host, listener);
}

void ucr_costs(std::uint64_t seed, std::map<std::string, Value>& out) {
  const auto profile = net::NetProfile::verbs_qdr();
  sim::Engine engine(seed);
  net::Cluster cluster(engine, profile, net::Cluster::uniform(2, 1));
  net::Network network(engine, profile);
  ucr::Listener listener(network, cluster.host(1));
  std::unique_ptr<ucr::Endpoint> server;
  std::unique_ptr<ucr::Endpoint> client;
  engine.spawn(accept_into(listener, server));
  engine.spawn(ucr_connect(network, cluster.host(0), listener, client));
  engine.run();

  double half_rtt = 0;
  engine.spawn(ping(client, engine, half_rtt));
  engine.run();
  const Burst eager = burst(engine, client, 20000, 64);
  const Burst rndv = burst(engine, client, 5000, 256 * kKiB);
  const Burst bulk = burst(engine, client, 1, 256 * kMiB);
  client->close();
  server->close();
  engine.run();

  out["ucr.events_per_eager_msg"] = {eager.events_per_msg, "events/msg"};
  out["ucr.events_per_rndv_msg"] = {rndv.events_per_msg, "events/msg"};
  out["ucr.host_ns_per_eager_msg"] = {eager.host_ns_per_msg, "ns/msg"};
  out["ucr.host_ns_per_rndv_msg"] = {rndv.host_ns_per_msg, "ns/msg"};
  out["ucr.half_rtt_us"] = {half_rtt * 1e6, "us"};
  out["ucr.goodput_mbs"] = {double(256 * kMiB) / bulk.sim_s / 1e6, "MB/s"};
}

void socket_costs(std::uint64_t seed, std::map<std::string, Value>& out) {
  const auto profile = net::NetProfile::ipoib_qdr();
  sim::Engine engine(seed);
  net::Cluster cluster(engine, profile, net::Cluster::uniform(2, 1));
  net::Network network(engine, profile);
  net::Listener listener(network, cluster.host(1));
  std::unique_ptr<net::Socket> server;
  std::unique_ptr<net::Socket> client;
  engine.spawn(accept_into(listener, server));
  engine.spawn(socket_connect(network, cluster.host(0), listener, client));
  engine.run();

  const Burst small = burst(engine, client, 20000, 64);
  const Burst large = burst(engine, client, 1000, 4 * kMiB);
  client->close();
  server->close();
  engine.run();

  out["net.events_per_socket_msg"] = {small.events_per_msg, "events/msg"};
  out["net.events_per_socket_msg_4mib"] = {large.events_per_msg,
                                           "events/msg"};
  out["net.host_ns_per_socket_msg"] = {small.host_ns_per_msg, "ns/msg"};
}

}  // namespace

std::map<std::string, Value> measure_unit_costs(const WorkloadSpec& workload,
                                                std::uint64_t seed) {
  std::map<std::string, Value> out;
  crc_cost(seed, out);
  merge_cost(workload, seed, out);
  ucr_costs(seed, out);
  socket_costs(seed, out);
  return out;
}

}  // namespace perfbench
