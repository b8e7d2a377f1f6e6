// bench/micro_engine: host-side guard for the event queue, emitted as a
// machine-independent ratio in the hmr-bench-v1 "seconds" field so
// tools/bench_check can diff it against bench/baselines/BENCH_engine.json
// with a tight tolerance (CPU frequency cancels in first order).
//
// "queue-churn": EventQueue (4-ary heap + now-FIFO) time as a fraction
// of a reference std::priority_queue<Event> ordered by (at, seq) on the
// identical operation stream. Absolute events/sec for both ride along
// as extra keys (allowed by the schema).
//
// End-to-end engine dispatch cost is measured by perfbench
// (sim.host_ns_per_event.*), not here.
//
// Regenerate the baseline after an intentional change with
//   HMR_BENCH_DIR=bench/baselines ./build/bench/micro_engine
//
// Noise control, in layers: times are thread-CPU (immune to preemption
// and CPU steal), a warmup pair absorbs first-touch page faults, reps
// are INTERLEAVED (queue rep, reference rep, queue rep, ...) so each
// queue rep is paired with a reference rep that saw the same machine
// state, and the reported ratio is the MEDIAN of per-pair ratios — a
// noisy stretch skews one pair, not the estimate.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <queue>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "workloads/benchjson.h"

namespace {

using namespace hmr;
using namespace hmr::sim;

constexpr int kReps = 5;

// Thread CPU time, not wall clock: the benchmark is single-threaded and
// CPU-bound, so this is the honest cost — and it is immune to scheduler
// preemption and (on shared CI runners) CPU steal, which otherwise
// swing wall-clock reps by 30%+.
double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

using Event = EventQueue::Event;

// One timed repetition of the churn loop on one queue.
struct Once {
  std::uint64_t events = 0;  // events processed (queue-invariant)
  double seconds = 0;        // thread-CPU time for this rep
  double final_time = 0;     // queue clock at the end (sanity)
  std::uint64_t seq_xor = 0;  // XOR of popped seqs: same dispatch order
};

// Measured against each other: the ratio (the baseline-diffed number) is
// the MEDIAN of per-pair ratios.
struct Comparison {
  std::uint64_t events = 0;      // events per rep
  double ratio = 0;              // median of per-pair queue/reference times
  double queue_seconds = 0;      // median rep time, for display ev/s
  double reference_seconds = 0;
  bool streams_match = false;    // both saw identical event streams
};

// The reference: a binary heap over the same (at, seq) total order, with
// no now-FIFO. Same push(now, event)/pop() shape as EventQueue.
class ReferenceQueue {
 public:
  void push(double, const Event& event) { heap_.push(event); }
  Event pop() {
    const Event out = heap_.top();
    heap_.pop();
    return out;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

// Raw queue churn against a fat backlog. 32k staggered future events
// stay resident while 16M pop+push operations replay the engine's
// dominant mix: 7 of 8 re-arms land at exactly now() (channel and
// resource wakeups — the FIFO fast path) and 1 of 8 is a short future
// timer (the heap path). No coroutines are resumed — this isolates the
// container cost the engine pays per event. Jitters are precomputed so
// the measured loop is queue ops and nothing else.
template <typename Queue>
Once queue_churn() {
  constexpr std::size_t kBacklog = 32768;
  // Sized so one rep is hundreds of milliseconds of CPU: the kernel
  // accounts thread CPU time in ~10ms jiffies, so short reps would be
  // quantization noise.
  constexpr std::uint64_t kOps = 16'000'000;
  static const std::vector<double> jitter = [] {
    std::vector<double> j(4096);
    Rng rng(7, "micro_engine.churn");
    for (double& v : j) v = 1e-6 + rng.uniform() * 0.01;
    return j;
  }();
  Once m;
  m.events = kOps;
  Queue queue;
  Rng backlog_rng(11, "micro_engine.backlog");
  std::uint64_t seq = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    // Far-future: the backlog stays resident for the whole run, so
    // every heap op works against its full depth.
    queue.push(now, {1e9 + backlog_rng.uniform() * 1e9, seq++, {}});
  }
  queue.push(now, {0.0, seq++, {}});  // primes the dispatch chain
  const double t0 = now_seconds();
  for (std::uint64_t op = 0; op < kOps; ++op) {
    const Event event = queue.pop();
    now = event.at;
    m.seq_xor ^= event.seq;
    const double at =
        (op & 7) != 0 ? now : now + jitter[op / 8 % jitter.size()];
    queue.push(now, {at, seq++, {}});
  }
  m.seconds = now_seconds() - t0;
  m.final_time = now;
  return m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interleaved pairs: one warmup pair (discarded — first-touch page
// faults and allocator growth land there), then kReps timed pairs.
Comparison measure_queue_churn() {
  Comparison c;
  queue_churn<EventQueue>();
  queue_churn<ReferenceQueue>();
  std::vector<double> ratios, queue_times, reference_times;
  c.streams_match = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const Once q = queue_churn<EventQueue>();
    const Once r = queue_churn<ReferenceQueue>();
    ratios.push_back(q.seconds / r.seconds);
    queue_times.push_back(q.seconds);
    reference_times.push_back(r.seconds);
    c.events = q.events;
    c.streams_match = c.streams_match && q.events == r.events &&
                      q.final_time == r.final_time && q.seq_xor == r.seq_xor;
  }
  c.ratio = median(ratios);
  c.queue_seconds = median(queue_times);
  c.reference_seconds = median(reference_times);
  return c;
}

Json make_queue_run(const std::string& series, const Comparison& c) {
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json run = Json::object();
  run.set("series", Json(series));
  run.set("size_gb", Json(0.0));
  // The baseline-diffed quantity: EventQueue time as a fraction of the
  // reference's (< 1 is a speedup).
  run.set("seconds", Json(c.ratio));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  // Validated = both queues processed the identical event stream: same
  // count, same final clock, same popped seqs.
  run.set("validated", Json(c.streams_match));
  run.set("events_per_sec_queue", Json(double(c.events) / c.queue_seconds));
  run.set("events_per_sec_reference",
          Json(double(c.events) / c.reference_seconds));
  std::printf("%-28s queue %10.0f ev/s   reference %10.0f ev/s   %.2fx\n",
              series.c_str(), double(c.events) / c.queue_seconds,
              double(c.events) / c.reference_seconds, 1.0 / c.ratio);
  return run;
}

}  // namespace

int main() {
  std::printf("micro_engine: EventQueue 4-ary+FIFO vs std::priority_queue "
              "(median of %d interleaved rep pairs)\n", kReps);
  Json runs = Json::array();
  runs.push_back(
      make_queue_run("queue-churn 32k-backlog", measure_queue_churn()));

  Json doc = Json::object();
  doc.set("schema", Json("hmr-bench-v1"));
  doc.set("figure", Json("engine"));
  doc.set("title", Json("Engine event-queue: 4-ary+FIFO time as a fraction "
                        "of std::priority_queue"));
  doc.set("workload", Json("microbench"));
  doc.set("nodes", Json(std::int64_t(0)));
  doc.set("runs", std::move(runs));

  const std::string path =
      workloads::write_bench_json("BENCH_engine.json", doc);
  return path.empty() ? 1 : 0;
}
