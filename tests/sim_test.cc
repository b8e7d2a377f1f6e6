#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/fifo.h"
#include "sim/sync.h"
#include "sim/task.h"

#if defined(__SANITIZE_ADDRESS__)
#define HMR_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMR_TEST_ASAN 1
#endif
#endif
#ifdef HMR_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace hmr::sim {
namespace {

// ---------------------------------------------------------------- engine

TEST(EngineTest, StartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, DelayAdvancesClock) {
  Engine engine;
  double finished_at = -1.0;
  engine.spawn([](Engine& e, double& out) -> Task<> {
    co_await e.delay(2.5);
    co_await e.delay(1.5);
    out = e.now();
  }(engine, finished_at));
  engine.run();
  EXPECT_DOUBLE_EQ(finished_at, 4.0);
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, EqualTimeEventsRunInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& e, std::vector<int>& order, int id) -> Task<> {
      co_await e.delay(1.0);
      order.push_back(id);
    }(engine, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // A process that wakes at t=1 and awaits delay(0) runs after every
  // process already queued for t=1 and before an event queued for
  // t=1.5. Hand-computed (at, seq) order.
  Engine mixed;
  std::vector<std::pair<std::string, double>> log;
  const auto proc = [](Engine& e,
                       std::vector<std::pair<std::string, double>>& log,
                       std::string name, std::vector<double> delays)
      -> Task<> {
    for (std::size_t i = 0; i < delays.size(); ++i) {
      co_await e.delay(delays[i]);
      log.emplace_back(name + std::to_string(i), e.now());
    }
  };
  mixed.spawn(proc(mixed, log, "a", {1.0, 0.0, 0.0}));
  mixed.spawn(proc(mixed, log, "b", {2.0}));
  mixed.spawn(proc(mixed, log, "c", {1.0, 0.5}));
  mixed.spawn(proc(mixed, log, "d", {1.0}));
  mixed.run();
  EXPECT_EQ(log, (std::vector<std::pair<std::string, double>>{
                     {"a0", 1.0},
                     {"c0", 1.0},
                     {"d0", 1.0},
                     {"a1", 1.0},
                     {"a2", 1.0},
                     {"c1", 1.5},
                     {"b0", 2.0}}));
}

// What a process observes of the queue through the engine: 16 jittered
// processes (half their delays zero, so same-time wakeups pile up) wake in exactly the order a reference std::priority_queue
// over (at, seq) gives, with one seq per spawn and per delay.
TEST(EngineTest, DispatchOrderMatchesReferenceQueue) {
  constexpr int kProcs = 16;
  constexpr int kSteps = 50;
  Engine engine(7);
  std::vector<std::pair<double, int>> events;
  for (int i = 0; i < kProcs; ++i) {
    engine.spawn(
        [](Engine& e, std::vector<std::pair<double, int>>& events,
           int id) -> Task<> {
          Rng rng = e.make_rng("jitter." + std::to_string(id));
          for (int step = 0; step < kSteps; ++step) {
            const double dt = rng.chance(0.5) ? 0.0 : rng.uniform();
            co_await e.delay(dt);
            events.emplace_back(e.now(), id);
          }
        }(engine, events, i));
  }
  engine.run();

  struct Wake {
    double at;
    std::uint64_t seq;
    int id;
    bool started;
  };
  const auto later = [](const Wake& a, const Wake& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  std::priority_queue<Wake, std::vector<Wake>, decltype(later)> reference(
      later);
  std::vector<Rng> rngs;
  std::vector<int> steps(kProcs, 0);
  std::uint64_t seq = 0;
  for (int i = 0; i < kProcs; ++i) {
    rngs.push_back(engine.make_rng("jitter." + std::to_string(i)));
    reference.push({0.0, seq++, i, false});
  }
  std::vector<std::pair<double, int>> expected;
  while (!reference.empty()) {
    const Wake w = reference.top();
    reference.pop();
    if (w.started) expected.emplace_back(w.at, w.id);
    if (steps[w.id]++ == kSteps) continue;
    Rng& rng = rngs[w.id];
    const double dt = rng.chance(0.5) ? 0.0 : rng.uniform();
    reference.push({w.at + dt, seq++, w.id, true});
  }
  EXPECT_EQ(events, expected);
  EXPECT_EQ(events.size(), std::size_t(kProcs) * kSteps);
}

TEST(EngineTest, ZeroDelayRunsAtSameTime) {
  Engine engine;
  double t = -1;
  engine.spawn([](Engine& e, double& t) -> Task<> {
    co_await e.delay(0.0);
    t = e.now();
  }(engine, t));
  engine.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(EngineTest, StructuredChildReturnsValue) {
  Engine engine;
  int result = 0;
  engine.spawn([](Engine& e, int& out) -> Task<> {
    auto child = [](Engine& e) -> Task<int> {
      co_await e.delay(1.0);
      co_return 42;
    };
    out = co_await child(e);
  }(engine, result));
  engine.run();
  EXPECT_EQ(result, 42);
}

TEST(EngineTest, NestedChildrenComposeDelays) {
  Engine engine;
  double done = 0;
  engine.spawn([](Engine& e, double& done) -> Task<> {
    auto inner = [](Engine& e) -> Task<int> {
      co_await e.delay(1.0);
      co_return 1;
    };
    auto middle = [inner](Engine& e) -> Task<int> {
      int total = 0;
      for (int i = 0; i < 3; ++i) total += co_await inner(e);
      co_return total;
    };
    const int total = co_await middle(e);
    EXPECT_EQ(total, 3);
    done = e.now();
  }(engine, done));
  engine.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(EngineTest, ExceptionPropagatesToAwaiter) {
  Engine engine;
  bool caught = false;
  engine.spawn([](Engine& e, bool& caught) -> Task<> {
    auto thrower = [](Engine& e) -> Task<int> {
      co_await e.delay(0.5);
      throw std::runtime_error("boom");
    };
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error& err) {
      caught = std::string(err.what()) == "boom";
    }
  }(engine, caught));
  engine.run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, RunUntilStopsEarly) {
  Engine engine;
  int ticks = 0;
  engine.spawn([](Engine& e, int& ticks) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await e.delay(1.0);
      ++ticks;
    }
  }(engine, ticks));
  engine.run_until(10.5);
  EXPECT_EQ(ticks, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 10.5);
  EXPECT_EQ(engine.live_processes(), 1);
  engine.run();
  EXPECT_EQ(ticks, 100);
}

TEST(EngineTest, BlockedProcessReportedLive) {
  Engine engine;
  Event never(engine);
  engine.spawn([](Event& ev) -> Task<> { co_await ev.wait(); }(never));
  engine.run();
  EXPECT_EQ(engine.live_processes(), 1);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(42);
    std::vector<double> times;
    auto rng = engine.make_rng("jitter");
    for (int i = 0; i < 10; ++i) {
      engine.spawn(
          [](Engine& e, std::vector<double>& times, double dt) -> Task<> {
            co_await e.delay(dt);
            times.push_back(e.now());
          }(engine, times, rng.uniform()));
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, MakeRngIsStable) {
  Engine a(7), b(7);
  EXPECT_EQ(a.make_rng("x").next(), b.make_rng("x").next());
}

// ----------------------------------------------------------------- event

TEST(EventTest, SetWakesAllWaiters) {
  Engine engine;
  Event ev(engine);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Event& ev, int& woken) -> Task<> {
      co_await ev.wait();
      ++woken;
    }(ev, woken));
  }
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    co_await e.delay(5.0);
    ev.set();
  }(engine, ev));
  engine.run();
  EXPECT_EQ(woken, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Engine engine;
  Event ev(engine);
  ev.set();
  double t = -1;
  engine.spawn([](Engine& e, Event& ev, double& t) -> Task<> {
    co_await e.delay(1.0);
    co_await ev.wait();
    t = e.now();
  }(engine, ev, t));
  engine.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(EventTest, ResetRearms) {
  Engine engine;
  Event ev(engine);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  int woken = 0;
  engine.spawn([](Event& ev, int& woken) -> Task<> {
    co_await ev.wait();
    ++woken;
  }(ev, woken));
  engine.spawn([](Event& ev) -> Task<> {
    ev.set();
    co_return;
  }(ev));
  engine.run();
  EXPECT_EQ(woken, 1);
}

// -------------------------------------------------------------- resource

TEST(ResourceTest, CapacityLimitsConcurrency) {
  Engine engine;
  Resource cores(engine, 2, "cpu");
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    engine.spawn([](Engine& e, Resource& r, int& concurrent,
                    int& peak) -> Task<> {
      co_await r.acquire();
      ++concurrent;
      peak = std::max(peak, concurrent);
      co_await e.delay(1.0);
      --concurrent;
      r.release();
    }(engine, cores, concurrent, peak));
  }
  engine.run();
  EXPECT_EQ(peak, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);  // 6 jobs, 2 at a time, 1s each
  EXPECT_EQ(cores.available(), 2);
}

TEST(ResourceTest, FifoOrderPreserved) {
  Engine engine;
  Resource r(engine, 1, "disk");
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Engine& e, Resource& r, std::vector<int>& order,
                    int id) -> Task<> {
      co_await e.delay(double(id) * 0.001);  // stagger arrival
      co_await r.acquire();
      order.push_back(id);
      co_await e.delay(1.0);
      r.release();
    }(engine, r, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ResourceTest, LargeRequestBlocksLaterSmallOnes) {
  Engine engine;
  Resource r(engine, 4, "mem");
  std::vector<std::string> order;
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await r.acquire(3);
    order.push_back("A3");
    co_await e.delay(2.0);
    r.release(3);
  }(engine, r, order));
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await e.delay(0.1);
    co_await r.acquire(3);  // must wait for A to release
    order.push_back("B3");
    r.release(3);
  }(engine, r, order));
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await e.delay(0.2);
    co_await r.acquire(1);  // would fit, but must not jump the queue
    order.push_back("C1");
    r.release(1);
  }(engine, r, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A3", "B3", "C1"}));
}

TEST(ResourceTest, HoldReleasesOnScopeExit) {
  Engine engine;
  Resource r(engine, 1, "slot");
  double second_start = -1;
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    auto guard = co_await hold(r);
    co_await e.delay(3.0);
    // guard released at scope exit
  }(engine, r));
  engine.spawn([](Engine& e, Resource& r, double& start) -> Task<> {
    auto guard = co_await hold(r);
    start = e.now();
  }(engine, r, second_start));
  engine.run();
  EXPECT_DOUBLE_EQ(second_start, 3.0);
  EXPECT_EQ(r.available(), 1);
}

// hold() parks the caller on the resource itself, so on a contended
// resource it must grant in the same FIFO order, at the same times, as a
// bare acquire()/release() pair.
TEST(ResourceTest, HoldGrantsLikeAcquireUnderContention) {
  struct Grant {
    int id;
    double at;
    bool operator==(const Grant&) const = default;
  };
  auto run = [](bool use_hold) {
    Engine engine;
    Resource r(engine, 3, "pool");
    std::vector<Grant> grants;
    for (int i = 0; i < 6; ++i) {
      engine.spawn([](Engine& e, Resource& r, std::vector<Grant>& grants,
                      int id, bool use_hold) -> Task<> {
        const std::int64_t amount = 1 + id % 3;
        co_await e.delay(double(id % 2) * 0.5);
        if (use_hold) {
          auto guard = co_await hold(r, amount);
          grants.push_back({id, e.now()});
          co_await e.delay(1.0 + id);
        } else {
          co_await r.acquire(amount);
          grants.push_back({id, e.now()});
          co_await e.delay(1.0 + id);
          r.release(amount);
        }
      }(engine, r, grants, i, use_hold));
    }
    engine.run();
    EXPECT_EQ(r.available(), 3);
    return std::pair{grants, engine.events_dispatched()};
  };
  const auto [held, held_events] = run(true);
  const auto [acquired, acquired_events] = run(false);
  ASSERT_EQ(held.size(), 6u);
  EXPECT_EQ(held, acquired);
  EXPECT_EQ(held_events, acquired_events);
}

// ------------------------------------------------------- detached frames

TEST(EngineTest, DetachedFramesFinishingOutOfOrderKeepLiveCountExact) {
  // Five frames finish middle, head, tail, then the remaining two, so
  // each unlink hits a different position of the spawn-ordered list.
  Engine engine;
  const double finish_at[5] = {2.0, 4.0, 1.0, 5.0, 3.0};
  for (double at : finish_at) {
    engine.spawn([](Engine& e, double at) -> Task<> {
      co_await e.delay(at);
    }(engine, at));
  }
  EXPECT_EQ(engine.live_processes(), 5);
  for (int done = 1; done <= 5; ++done) {
    engine.run_until(double(done));
    EXPECT_EQ(engine.live_processes(), 5 - done) << "at t=" << done;
  }
  // The emptied list accepts new frames again.
  engine.spawn([](Engine& e) -> Task<> { co_await e.delay(1.0); }(engine));
  EXPECT_EQ(engine.live_processes(), 1);
  engine.run();
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, TeardownDestroysExactlyTheBlockedFrames) {
  // Each frame owns a flag guard; its destructor records the frame id
  // whether the frame finished or was destroyed by engine teardown.
  struct Guard {
    std::vector<int>* destroyed;
    int id;
    ~Guard() { destroyed->push_back(id); }
  };
  std::vector<int> destroyed;
  {
    Engine engine;
    Event never(engine);
    for (int id = 0; id < 6; ++id) {
      engine.spawn([](Engine& e, Event& never, std::vector<int>& destroyed,
                      int id) -> Task<> {
        Guard guard{&destroyed, id};
        co_await e.delay(double(id));
        if (id % 2 == 0) co_await never.wait();  // blocks forever
      }(engine, never, destroyed, id));
    }
    engine.run();
    EXPECT_EQ(engine.live_processes(), 3);
    // The odd frames ran to completion and destroyed their guards.
    EXPECT_EQ(destroyed, (std::vector<int>{1, 3, 5}));
    destroyed.clear();
  }
  // Teardown destroyed the three blocked frames, once each, in spawn order.
  EXPECT_EQ(destroyed, (std::vector<int>{0, 2, 4}));
}

// ------------------------------------------------------------ frame pool

using detail::allocate_frame;
using detail::kFrameGranule;
using detail::kFramesPerClass;
using detail::kMaxPooledFrame;
using detail::release_frame;
using detail::retained_frames;

// Blocks the pool holds over all its classes.
std::size_t total_retained() {
  std::size_t total = 0;
  for (std::size_t size = kFrameGranule; size <= kMaxPooledFrame;
       size += kFrameGranule) {
    total += retained_frames(size);
  }
  return total;
}

// Awaiting it stores the awaiting coroutine's frame address.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // continue at once
  }
  void await_resume() const noexcept {}
};

Task<> record_frame(void** out) {
  const FrameAddress here{out};
  co_await here;
}

TEST(FramePoolTest, FreedFrameIsReusedBySameClass) {
  // Two sizes of one class share its blocks; a plain allocation in
  // between (which the global allocator would serve from the block just
  // freed) does not take it.
  void* first = allocate_frame(3 * kFrameGranule - 2);
  release_frame(first, 3 * kFrameGranule - 2);
  void* other = ::operator new(3 * kFrameGranule);
  void* again = allocate_frame(2 * kFrameGranule + 1);
  EXPECT_EQ(again, first);
  release_frame(again, 2 * kFrameGranule + 1);
  ::operator delete(other, 3 * kFrameGranule);

  // A Task frame goes through the pool: the finished frame is retained
  // and the next frame of the same coroutine gets its block.
  Engine engine;
  void* a = nullptr;
  void* b = nullptr;
  const std::size_t before = total_retained();
  engine.spawn(record_frame(&a));
  engine.run();
  EXPECT_EQ(total_retained(), before + 1);
  engine.spawn(record_frame(&b));
  EXPECT_EQ(total_retained(), before);
  engine.run();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
}

TEST(FramePoolTest, ClassNeverRetainsMoreThanItsCap) {
  constexpr std::size_t kSize = 5 * kFrameGranule;
  std::vector<void*> frames;
  for (std::size_t i = 0; i < kFramesPerClass + 8; ++i) {
    frames.push_back(allocate_frame(kSize));
  }
  EXPECT_EQ(retained_frames(kSize), 0u);
  for (void* frame : frames) {
    release_frame(frame, kSize);
    EXPECT_LE(retained_frames(kSize), kFramesPerClass);
  }
  EXPECT_EQ(retained_frames(kSize), kFramesPerClass);
  // Other classes are untouched.
  EXPECT_EQ(retained_frames(kSize + kFrameGranule), 0u);
}

TEST(FramePoolTest, FrameAboveLargestClassBypassesPool) {
  const std::size_t before = total_retained();
  void* big = allocate_frame(kMaxPooledFrame + 1);
  release_frame(big, kMaxPooledFrame + 1);
  EXPECT_EQ(retained_frames(kMaxPooledFrame + 1), 0u);
  EXPECT_EQ(total_retained(), before);

  // A coroutine whose frame holds a buffer past the largest class.
  Engine engine;
  int sum = 0;
  engine.spawn([](Engine& e, int& sum) -> Task<> {
    std::array<char, 2 * kMaxPooledFrame> buffer{};
    buffer.back() = 7;
    co_await e.delay(1.0);
    sum = buffer.front() + buffer.back();
  }(engine, sum));
  engine.run();
  EXPECT_EQ(sum, 7);
  EXPECT_EQ(total_retained(), before);
}

TEST(FramePoolTest, ReleasedBlockIsPoisonedUnderAsan) {
#ifndef HMR_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build (-DHMR_SANITIZE=ON)";
#else
  constexpr std::size_t kSize = 2 * kFrameGranule - 28;
  auto* block = static_cast<char*>(allocate_frame(kSize));
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  EXPECT_FALSE(__asan_address_is_poisoned(block + kSize - 1));
  // The rounding slack up to the class size is poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(block + 2 * kFrameGranule - 1));
  release_frame(block, kSize);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + kSize - 1));

  // A finished Task's frame reads as poisoned, so resuming a dangling
  // handle to it is reported.
  Engine engine;
  void* frame = nullptr;
  engine.spawn(record_frame(&frame));
  engine.run();
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  EXPECT_DEATH(std::coroutine_handle<>::from_address(frame).resume(),
               "use-after-poison");
#endif
}

// ------------------------------------------------------------- waitgroup

TEST(WaitGroupTest, WaitsForAll) {
  Engine engine;
  WaitGroup wg(engine);
  double done_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.add();
    engine.spawn([](Engine& e, WaitGroup& wg, double dt) -> Task<> {
      co_await e.delay(dt);
      wg.done();
    }(engine, wg, double(i)));
  }
  engine.spawn([](Engine& e, WaitGroup& wg, double& done_at) -> Task<> {
    co_await wg.wait();
    done_at = e.now();
  }(engine, wg, done_at));
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(WaitGroupTest, EmptyGroupDoesNotBlock) {
  Engine engine;
  WaitGroup wg(engine);
  bool ran = false;
  engine.spawn([](WaitGroup& wg, bool& ran) -> Task<> {
    co_await wg.wait();
    ran = true;
  }(wg, ran));
  engine.run();
  EXPECT_TRUE(ran);
}

// --------------------------------------------------------------- channel

TEST(ChannelTest, FifoDelivery) {
  Engine engine;
  Channel<int> ch(engine, 4);
  std::vector<int> received;
  engine.spawn([](Channel<int>& ch) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await ch.send(i);
    ch.close();
  }(ch));
  engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
    while (auto v = co_await ch.recv()) received.push_back(*v);
  }(ch, received));
  engine.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(ChannelTest, BoundedCapacityBlocksSender) {
  Engine engine;
  Channel<int> ch(engine, 2);
  int sent = 0;
  engine.spawn([](Channel<int>& ch, int& sent) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await ch.send(i);
      ++sent;
    }
  }(ch, sent));
  engine.spawn([](Engine& e, Channel<int>& ch) -> Task<> {
    co_await e.delay(10.0);
    (void)co_await ch.recv();
  }(engine, ch));
  engine.run();
  // 2 buffered + 1 handed to the receiver after its recv = 3 completed sends.
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(engine.live_processes(), 1);  // sender still parked
}

TEST(ChannelTest, OneSenderOneReceiverHoldAtMostFourSlots) {
  // A capacity-2 channel between one sender and one receiver: its buffer
  // grows to two slots, and each parked-task queue to one, since at most
  // one task parks on each side. The sender runs ahead of the receiver
  // (it parks on a full buffer), then falls behind (the receiver parks
  // on an empty one).
  Engine engine;
  Channel<int> ch(engine, 2);
  size_t most = 0;
  std::vector<int> received;
  engine.spawn([](Engine& e, Channel<int>& ch, size_t& most) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      if (i >= 6) co_await e.delay(5.0);
      co_await ch.send(i);
      most = std::max(most, ch.queue_capacity());
    }
    ch.close();
  }(engine, ch, most));
  engine.spawn([](Engine& e, Channel<int>& ch, size_t& most,
                  std::vector<int>& received) -> Task<> {
    co_await e.delay(1.0);
    while (auto v = co_await ch.recv()) {
      received.push_back(*v);
      most = std::max(most, ch.queue_capacity());
      co_await e.delay(1.0);
    }
  }(engine, ch, most, received));
  engine.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(most, 4u);
  EXPECT_EQ(ch.queue_capacity(), 4u);  // buffer 2, sender 1, receiver 1
}

TEST(ChannelTest, ReceiverBlocksUntilSend) {
  Engine engine;
  Channel<std::string> ch(engine, 1);
  double received_at = -1;
  engine.spawn([](Engine& e, Channel<std::string>& ch,
                  double& received_at) -> Task<> {
    auto v = co_await ch.recv();
    EXPECT_TRUE(v.has_value());
    EXPECT_EQ(*v, "hi");
    received_at = e.now();
  }(engine, ch, received_at));
  engine.spawn([](Engine& e, Channel<std::string>& ch) -> Task<> {
    co_await e.delay(7.0);
    co_await ch.send("hi");
  }(engine, ch));
  engine.run();
  EXPECT_DOUBLE_EQ(received_at, 7.0);
}

TEST(ChannelTest, CloseWakesParkedReceivers) {
  Engine engine;
  Channel<int> ch(engine, 1);
  int nullopts = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Channel<int>& ch, int& nullopts) -> Task<> {
      auto v = co_await ch.recv();
      if (!v) ++nullopts;
    }(ch, nullopts));
  }
  engine.spawn([](Engine& e, Channel<int>& ch) -> Task<> {
    co_await e.delay(1.0);
    ch.close();
  }(engine, ch));
  engine.run();
  EXPECT_EQ(nullopts, 3);
}

TEST(ChannelTest, CloseDrainsBufferFirst) {
  Engine engine;
  Channel<int> ch(engine, 4);
  std::vector<int> got;
  int nullopts = 0;
  engine.spawn([](Channel<int>& ch) -> Task<> {
    co_await ch.send(1);
    co_await ch.send(2);
    ch.close();
  }(ch));
  engine.spawn([](Engine& e, Channel<int>& ch, std::vector<int>& got,
                  int& nullopts) -> Task<> {
    co_await e.delay(1.0);
    while (true) {
      auto v = co_await ch.recv();
      if (!v) {
        ++nullopts;
        break;
      }
      got.push_back(*v);
    }
  }(engine, ch, got, nullopts));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(nullopts, 1);
}

TEST(ChannelTest, MultipleProducersConsumers) {
  Engine engine;
  Channel<int> ch(engine, 3);
  WaitGroup producers(engine);
  std::vector<int> received;
  for (int p = 0; p < 4; ++p) {
    producers.add();
    engine.spawn(
        [](Engine& e, Channel<int>& ch, WaitGroup& wg, int base) -> Task<> {
          for (int i = 0; i < 10; ++i) {
            co_await e.delay(0.01);
            co_await ch.send(base + i);
          }
          wg.done();
        }(engine, ch, producers, p * 100));
  }
  engine.spawn([](Channel<int>& ch, WaitGroup& wg) -> Task<> {
    co_await wg.wait();
    ch.close();
  }(ch, producers));
  for (int c = 0; c < 2; ++c) {
    engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
      while (auto v = co_await ch.recv()) received.push_back(*v);
    }(ch, received));
  }
  engine.run();
  EXPECT_EQ(received.size(), 40u);
  EXPECT_EQ(engine.live_processes(), 0);
}

// Property-style sweep: N producers × M items delivered exactly once for a
// range of channel capacities.
class ChannelSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChannelSweepTest, ExactlyOnceDelivery) {
  const size_t capacity = GetParam();
  Engine engine;
  Channel<int> ch(engine, capacity);
  WaitGroup producers(engine);
  std::vector<int> received;
  constexpr int kProducers = 3, kItems = 25;
  for (int p = 0; p < kProducers; ++p) {
    producers.add();
    engine.spawn(
        [](Channel<int>& ch, WaitGroup& wg, int p) -> Task<> {
          for (int i = 0; i < kItems; ++i) co_await ch.send(p * kItems + i);
          wg.done();
        }(ch, producers, p));
  }
  engine.spawn([](Channel<int>& ch, WaitGroup& wg) -> Task<> {
    co_await wg.wait();
    ch.close();
  }(ch, producers));
  engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
    while (auto v = co_await ch.recv()) received.push_back(*v);
  }(ch, received));
  engine.run();
  ASSERT_EQ(received.size(), size_t(kProducers * kItems));
  std::vector<int> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kProducers * kItems; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(engine.live_processes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChannelSweepTest,
                         ::testing::Values(1, 2, 3, 7, 64));

}  // namespace
}  // namespace hmr::sim

namespace hmr::sim {
namespace {

TEST(ResourceTest, TryAcquireNonBlocking) {
  Engine engine;
  Resource r(engine, 2, "slots");
  EXPECT_TRUE(r.try_acquire(2));
  EXPECT_FALSE(r.try_acquire(1));
  r.release(2);
  EXPECT_TRUE(r.try_acquire(1));
  r.release(1);
}

TEST(ResourceTest, TryAcquireYieldsToQueuedWaiters) {
  Engine engine;
  Resource r(engine, 1, "slot");
  bool waiter_got_it = false;
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    co_await r.acquire();          // takes the only unit
    co_await e.delay(1.0);
    r.release();
    co_return;
  }(engine, r));
  engine.spawn([](Resource& r, bool& got) -> Task<> {
    co_await r.acquire();          // queues behind the holder
    got = true;
    r.release();
  }(r, waiter_got_it));
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    co_await e.delay(0.5);
    // A queued waiter exists: try_acquire must not jump the line even
    // after the release happens.
    EXPECT_FALSE(r.try_acquire(1));
    co_return;
  }(engine, r));
  engine.run();
  EXPECT_TRUE(waiter_got_it);
}

TEST(ChannelTest, TrySendRespectsCapacityAndClose) {
  Engine engine;
  Channel<int> ch(engine, 2);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_FALSE(ch.try_send(3));  // full
  EXPECT_EQ(ch.try_recv().value(), 1);
  EXPECT_TRUE(ch.try_send(3));
  ch.close();
  EXPECT_FALSE(ch.try_send(4));  // closed
}

TEST(ChannelTest, TrySendHandsOffToParkedReceiver) {
  Engine engine;
  Channel<int> ch(engine, 1);
  int got = -1;
  engine.spawn([](Channel<int>& ch, int& got) -> Task<> {
    auto v = co_await ch.recv();
    got = v.value_or(-2);
  }(ch, got));
  engine.spawn([](Channel<int>& ch) -> Task<> {
    EXPECT_TRUE(ch.try_send(42));
    co_return;
  }(ch));
  engine.run();
  EXPECT_EQ(got, 42);
}

TEST(ChannelTest, TryRecvDrainsBuffer) {
  Engine engine;
  Channel<int> ch(engine, 4);
  EXPECT_FALSE(ch.try_recv().has_value());
  EXPECT_TRUE(ch.try_send(7));
  EXPECT_EQ(ch.try_recv().value(), 7);
  EXPECT_FALSE(ch.try_recv().has_value());
}

// ------------------------------------------------------------------ fifo

TEST(FifoTest, OwnsNoStorageUntilFirstPush) {
  Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 0u);
  fifo.push_back(1);
  EXPECT_GT(fifo.capacity(), 0u);
  fifo.pop_front();
  EXPECT_TRUE(fifo.empty());
  EXPECT_GT(fifo.capacity(), 0u);  // never shrinks

  Engine engine;
  Channel<std::string> ch(engine, 64);
  EXPECT_EQ(ch.queue_capacity(), 0u);
  EXPECT_TRUE(ch.try_send("x"));
  EXPECT_GT(ch.queue_capacity(), 0u);
}

TEST(FifoTest, OrderSurvivesWrapAroundAndGrowthWhileWrapped) {
  // Capacity 0 -> 1 -> 2 -> 4 -> 8. Before each growth one element is
  // popped and the ring refilled, so from two slots on the ring grows
  // while its contents wrap past the end.
  Fifo<int> fifo;
  int next_in = 0;
  int next_out = 0;
  EXPECT_EQ(fifo.capacity(), 0u);
  fifo.push_back(next_in++);
  EXPECT_EQ(fifo.capacity(), 1u);
  for (size_t capacity = 1; capacity < 8; capacity *= 2) {
    EXPECT_EQ(fifo.front(), next_out++);
    fifo.pop_front();
    while (fifo.size() < capacity) {
      fifo.push_back(next_in++);
      EXPECT_EQ(fifo.capacity(), capacity);  // refilled, not grown
    }
    fifo.push_back(next_in++);
    EXPECT_EQ(fifo.capacity(), 2 * capacity);
    EXPECT_EQ(fifo.back(), next_in - 1);
  }
  while (!fifo.empty()) {
    EXPECT_EQ(fifo.front(), next_out++);
    fifo.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(fifo.capacity(), 8u);  // never shrinks
}

TEST(FifoTest, MatchesDequeUnderInterleavedPushPop) {
  Fifo<int> fifo;
  std::deque<int> reference;
  std::uint64_t state = 12345;
  for (int step = 0; step < 20000; ++step) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Pushes slightly outnumber pops, so the ring grows across wraps.
    if (reference.empty() || (state >> 60) < 9) {
      fifo.push_back(step);
      reference.push_back(step);
    } else {
      ASSERT_EQ(fifo.front(), reference.front());
      fifo.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(fifo.size(), reference.size());
  }
  while (!reference.empty()) {
    ASSERT_EQ(fifo.front(), reference.front());
    fifo.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int i = 0; i < 37; ++i) fifo.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 37; ++i) {
    ASSERT_NE(fifo.front(), nullptr);
    EXPECT_EQ(*fifo.front(), i);
    std::unique_ptr<int> taken = std::move(fifo.front());
    fifo.pop_front();
    EXPECT_EQ(*taken, i);
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, PopAndDestructionReleasePayloads) {
  auto payload = std::make_shared<int>(7);
  {
    Fifo<std::shared_ptr<int>> fifo;
    for (int i = 0; i < 10; ++i) fifo.push_back(payload);  // grows twice
    EXPECT_EQ(payload.use_count(), 11);
    fifo.pop_front();
    fifo.pop_front();
    EXPECT_EQ(payload.use_count(), 9);
    // Pushing an element of the ring itself, at the growth point.
    while (fifo.size() < fifo.capacity()) fifo.push_back(payload);
    const long before = payload.use_count();
    fifo.push_back(fifo.front());
    EXPECT_EQ(payload.use_count(), before + 1);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

}  // namespace
}  // namespace hmr::sim

#include "sim/trace.h"

namespace hmr::sim {
namespace {

TEST(TracerTest, RecordsSpansWithSimTime) {
  Engine engine;
  Tracer tracer(engine);
  engine.set_tracer(&tracer);
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "host0", "map", "map_0");
    co_await e.delay(2.0);
  }(engine));
  engine.run();
  EXPECT_EQ(tracer.size(), 1u);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"map_0\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000.000"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"host0\""), std::string::npos);
}

TEST(TracerTest, NullTracerIsFree) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "x", "y", "z");  // tracer() == null
    co_await e.delay(1.0);
  }(engine));
  engine.run();
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(TracerTest, JsonEscapesSpecials) {
  Engine engine;
  Tracer tracer(engine);
  tracer.instant("tr\"ack", "cat", "na\\me\nline");
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("tr\\\"ack"), std::string::npos);
  EXPECT_NE(json.find("na\\\\me\\nline"), std::string::npos);
}

TEST(TracerTest, EventCapCountsEveryLaterEventAsDropped) {
  Engine engine;
  Tracer tracer(engine, /*max_events=*/3);
  for (int i = 0; i < 5; ++i) tracer.instant("track", "cat", "evt");
  tracer.complete("track", "cat", "span", 0.0);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(engine.metrics().counter_value("trace.dropped_events"), 3);
}

// Regression tests for Span teardown ordering. In the usual scope order
// (`Engine e; Tracer t(e);`) the tracer dies before the engine, and the
// engine then destroys detached frames whose Spans still point at the
// dead tracer. The span must detect this (via the engine's tracer
// identity) and drop the record instead of touching freed memory.
TEST(SpanLifetimeTest, SpanInLeakedFrameSurvivesTracerDeath) {
  {
    Engine engine;
    Tracer tracer(engine);
    engine.set_tracer(&tracer);
    engine.spawn([](Engine& e) -> Task<> {
      auto span = maybe_span(e.tracer(), "host", "cat", "stuck");
      co_await e.delay(1e9);  // never resumed; frame dies in ~Engine
    }(engine));
    engine.run_until(1.0);
    EXPECT_EQ(engine.live_processes(), 1);
  }  // ~Tracer detaches, then ~Engine destroys the frame: span is a no-op
  SUCCEED();
}

TEST(SpanLifetimeTest, TracerDetachesFromEngineOnDestruction) {
  Engine engine;
  {
    Tracer tracer(engine);
    engine.set_tracer(&tracer);
    EXPECT_EQ(engine.tracer(), &tracer);
  }
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(SpanLifetimeTest, ReplacedTracerDoesNotReceiveStaleSpans) {
  Engine engine;
  Tracer first(engine);
  Tracer second(engine);
  engine.set_tracer(&first);
  {
    auto span = first.span("t", "c", "from_first");
    // The tracer is swapped while the span is open; on close, the span
    // must record to neither (its tracer is no longer installed).
    engine.set_tracer(&second);
  }
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(second.size(), 0u);
  engine.set_tracer(nullptr);
}

TEST(SpanLifetimeTest, SpanStillRecordsInNormalOperation) {
  Engine engine;
  Tracer tracer(engine);
  engine.set_tracer(&tracer);
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "host", "cat", "work");
    co_await e.delay(2.0);
  }(engine));
  engine.run();
  ASSERT_EQ(tracer.size(), 1u);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000.000"), std::string::npos);
}

TEST(TracerTest, InterningKeepsLabelsStable) {
  Engine engine;
  Tracer tracer(engine);
  // Pass labels through short-lived buffers: the tracer must own copies.
  for (int i = 0; i < 3; ++i) {
    const std::string track = "track" + std::to_string(i % 2);
    tracer.instant(track, "cat", "evt");
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"track0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"track1\""), std::string::npos);
  EXPECT_EQ(tracer.size(), 3u);
}

TEST(TracerTest, TracksGetStableThreadIds) {
  Engine engine;
  Tracer tracer(engine);
  tracer.instant("b", "c", "1");
  tracer.instant("a", "c", "2");
  tracer.instant("b", "c", "3");
  const std::string json = tracer.to_chrome_json();
  // Two thread_name metadata records, three instants.
  size_t count = 0, pos = 0;
  while ((pos = json.find("thread_name", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace hmr::sim

namespace hmr::sim {
namespace {

TEST(EngineTest, DetachedExceptionAborts) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.delay(0.1);
    throw std::runtime_error("unhandled in daemon");
  }(engine));
  EXPECT_DEATH(engine.run(), "detached sim task threw");
}

TEST(EngineTest, NegativeDelayAborts) {
  Engine engine;
  // Tasks are lazy: the bad delay fires when the engine runs the task.
  engine.spawn([](Engine& e) -> Task<> { co_await e.delay(-1.0); }(engine));
  EXPECT_DEATH(engine.run(), "negative delay");
}

TEST(ResourceTest, OverReleaseAborts) {
  Engine engine;
  Resource r(engine, 1, "x");
  EXPECT_DEATH(r.release(), "over-release");
}

TEST(ChannelTest, SendOnClosedAborts) {
  Engine engine;
  Channel<int> ch(engine, 1);
  ch.close();
  engine.spawn([](Channel<int>& ch) -> Task<> { co_await ch.send(1); }(ch));
  EXPECT_DEATH(engine.run(), "closed channel");
}

}  // namespace
}  // namespace hmr::sim
