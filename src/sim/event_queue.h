// Pending-event container for sim::Engine.
//
// Ordering contract (see DESIGN.md §"Event-queue ordering"): events are
// dispatched strictly by (timestamp, insertion sequence). The sequence
// number is unique per engine, so the key is a total order and every
// correct priority queue yields the identical dispatch sequence —
// determinism holds by construction, not by container internals.
//
// The implementation is a 4-ary implicit min-heap plus a "now-FIFO"
// fast path: an event scheduled at exactly the current time
// bypasses the heap into a plain FIFO, which costs O(1) instead of
// O(log n) against however many future timers are pending. This is the
// dominant pattern in the simulator — schedule_now() wakeups from
// channels, resources, and completed transfers all land at now().
//
// Why the FIFO preserves the ordering contract: an entry is admitted
// only when its timestamp equals now(), and the engine never advances
// now() while the FIFO is non-empty (a FIFO entry is always a minimal
// pending event, so it dispatches before any strictly-later heap
// event). Same-time events split across FIFO and heap are tie-broken by
// sequence number at pop(), exactly as a single heap would.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hmr::sim {

using Time = double;

class EventQueue {
 public:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  bool empty() const { return heap_.empty() && fifo_head_ == fifo_.size(); }
  std::size_t size() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }

  // Timestamp of the next event to dispatch; queue must be non-empty.
  // A FIFO entry is always at the minimal pending time (see above).
  Time next_at() const {
    return fifo_head_ != fifo_.size() ? fifo_[fifo_head_].at
                                      : heap_.front().at;
  }

  // `now` is the engine's current time: events landing exactly at `now`
  // take the FIFO fast path.
  void push(Time now, Event event) {
    if (event.at == now) {
      fifo_.push_back(event);
      return;
    }
    push_heap4(event);
  }

  // Removes and returns the minimal (at, seq) event; queue must be
  // non-empty.
  Event pop() {
    if (fifo_head_ != fifo_.size() && (heap_.empty() || fifo_front_wins())) {
      Event out = fifo_[fifo_head_++];
      if (fifo_head_ == fifo_.size()) {
        fifo_.clear();
        fifo_head_ = 0;
      }
      return out;
    }
    return pop_heap4();
  }

 private:
  static bool less(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  bool fifo_front_wins() const {
    return less(fifo_[fifo_head_], heap_.front());
  }

  // 4-ary implicit heap: children of i are 4i+1..4i+4. Shallower than a
  // binary heap (log4 vs log2 levels) and the four-child scan is
  // cache-friendly: one level's children share a cache line pair.
  // Insertion uses a hole, not swaps.
  void push_heap4(const Event& event) {
    std::size_t i = heap_.size();
    heap_.push_back(event);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!less(event, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = event;
  }

  Event pop_heap4() {
    Event out = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n != 0) {
      std::size_t i = 0;
      while (true) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (less(heap_[c], heap_[best])) best = c;
        }
        if (!less(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return out;
  }

  std::vector<Event> heap_;
  // FIFO of events at exactly now(); head index instead of pop_front so
  // drained prefixes cost nothing until the vector resets.
  std::vector<Event> fifo_;
  std::size_t fifo_head_ = 0;
};

}  // namespace hmr::sim
