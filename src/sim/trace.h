// Execution tracing: records named spans of simulated time and exports
// the Chrome/Perfetto trace-event JSON format, so a whole MapReduce job
// can be inspected on a timeline (load trace.json into ui.perfetto.dev
// or chrome://tracing).
//
// Tracing is opt-in per Engine (set_tracer) and zero-cost when off: call
// sites guard with `if (auto* t = engine.tracer())`.
//
// Track/category/name strings are interned: an event stores three
// 32-bit ids instead of three heap-allocated std::strings, so the
// per-span cost after the first occurrence of a label is three ordered
// map lookups and a 32-byte vector append — no allocation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace hmr::sim {

class Tracer {
 public:
  // The event buffer would otherwise grow without bound on long
  // simulations; past `max_events` new events are dropped and counted
  // (trace.dropped_events in the engine's metrics). 0 = unbounded.
  static constexpr std::uint64_t kDefaultMaxEvents = 1'000'000;

  explicit Tracer(Engine& engine,
                  std::uint64_t max_events = kDefaultMaxEvents)
      : engine_(engine),
        max_events_(max_events),
        dropped_metric_(&engine.metrics().counter("trace.dropped_events")) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  // A Tracer must not leave a dangling Engine::tracer() behind: live
  // Spans (suspended in coroutine frames the engine tears down later)
  // check engine->tracer() == their tracer before recording, which is
  // only safe if destruction detaches. See SpanLifetime tests.
  ~Tracer() {
    if (engine_.tracer() == this) engine_.set_tracer(nullptr);
  }

  // A complete span on `track` (e.g. a host or task lane) from `start`
  // to the current simulated time.
  void complete(std::string_view track, std::string_view category,
                std::string_view name, double start_time) {
    if (at_capacity()) return;
    events_.push_back(Event{intern(track), intern(category), intern(name),
                            start_time, engine_.now(), /*instant=*/false});
  }
  // A zero-duration marker.
  void instant(std::string_view track, std::string_view category,
               std::string_view name) {
    if (at_capacity()) return;
    events_.push_back(Event{intern(track), intern(category), intern(name),
                            engine_.now(), engine_.now(),
                            /*instant=*/true});
  }

  size_t size() const { return events_.size(); }
  std::uint64_t max_events() const { return max_events_; }
  Engine& engine() const { return engine_; }

  // Chrome trace-event JSON ("traceEvents" array form). Tracks become
  // named threads of one process; timestamps are microseconds of
  // simulated time.
  std::string to_chrome_json() const;

  // RAII span helper. Holds interned ids, not strings, so moving or
  // destroying a Span never allocates. The destructor records only if
  // the engine still points at the same tracer and is not tearing down:
  // spans living in detached coroutine frames get destroyed during
  // ~Engine (possibly after the Tracer itself is gone), and must
  // degrade to a no-op instead of touching freed memory.
  class Span {
   public:
    Span(Tracer* tracer, std::string_view track, std::string_view category,
         std::string_view name)
        : tracer_(tracer),
          engine_(tracer != nullptr ? &tracer->engine_ : nullptr),
          track_(tracer != nullptr ? tracer->intern(track) : 0),
          category_(tracer != nullptr ? tracer->intern(category) : 0),
          name_(tracer != nullptr ? tracer->intern(name) : 0),
          start_(tracer != nullptr ? tracer->engine_.now() : 0.0) {}
    Span(Span&& other) noexcept
        : tracer_(std::exchange(other.tracer_, nullptr)),
          engine_(other.engine_),
          track_(other.track_),
          category_(other.category_),
          name_(other.name_),
          start_(other.start_) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() {
      if (tracer_ == nullptr) return;
      // The engine outlives every span (spans live in frames the engine
      // owns), so these reads are safe; the tracer may already be dead,
      // so it must not be touched until the identity check passes.
      if (engine_->shutting_down() || engine_->tracer() != tracer_) return;
      tracer_->complete_ids(track_, category_, name_, start_);
    }

   private:
    Tracer* tracer_;
    Engine* engine_;
    std::uint32_t track_;
    std::uint32_t category_;
    std::uint32_t name_;
    double start_;
  };

  Span span(std::string_view track, std::string_view category,
            std::string_view name) {
    return Span(this, track, category, name);
  }

 private:
  struct Event {
    std::uint32_t track;
    std::uint32_t category;
    std::uint32_t name;
    double start;
    double end;
    bool instant;
  };

  std::uint32_t intern(std::string_view s) {
    const auto it = intern_ids_.find(s);
    if (it != intern_ids_.end()) return it->second;
    const auto id = std::uint32_t(strings_.size());
    strings_.emplace_back(s);
    intern_ids_.emplace(strings_.back(), id);
    return id;
  }

  void complete_ids(std::uint32_t track, std::uint32_t category,
                    std::uint32_t name, double start_time) {
    if (at_capacity()) return;
    events_.push_back(
        Event{track, category, name, start_time, engine_.now(),
              /*instant=*/false});
  }

  bool at_capacity() {
    if (max_events_ == 0 || events_.size() < max_events_) return false;
    dropped_metric_->add();
    return true;
  }

  Engine& engine_;
  std::uint64_t max_events_;
  Counter* dropped_metric_;
  std::vector<Event> events_;
  // id -> string and string -> id; the map keys are copies (node-stable),
  // heterogeneous lookup avoids temporary strings on the hot path.
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t, std::less<>> intern_ids_;
};

// Null-safe RAII helper: no tracer, no cost.
inline Tracer::Span maybe_span(Tracer* tracer, std::string_view track,
                               std::string_view category,
                               std::string_view name) {
  return Tracer::Span(tracer, track, category, name);
}

}  // namespace hmr::sim
