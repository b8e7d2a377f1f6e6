// PrefetchCache — the intermediate-data cache at the heart of the
// paper's contribution (§III-B3).
//
// A byte-budgeted cache of map outputs on the TaskTracker side, keyed
// by MapOutputId. Eviction picks the lowest (priority, recency) victim,
// so demand-boosted entries (requested by reducers after a miss) outlive
// speculatively prefetched ones. The budget is expressed in *modeled*
// bytes — it models the TaskTracker heap-size limit the paper exposes
// through mapred.local.caching configuration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
// lint:ignore(determinism): entries_ is looked up; ranks_ orders eviction
#include <unordered_map>
#include <utility>

#include "dataplane/segment.h"

namespace hmr::dataplane {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;
  // High-water mark of used_bytes(); survives clear().
  std::uint64_t peak_bytes = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

class PrefetchCache {
 public:
  explicit PrefetchCache(std::uint64_t capacity_bytes);

  // Inserts an entry of `charged_bytes` modeled bytes, evicting
  // lower-ranked entries to fit. Returns false (and counts a rejection)
  // if the entry alone exceeds the budget or every resident entry
  // outranks it. Precondition: `key` is not resident (Debug builds check
  // it); a resident entry is raised with boost() instead.
  bool put(MapOutputId key, std::shared_ptr<const MapOutput> value,
           std::uint64_t charged_bytes, int priority = 0);

  // Hit: bumps recency and returns the value. Miss: returns nullptr.
  std::shared_ptr<const MapOutput> get(MapOutputId key);

  // Peek without touching recency or stats.
  bool contains(MapOutputId key) const;

  // Demand prioritisation: raise the entry's priority (if resident) so
  // follow-up requests for a hot map output keep hitting (§III-B3: after
  // a miss, re-cache "with more priority").
  void boost(MapOutputId key, int priority);

  bool erase(MapOutputId key);
  void clear();

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  size_t entries() const { return entries_.size(); }
  // The cache's only count of its events; its owner books them.
  const CacheStats& stats() const { return stats_; }

  // Accounting invariant: used_bytes() equals the sum of resident
  // charged bytes, the rank index mirrors the entry map, and usage never
  // exceeds the budget. Debug builds check this after every mutation.
  bool invariant_holds() const;

 private:
  struct Entry {
    std::shared_ptr<const MapOutput> value;
    std::uint64_t bytes = 0;
    int priority = 0;
    std::uint64_t tick = 0;
  };
  // Eviction rank: (priority, tick) ascending — coldest first. Every
  // put, hit and boost draws a fresh tick, so no two entries tie.
  using Rank = std::pair<int, std::uint64_t>;

  static Rank rank_of(const Entry& entry) {
    return {entry.priority, entry.tick};
  }
  void unrank(const Entry& entry) { ranks_.erase(rank_of(entry)); }
  // Gives a resident entry a fresh tick (and `priority`), moving its
  // rank-index node instead of freeing and allocating one.
  void rerank(Entry& entry, int priority) {
    auto node = ranks_.extract(rank_of(entry));
    entry.priority = priority;
    entry.tick = next_tick_++;
    node.key() = rank_of(entry);
    ranks_.insert(std::move(node));
  }
  // Evicts victims ranked strictly below `incoming` until `needed` fits.
  bool make_room(std::uint64_t needed, const Rank& incoming);
  void check_invariant() const;

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t next_tick_ = 1;
  // lint:ignore(determinism): eviction order comes from ranks_
  std::unordered_map<MapOutputId, Entry> entries_;
  std::map<Rank, MapOutputId> ranks_;
  CacheStats stats_;
};

}  // namespace hmr::dataplane
