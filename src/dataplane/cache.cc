#include "dataplane/cache.h"

#include <algorithm>

#include "common/status.h"

namespace hmr::dataplane {

PrefetchCache::PrefetchCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool PrefetchCache::invariant_holds() const {
  if (ranks_.size() != entries_.size()) return false;
  if (used_ > capacity_) return false;
  std::uint64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.bytes;
    const auto rank = ranks_.find(rank_of(entry));
    if (rank == ranks_.end() || rank->second != key) return false;
  }
  return total == used_;
}

void PrefetchCache::check_invariant() const {
#ifndef NDEBUG
  HMR_CHECK_MSG(invariant_holds(), "PrefetchCache accounting out of sync");
#endif
}

bool PrefetchCache::make_room(std::uint64_t needed, const Rank& incoming) {
  if (needed > capacity_) return false;
  // used_ <= capacity_ by the accounting invariant; guard the unsigned
  // subtraction anyway so a future bug rejects instead of wrapping.
  HMR_CHECK(used_ <= capacity_);
  while (capacity_ - used_ < needed) {
    HMR_CHECK(!ranks_.empty());
    const auto victim = ranks_.begin();
    if (!(victim->first < incoming)) return false;  // everything outranks us
    auto it = entries_.find(victim->second);
    HMR_CHECK(it != entries_.end());
    used_ -= it->second.bytes;
    ranks_.erase(victim);
    entries_.erase(it);
    ++stats_.evictions;
  }
  return true;
}

bool PrefetchCache::put(MapOutputId key,
                        std::shared_ptr<const MapOutput> value,
                        std::uint64_t charged_bytes, int priority) {
#ifndef NDEBUG
  HMR_CHECK_MSG(!contains(key), "PrefetchCache::put on a resident key");
#endif
  if (!make_room(charged_bytes, Rank{priority, next_tick_})) {
    ++stats_.rejected;
    check_invariant();
    return false;
  }
  Entry entry;
  entry.value = std::move(value);
  entry.bytes = charged_bytes;
  entry.priority = priority;
  entry.tick = next_tick_++;
  used_ += charged_bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, used_);
  ranks_.emplace(rank_of(entry), key);
  entries_.emplace(key, std::move(entry));
  ++stats_.insertions;
  check_invariant();
  return true;
}

std::shared_ptr<const MapOutput> PrefetchCache::get(MapOutputId key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  rerank(it->second, it->second.priority);
  check_invariant();
  return it->second.value;
}

bool PrefetchCache::contains(MapOutputId key) const {
  return entries_.find(key) != entries_.end();
}

void PrefetchCache::boost(MapOutputId key, int priority) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (priority <= it->second.priority) return;
  rerank(it->second, priority);
  check_invariant();
}

bool PrefetchCache::erase(MapOutputId key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  unrank(it->second);
  used_ -= it->second.bytes;
  entries_.erase(it);
  check_invariant();
  return true;
}

void PrefetchCache::clear() {
  entries_.clear();
  ranks_.clear();
  used_ = 0;
  check_invariant();
}

}  // namespace hmr::dataplane
