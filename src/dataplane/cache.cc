#include "dataplane/cache.h"

#include "common/status.h"

namespace hmr::dataplane {

PrefetchCache::PrefetchCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

void PrefetchCache::attach_metrics(MetricsRegistry& registry) {
  hits_metric_ = &registry.counter("cache.hits");
  misses_metric_ = &registry.counter("cache.misses");
  insertions_metric_ = &registry.counter("cache.insertions");
  evictions_metric_ = &registry.counter("cache.evictions");
  rejected_metric_ = &registry.counter("cache.rejected");
  used_metric_ = &registry.gauge("cache.used_bytes");
  // Carry over anything counted before attachment.
  hits_metric_->add(std::int64_t(stats_.hits));
  misses_metric_->add(std::int64_t(stats_.misses));
  insertions_metric_->add(std::int64_t(stats_.insertions));
  evictions_metric_->add(std::int64_t(stats_.evictions));
  rejected_metric_->add(std::int64_t(stats_.rejected));
  sync_used_gauge();
}

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
    if (evictions_metric_ != nullptr) evictions_metric_->add();
  }
  return true;
}

bool PrefetchCache::put(MapOutputId key,
                        std::shared_ptr<const MapOutput> value,
                        std::uint64_t charged_bytes, int priority) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place: the old charge comes off the budget before
    // make_room runs, and the entry leaves the rank index so it can
    // never evict itself while making room for its own new size.
    unrank(it->second);
    used_ -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.bytes = 0;  // re-charged below
    priority = std::max(priority, it->second.priority);
    if (!make_room(charged_bytes, Rank{priority, next_tick_})) {
      entries_.erase(it);
      ++stats_.rejected;
      if (rejected_metric_ != nullptr) rejected_metric_->add();
      sync_used_gauge();
      check_invariant();
      return false;
    }
    // make_room erased only other entries, so `it` is still valid.
    it->second.bytes = charged_bytes;
    it->second.priority = priority;
    it->second.tick = next_tick_++;
    used_ += charged_bytes;
    ranks_.emplace(rank_of(it->second), key);
    ++stats_.insertions;
    if (insertions_metric_ != nullptr) insertions_metric_->add();
    sync_used_gauge();
    check_invariant();
    return true;
  }

  if (!make_room(charged_bytes, Rank{priority, next_tick_})) {
    ++stats_.rejected;
    if (rejected_metric_ != nullptr) rejected_metric_->add();
    sync_used_gauge();
    check_invariant();
    return false;
  }
  Entry entry;
  entry.value = std::move(value);
  entry.bytes = charged_bytes;
  entry.priority = priority;
  entry.tick = next_tick_++;
  used_ += charged_bytes;
  ranks_.emplace(rank_of(entry), key);
  entries_.emplace(key, std::move(entry));
  ++stats_.insertions;
  if (insertions_metric_ != nullptr) insertions_metric_->add();
  sync_used_gauge();
  check_invariant();
  return true;
}

std::shared_ptr<const MapOutput> PrefetchCache::get(MapOutputId key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (misses_metric_ != nullptr) misses_metric_->add();
    return nullptr;
  }
  ++stats_.hits;
  if (hits_metric_ != nullptr) hits_metric_->add();
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
  sync_used_gauge();
  check_invariant();
  return true;
}

void PrefetchCache::clear() {
  entries_.clear();
  ranks_.clear();
  used_ = 0;
  sync_used_gauge();
  check_invariant();
}

}  // namespace hmr::dataplane
