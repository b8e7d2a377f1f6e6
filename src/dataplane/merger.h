// K-way merge over sorted record streams — the reducer's merge phase.
//
// LoserTree picks the next record among k sorted sources. StreamMerger
// is the synchronous k-way merge built on it, used by the vanilla
// two-level merger and by final merge passes. The shuffle engines'
// *streaming* merges (asynchronous refills, §III-B2) live in the engine
// code but reuse the same tree and sources.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dataplane/kv.h"
#include "dataplane/segment.h"

namespace hmr::dataplane {

// The earlier name of the reader over serialized record bytes, kept
// for the perfbench harness.
using BytesSource = SegmentReader;

// Tree of losers over k sources (Knuth, TAOCP Vol. 3 §5.4.1). The
// winner is the source with the smallest (key, source index), a total
// order, so ties break toward the lower index. Each internal node keeps
// the loser of its match; replacing the winner's key replays only the
// winner's leaf-to-root path, one match per level. Each leaf caches its
// key's first 8 bytes, zero-padded, as a big-endian integer: keys whose
// prefixes differ compare as integers without touching key memory.
//
// Usage: set() or set_exhausted() every source, build(), then read
// winner() and, after set()/set_exhausted() on the winner, replay().
// The tree borrows keys: a span passed to set() must stay valid until
// that source is set again. Matches read only the current keys, so the
// caller may move the winner's record away before setting its next key.
class LoserTree {
 public:
  explicit LoserTree(size_t sources) : leaves_(sources), nodes_(sources) {}

  void set(size_t source, std::span<const std::uint8_t> key);
  void set_exhausted(size_t source);
  // Plays every match; O(k).
  void build();
  // True once every source is exhausted.
  bool empty() const {
    return leaves_.empty() || leaves_[nodes_[0]].exhausted;
  }
  size_t winner() const { return nodes_[0]; }
  // Replays the winner's path after its key changed; O(log k).
  void replay();

 private:
  struct Leaf {
    std::uint64_t prefix = ~std::uint64_t{0};
    std::span<const std::uint8_t> key;
    bool exhausted = true;
  };
  bool beats(std::uint32_t a, std::uint32_t b) const;

  std::vector<Leaf> leaves_;
  // nodes_[0] is the winner; nodes_[n], 1 <= n < k, the loser at
  // internal node n, whose children are 2n and 2n + 1 (leaf i is node
  // k + i).
  std::vector<std::uint32_t> nodes_;
};

// Loser-tree k-way merge; yields globally sorted output if every input
// is sorted. The tree borrows keys from each source's current view; a
// source is refilled only on the call *after* its record was yielded,
// so a view handed out by next_view() honors the KvSource lifetime
// contract even for scratch-backed sources.
class StreamMerger final : public KvSource {
 public:
  explicit StreamMerger(std::vector<std::unique_ptr<KvSource>> sources);

  bool next_view(KvView* out) override;
  std::uint64_t records_merged() const { return records_merged_; }

 private:
  static constexpr size_t kNoRefill = size_t(-1);

  void refill(size_t source);

  std::vector<std::unique_ptr<KvSource>> sources_;
  std::vector<KvView> heads_;  // each source's current record
  LoserTree tree_;
  // Source whose view was yielded by the previous next_view() call and
  // must be refilled before the next match.
  size_t pending_refill_ = kNoRefill;
  std::uint64_t records_merged_ = 0;
};

}  // namespace hmr::dataplane
