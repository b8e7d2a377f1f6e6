#include "dataplane/merger.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hmr::dataplane {

BytesSource::BytesSource(std::shared_ptr<const Bytes> backing)
    : reader_(backing, backing ? std::span<const std::uint8_t>(*backing)
                               : std::span<const std::uint8_t>{}) {}

BytesSource::BytesSource(std::shared_ptr<const Bytes> backing,
                         std::span<const std::uint8_t> slice)
    : reader_(std::move(backing), slice) {}

bool BytesSource::next(KvPair* out) { return reader_.next(out); }

bool BytesSource::next_view(KvView* out) { return reader_.next_view(out); }

bool VectorSource::next(KvPair* out) {
  if (pos_ >= pairs_.size()) return false;
  *out = std::move(pairs_[pos_++]);
  return true;
}

bool VectorSource::next_view(KvView* out) {
  if (pos_ >= pairs_.size()) return false;
  *out = KvView(pairs_[pos_++]);
  return true;
}

namespace {

// First 8 key bytes, zero-padded, as a big-endian integer: comparing two
// prefixes as integers orders them like compare_keys on the truncated
// keys, and equal prefixes leave the order to the full keys.
std::uint64_t key_prefix(std::span<const std::uint8_t> key) {
  std::uint64_t prefix = 0;
  if (key.size() >= 8) {
    std::memcpy(&prefix, key.data(), 8);
    if constexpr (std::endian::native == std::endian::little) {
      prefix = __builtin_bswap64(prefix);
    }
    return prefix;
  }
  for (size_t i = 0; i < key.size(); ++i) {
    prefix |= std::uint64_t(key[i]) << (56 - 8 * i);
  }
  return prefix;
}

}  // namespace

void LoserTree::set(size_t source, std::span<const std::uint8_t> key) {
  Leaf& leaf = leaves_[source];
  leaf.prefix = key_prefix(key);
  leaf.key = key;
  leaf.exhausted = false;
}

void LoserTree::set_exhausted(size_t source) { leaves_[source] = Leaf{}; }

bool LoserTree::beats(std::uint32_t a, std::uint32_t b) const {
  const Leaf& x = leaves_[a];
  const Leaf& y = leaves_[b];
  // An exhausted leaf carries the largest prefix, so the common case
  // needs no exhaustion test.
  if (x.prefix != y.prefix) return x.prefix < y.prefix;
  if (x.exhausted != y.exhausted) return y.exhausted;
  if (!x.exhausted) {
    const int c = KvLess::compare_keys(x.key, y.key);
    if (c != 0) return c < 0;
  }
  return a < b;
}

void LoserTree::build() {
  const size_t k = leaves_.size();
  if (k == 0) return;
  // Winner of every node, leaves included; internal nodes keep the loser.
  std::vector<std::uint32_t> winners(2 * k);
  for (size_t i = 0; i < k; ++i) winners[k + i] = std::uint32_t(i);
  for (size_t n = k - 1; n >= 1; --n) {
    const std::uint32_t a = winners[2 * n];
    const std::uint32_t b = winners[2 * n + 1];
    const bool a_wins = beats(a, b);
    winners[n] = a_wins ? a : b;
    nodes_[n] = a_wins ? b : a;
  }
  nodes_[0] = k == 1 ? 0 : winners[1];
}

void LoserTree::replay() {
  const size_t k = leaves_.size();
  std::uint32_t winner = nodes_[0];
  for (size_t n = (k + winner) / 2; n >= 1; n /= 2) {
    if (beats(nodes_[n], winner)) std::swap(nodes_[n], winner);
  }
  nodes_[0] = winner;
}

StreamMerger::StreamMerger(std::vector<std::unique_ptr<KvSource>> sources)
    : sources_(std::move(sources)),
      heads_(sources_.size()),
      tree_(sources_.size()) {
  for (size_t i = 0; i < sources_.size(); ++i) refill(i);
  tree_.build();
}

void StreamMerger::refill(size_t source) {
  if (sources_[source]->next_view(&heads_[source])) {
    tree_.set(source, heads_[source].key);
  } else {
    tree_.set_exhausted(source);
  }
}

bool StreamMerger::next_view(KvView* out) {
  if (pending_refill_ != kNoRefill) {
    // Deferred from the previous call: refilling earlier would have
    // invalidated the view we handed out.
    refill(pending_refill_);
    tree_.replay();
    pending_refill_ = kNoRefill;
  }
  if (tree_.empty()) return false;
  const size_t source = tree_.winner();
  *out = heads_[source];
  ++records_merged_;
  pending_refill_ = source;
  return true;
}

bool StreamMerger::next(KvPair* out) {
  KvView view;
  if (!next_view(&view)) return false;
  *out = view.to_pair();
  return true;
}

std::vector<KvPair> drain(KvSource& source) {
  std::vector<KvPair> out;
  KvPair pair;
  while (source.next(&pair)) out.push_back(std::move(pair));
  return out;
}

bool is_sorted_run(std::span<const KvPair> pairs) {
  return std::is_sorted(pairs.begin(), pairs.end(),
                        [](const KvPair& a, const KvPair& b) {
                          return KvLess::compare_keys(a.key, b.key) < 0;
                        });
}

}  // namespace hmr::dataplane
