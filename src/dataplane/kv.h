// Key-value records and their on-disk/wire codec.
//
// The serialized form follows Hadoop's IFile record layout:
// varint(key_len) varint(value_len) key value, records back to back.
// Keys compare as unsigned lexicographic byte strings, matching
// Hadoop's BytesWritable ordering (and TeraSort's 10-byte keys).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace hmr::dataplane {

// Owning record: the argument form of the user functions (MapFn,
// ReduceFn, CombineFn) and of code that builds records from scratch.
// Everything between map input and reduce output moves KvViews over
// serialized runs instead (DESIGN.md §6.3, "Arena ownership").
struct KvPair {
  Bytes key;
  Bytes value;

  std::uint64_t serialized_size() const;
  bool operator==(const KvPair& other) const = default;
};

// Non-owning record: spans into an arena, a serialized run, or a
// KvPair's buffers. Lifetime is bounded by whatever backs the spans
// (see DESIGN.md §"Arena ownership") — the dataplane sorts, merges,
// batches and writes views, avoiding the two heap allocations per
// record that owning KvPairs cost.
struct KvView {
  std::span<const std::uint8_t> key;
  std::span<const std::uint8_t> value;

  KvView() = default;
  KvView(std::span<const std::uint8_t> k, std::span<const std::uint8_t> v)
      : key(k), value(v) {}
  explicit KvView(const KvPair& pair) : key(pair.key), value(pair.value) {}

  std::uint64_t serialized_size() const;
  // Materializes an owning copy.
  KvPair to_pair() const {
    return KvPair{Bytes(key.begin(), key.end()),
                  Bytes(value.begin(), value.end())};
  }
};

// Strict-weak ordering on keys (ties broken by value for determinism).
// Works on any mix of owning pairs and views.
struct KvLess {
  bool operator()(std::span<const std::uint8_t> a_key,
                  std::span<const std::uint8_t> a_value,
                  std::span<const std::uint8_t> b_key,
                  std::span<const std::uint8_t> b_value) const {
    const int c = compare_keys(a_key, b_key);
    if (c != 0) return c < 0;
    return compare_keys(a_value, b_value) < 0;
  }
  bool operator()(const KvPair& a, const KvPair& b) const {
    return (*this)(a.key, a.value, b.key, b.value);
  }
  bool operator()(const KvView& a, const KvView& b) const {
    return (*this)(a.key, a.value, b.key, b.value);
  }
  static int compare_keys(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b);
};

KvPair make_kv(std::string_view key, std::string_view value);

// Appends the record to `writer`.
void encode_kv(const KvPair& pair, ByteWriter& writer);
void encode_kv(const KvView& view, ByteWriter& writer);
// Decodes one record; OutOfRange on truncation.
Result<KvPair> decode_kv(ByteReader& reader);
// Zero-copy decode: the view aliases the reader's underlying buffer and
// is valid only while that buffer lives.
Result<KvView> decode_kv_view(ByteReader& reader);

// Serializes a whole run; `pairs` need not be sorted.
Bytes encode_run(std::span<const KvPair> pairs);
// Decodes until the reader is exhausted into owning pairs (for code that
// inspects job output; the data path iterates decode_kv_view instead).
Result<std::vector<KvPair>> decode_run(std::span<const std::uint8_t> data);

}  // namespace hmr::dataplane
