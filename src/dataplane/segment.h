// Map-output files: sorted, partitioned runs with a per-partition index,
// the moral equivalent of Hadoop's file.out + file.out.index pair.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "dataplane/kv.h"
#include "dataplane/partitioner.h"

namespace hmr::dataplane {

struct IndexEntry {
  std::uint64_t offset = 0;    // byte offset into data
  std::uint64_t length = 0;    // serialized bytes
  std::uint64_t kv_count = 0;  // records in this partition
  std::uint32_t crc = 0;       // CRC32C of the partition's bytes, computed
                               // at spill time (DESIGN.md §6.2)
};

// One map task's complete output: every partition sorted by key.
struct MapOutput {
  std::shared_ptr<const Bytes> data;
  std::vector<IndexEntry> index;

  std::uint64_t total_bytes() const { return data ? data->size() : 0; }
  std::span<const std::uint8_t> partition_bytes(int p) const {
    const auto& e = index.at(p);
    return std::span<const std::uint8_t>(*data).subspan(e.offset, e.length);
  }
};

// A map output's cluster-wide id: the job id in the high 32 bits, the
// map id in the low 32. TaskTrackers key their served outputs by it, and
// the PrefetchCache keys its entries by it.
using MapOutputId = std::uint64_t;
inline constexpr MapOutputId map_output_id(std::uint32_t job_id,
                                           std::uint32_t map_id) {
  return (MapOutputId(job_id) << 32) | map_id;
}

// Map-side combiner: called once per distinct key with all its values;
// emits the (usually smaller) combined records.
using CombineFn = std::function<void(
    const Bytes& key, const std::vector<Bytes>& values,
    const std::function<void(KvPair)>& emit)>;

// Collects a map task's emitted pairs, then sorts each partition and
// serializes (the in-memory sort half of Hadoop's MapOutputBuffer).
//
// Record storage is arena-backed: add() copies the key/value bytes into
// an internal Arena and keeps only 32-byte KvViews in the partition
// buckets, so the sort moves views instead of vector pairs and the
// per-record heap allocations of the old std::vector<KvPair> layout are
// gone. build() resets the arena; slabs are retained, so repeated
// spills from one builder reuse the same memory.
class MapOutputBuilder {
 public:
  MapOutputBuilder(int num_partitions, const Partitioner& partitioner);

  // Copies the record's bytes into the builder's arena; the argument
  // may be a temporary.
  void add(const KvPair& pair) { add(KvView(pair)); }
  void add(const KvView& view);
  std::uint64_t pending_bytes() const { return pending_bytes_; }
  std::uint64_t pending_records() const;

  // Sorts and serializes; the builder resets to empty. A non-null
  // combiner runs over each sorted partition first (Hadoop's map-side
  // combine), shrinking what the shuffle must move.
  MapOutput build(const CombineFn* combiner = nullptr);

 private:
  const Partitioner& partitioner_;
  Arena arena_;
  std::vector<std::vector<KvView>> partitions_;
  std::uint64_t pending_bytes_ = 0;
};

// Pull interface over a sorted run of records. A returned view stays
// valid until the next call on the *same* source (or the source's
// destruction, whichever is earlier); a caller that needs it longer
// copies the bytes out.
class KvSource {
 public:
  virtual ~KvSource() = default;
  // False at end of stream.
  virtual bool next_view(KvView* out) = 0;
};

// Sequential reader over serialized records: a whole buffer, one
// partition of it, or one fetched chunk. Keeps shared ownership of the
// backing buffer, so callers can slice freely and a view it returns
// stays valid for as long as the reader lives.
class SegmentReader final : public KvSource {
 public:
  explicit SegmentReader(std::shared_ptr<const Bytes> backing);
  SegmentReader(std::shared_ptr<const Bytes> backing,
                std::span<const std::uint8_t> slice);
  // Zero-copy: the view aliases the backing buffer. Aborts on corrupt
  // data.
  bool next_view(KvView* out) override;
  // Reads up to max_pairs or max_bytes (whichever first) raw record bytes
  // starting at the cursor — the unit the OSU-IB responder ships.
  std::span<const std::uint8_t> take_chunk(std::uint64_t max_pairs,
                                           std::uint64_t max_bytes,
                                           std::uint64_t* pairs_out);
  bool exhausted() const { return pos_ == slice_.size(); }

 private:
  std::shared_ptr<const Bytes> backing_;
  std::span<const std::uint8_t> slice_;
  size_t pos_ = 0;
};

}  // namespace hmr::dataplane
