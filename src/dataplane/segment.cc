#include "dataplane/segment.h"

#include <algorithm>

#include "common/crc32.h"

namespace hmr::dataplane {

Bytes MapOutput::encode_index() const {
  ByteWriter writer;
  writer.put_varint(index.size());
  for (const auto& entry : index) {
    writer.put_varint(entry.offset);
    writer.put_varint(entry.length);
    writer.put_varint(entry.kv_count);
    writer.put_varint(entry.crc);
  }
  return writer.take();
}

Result<std::vector<IndexEntry>> MapOutput::decode_index(
    std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  auto count = reader.varint();
  if (!count.ok()) return count.status();
  std::vector<IndexEntry> out;
  out.reserve(count.value());
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    IndexEntry entry;
    auto offset = reader.varint();
    auto length = reader.varint();
    auto kv_count = reader.varint();
    auto crc = reader.varint();
    if (!offset.ok() || !length.ok() || !kv_count.ok() || !crc.ok() ||
        crc.value() > 0xffffffffull) {
      return Status::OutOfRange("truncated map-output index");
    }
    entry.offset = offset.value();
    entry.length = length.value();
    entry.kv_count = kv_count.value();
    entry.crc = static_cast<std::uint32_t>(crc.value());
    out.push_back(entry);
  }
  return out;
}

MapOutputBuilder::MapOutputBuilder(int num_partitions,
                                   const Partitioner& partitioner)
    : partitioner_(partitioner), partitions_(num_partitions) {
  HMR_CHECK_MSG(num_partitions > 0, "need at least one partition");
}

void MapOutputBuilder::add(const KvView& view) {
  pending_bytes_ += view.serialized_size();
  const int p = partitioner_.partition(view.key, int(partitions_.size()));
  partitions_.at(p).push_back(
      KvView{arena_.copy(view.key), arena_.copy(view.value)});
}

std::uint64_t MapOutputBuilder::pending_records() const {
  std::uint64_t n = 0;
  for (const auto& partition : partitions_) n += partition.size();
  return n;
}

MapOutput MapOutputBuilder::build(const CombineFn* combiner) {
  // Sort (and combine) every partition first: then the encoded total is
  // known, and the output buffer is allocated once at its exact size.
  std::uint64_t encoded_bytes = pending_bytes_;
  for (auto& partition : partitions_) {
    std::sort(partition.begin(), partition.end(), KvLess{});
    if (combiner != nullptr && !partition.empty()) {
      // The CombineFn API owns its inputs, so groups materialize out of
      // the arena here; combined output is copied back in. Combining is
      // rare relative to the sort path (aggregatable workloads only).
      std::vector<KvView> combined;
      const std::function<void(KvPair)> emit = [this,
                                                &combined](KvPair pair) {
        combined.push_back(
            KvView{arena_.copy(pair.key), arena_.copy(pair.value)});
      };
      std::vector<Bytes> values;
      size_t i = 0;
      while (i < partition.size()) {
        const Bytes key(partition[i].key.begin(), partition[i].key.end());
        values.clear();
        while (i < partition.size() &&
               KvLess::compare_keys(partition[i].key, key) == 0) {
          values.emplace_back(partition[i].value.begin(),
                              partition[i].value.end());
          ++i;
        }
        (*combiner)(key, values, emit);
      }
      // Combiner output may be unsorted if it emits new keys; re-sort.
      std::sort(combined.begin(), combined.end(), KvLess{});
      for (const auto& view : partition) {
        encoded_bytes -= view.serialized_size();
      }
      for (const auto& view : combined) {
        encoded_bytes += view.serialized_size();
      }
      partition = std::move(combined);
    }
  }

  MapOutput out;
  ByteWriter writer;
  writer.reserve(encoded_bytes);
  out.index.reserve(partitions_.size());
  for (auto& partition : partitions_) {
    IndexEntry entry;
    entry.offset = writer.size();
    entry.kv_count = partition.size();
    for (const auto& view : partition) encode_kv(view, writer);
    entry.length = writer.size() - entry.offset;
    // Per-partition CRC32C, the checksum every downstream read boundary
    // (cache fill, responder, servlet, merge ingest) verifies against.
    entry.crc = crc32c(std::span<const std::uint8_t>(writer.data())
                           .subspan(entry.offset, entry.length));
    out.index.push_back(entry);
    partition.clear();
  }
  HMR_CHECK(writer.size() == encoded_bytes);
  out.data = std::make_shared<const Bytes>(writer.take());
  pending_bytes_ = 0;
  arena_.reset();  // every view in partitions_ is dead now
  return out;
}

SegmentReader::SegmentReader(std::shared_ptr<const Bytes> backing)
    : backing_(std::move(backing)),
      slice_(backing_ ? std::span<const std::uint8_t>(*backing_)
                      : std::span<const std::uint8_t>{}) {}

SegmentReader::SegmentReader(std::shared_ptr<const Bytes> backing,
                             std::span<const std::uint8_t> slice)
    : backing_(std::move(backing)), slice_(slice) {}

bool SegmentReader::next_view(KvView* out) {
  if (exhausted()) return false;
  ByteReader reader(slice_.subspan(pos_));
  auto view = decode_kv_view(reader);
  HMR_CHECK_MSG(view.ok(), "corrupt segment record");
  pos_ += reader.position();
  *out = view.value();
  return true;
}

std::span<const std::uint8_t> SegmentReader::take_chunk(
    std::uint64_t max_pairs, std::uint64_t max_bytes,
    std::uint64_t* pairs_out) {
  const size_t start = pos_;
  std::uint64_t pairs = 0;
  while (pairs < max_pairs && pos_ < slice_.size()) {
    ByteReader reader(slice_.subspan(pos_));
    // Only the record's length is needed: the view decode copies nothing.
    const auto view = decode_kv_view(reader);
    HMR_CHECK_MSG(view.ok(), "corrupt segment record");
    const size_t record_len = reader.position();
    // Never cross the byte budget, except that the first record always
    // ships (a chunk must make progress even for jumbo pairs).
    if (pairs > 0 && (pos_ - start) + record_len > max_bytes) break;
    pos_ += record_len;
    ++pairs;
    if (pos_ - start >= max_bytes) break;
  }
  if (pairs_out != nullptr) *pairs_out = pairs;
  return slice_.subspan(start, pos_ - start);
}

}  // namespace hmr::dataplane
