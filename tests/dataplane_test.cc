#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataplane/cache.h"
#include "dataplane/kv.h"
#include "dataplane/merger.h"
#include "dataplane/partitioner.h"
#include "dataplane/segment.h"

namespace hmr::dataplane {
namespace {

std::vector<KvPair> random_pairs(int n, std::uint64_t seed,
                                 size_t key_len = 10, size_t val_len = 90) {
  Rng rng(seed);
  std::vector<KvPair> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    KvPair pair;
    pair.key.resize(key_len);
    pair.value.resize(val_len);
    for (auto& b : pair.key) b = std::uint8_t(rng.below(256));
    for (auto& b : pair.value) b = std::uint8_t(rng.below(256));
    out.push_back(std::move(pair));
  }
  return out;
}

// A merge source over `pairs`, which the caller has sorted.
std::unique_ptr<KvSource> source_of(const std::vector<KvPair>& pairs) {
  return std::make_unique<BytesSource>(
      std::make_shared<const Bytes>(encode_run(pairs)));
}

// Every record left in `source`, copied out.
std::vector<KvPair> drain_pairs(KvSource& source) {
  std::vector<KvPair> out;
  KvView view;
  while (source.next_view(&view)) out.push_back(view.to_pair());
  return out;
}

bool sorted_by_key(const std::vector<KvPair>& pairs) {
  return std::is_sorted(pairs.begin(), pairs.end(),
                        [](const KvPair& a, const KvPair& b) {
                          return KvLess::compare_keys(a.key, b.key) < 0;
                        });
}

std::shared_ptr<const MapOutput> dummy_output() {
  return std::make_shared<const MapOutput>();
}

// -------------------------------------------------------------------- kv

TEST(KvTest, EncodeDecodeRoundTrip) {
  const KvPair pair = make_kv("alpha", "beta-value");
  ByteWriter writer;
  encode_kv(pair, writer);
  ByteReader reader(writer.data());
  auto decoded = decode_kv(reader);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), pair);
  EXPECT_TRUE(reader.at_end());
}

TEST(KvTest, EmptyKeyAndValue) {
  const KvPair pair = make_kv("", "");
  ByteWriter writer;
  encode_kv(pair, writer);
  EXPECT_EQ(writer.size(), 2u);  // two zero varints
  ByteReader reader(writer.data());
  EXPECT_EQ(decode_kv(reader).value(), pair);
}

TEST(KvTest, SerializedSizeMatchesEncoding) {
  for (const auto& pair :
       {make_kv("k", "v"), make_kv(std::string(200, 'x'), ""),
        make_kv("", std::string(20000, 'y'))}) {
    ByteWriter writer;
    encode_kv(pair, writer);
    EXPECT_EQ(pair.serialized_size(), writer.size());
  }
}

TEST(KvTest, RunRoundTripPreservesOrderAndContent) {
  auto pairs = random_pairs(500, 1);
  const Bytes run = encode_run(pairs);
  auto decoded = decode_run(run);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), pairs);
}

TEST(KvTest, DecodeRunRejectsTruncation) {
  auto pairs = random_pairs(10, 2);
  Bytes run = encode_run(pairs);
  run.resize(run.size() - 3);
  EXPECT_FALSE(decode_run(run).ok());
}

TEST(KvTest, KeyOrderingIsLexicographic) {
  EXPECT_LT(KvLess::compare_keys(make_kv("abc", "").key,
                                 make_kv("abd", "").key),
            0);
  EXPECT_LT(KvLess::compare_keys(make_kv("ab", "").key,
                                 make_kv("abc", "").key),
            0);
  EXPECT_EQ(KvLess::compare_keys(make_kv("ab", "").key,
                                 make_kv("ab", "").key),
            0);
  // Unsigned comparison: 0xFF sorts above ASCII.
  Bytes high = {0xff};
  Bytes low = {0x01};
  EXPECT_GT(KvLess::compare_keys(high, low), 0);
}

// ----------------------------------------------------------- partitioner

TEST(PartitionerTest, HashIsStableAndInRange) {
  HashPartitioner hash;
  auto pairs = random_pairs(1000, 3);
  for (const auto& pair : pairs) {
    const int p = hash.partition(pair.key, 7);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 7);
    EXPECT_EQ(p, hash.partition(pair.key, 7));
  }
}

TEST(PartitionerTest, HashSpreadsKeys) {
  HashPartitioner hash;
  auto pairs = random_pairs(5000, 4);
  std::map<int, int> counts;
  for (const auto& pair : pairs) ++counts[hash.partition(pair.key, 8)];
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [_, n] : counts) EXPECT_GT(n, 5000 / 8 / 2);
}

TEST(PartitionerTest, RangePreservesOrderAcrossPartitions) {
  RangePartitioner range;
  auto pairs = random_pairs(2000, 5);
  std::sort(pairs.begin(), pairs.end(), KvLess{});
  int last = 0;
  for (const auto& pair : pairs) {
    const int p = range.partition(pair.key, 16);
    EXPECT_GE(p, last);
    last = p;
  }
}

TEST(PartitionerTest, RangeIsRoughlyUniformOnUniformKeys) {
  RangePartitioner range;
  auto pairs = random_pairs(8000, 6);
  std::map<int, int> counts;
  for (const auto& pair : pairs) ++counts[range.partition(pair.key, 8)];
  for (int p = 0; p < 8; ++p) {
    EXPECT_GT(counts[p], 8000 / 8 / 2) << "partition " << p;
  }
}

TEST(PartitionerTest, ShortKeysStillPartition) {
  RangePartitioner range;
  Bytes short_key = {0x80};
  const int p = range.partition(short_key, 4);
  EXPECT_EQ(p, 2);  // 0x80... is exactly the midpoint
}

// --------------------------------------------------------------- segment

TEST(SegmentTest, BuilderSortsEachPartition) {
  HashPartitioner hash;
  MapOutputBuilder builder(4, hash);
  for (auto& pair : random_pairs(400, 7)) builder.add(std::move(pair));
  EXPECT_EQ(builder.pending_records(), 400u);
  const MapOutput output = builder.build();
  EXPECT_EQ(builder.pending_records(), 0u);
  ASSERT_EQ(output.index.size(), 4u);

  std::uint64_t total = 0;
  for (int p = 0; p < 4; ++p) {
    auto pairs = decode_run(output.partition_bytes(p)).value();
    EXPECT_EQ(pairs.size(), output.index[p].kv_count);
    EXPECT_TRUE(sorted_by_key(pairs));
    for (const auto& pair : pairs) {
      EXPECT_EQ(hash.partition(pair.key, 4), p);
    }
    total += pairs.size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(SegmentTest, PendingBytesTracksSerializedSize) {
  HashPartitioner hash;
  MapOutputBuilder builder(2, hash);
  const auto pair = make_kv("0123456789", std::string(90, 'v'));
  builder.add(pair);
  builder.add(pair);
  EXPECT_EQ(builder.pending_bytes(), 2 * pair.serialized_size());
  const MapOutput output = builder.build();
  EXPECT_EQ(output.total_bytes(), 2 * pair.serialized_size());
}

TEST(SegmentTest, IndexCrcMatchesEachPartitionsBytes) {
  // The shuffle servers send IndexEntry::crc for whole partitions, so it
  // must be the CRC-32C of exactly the partition's bytes: with an empty
  // partition (5 partitions, keys hashed into at most 4 of them by a
  // partitioner that never picks 4) and with a combiner.
  struct NeverLast : Partitioner {
    int partition(std::span<const std::uint8_t> key, int n) const override {
      return HashPartitioner{}.partition(key, n - 1);
    }
  } never_last;
  const CombineFn keep_first = [](const Bytes& key,
                                  const std::vector<Bytes>& values,
                                  const std::function<void(KvPair)>& emit) {
    emit(KvPair{key, values.front()});
  };
  for (const CombineFn* combiner : {static_cast<const CombineFn*>(nullptr),
                                    &keep_first}) {
    MapOutputBuilder builder(5, never_last);
    auto pairs = random_pairs(300, 21, /*key_len=*/1, /*val_len=*/20);
    for (auto& pair : pairs) builder.add(std::move(pair));
    const MapOutput output = builder.build(combiner);
    ASSERT_EQ(output.index.size(), 5u);
    EXPECT_EQ(output.index[4].length, 0u);
    EXPECT_EQ(output.data->capacity(), output.data->size());
    std::uint64_t records = 0;
    for (int p = 0; p < 5; ++p) {
      EXPECT_EQ(output.index[p].crc, crc32c(output.partition_bytes(p)))
          << "partition " << p << (combiner ? " combined" : "");
      records += output.index[p].kv_count;
    }
    // One-byte keys: the combiner folds 300 records into at most 256.
    if (combiner != nullptr) {
      EXPECT_LE(records, 256u);
    }
  }
}

TEST(SegmentTest, ReaderIteratesAllRecords) {
  auto pairs = random_pairs(50, 9);
  std::sort(pairs.begin(), pairs.end(), KvLess{});
  auto backing = std::make_shared<const Bytes>(encode_run(pairs));
  SegmentReader reader(backing, *backing);
  KvView view;
  size_t n = 0;
  while (reader.next_view(&view)) {
    EXPECT_EQ(view.to_pair(), pairs[n]);
    ++n;
  }
  EXPECT_EQ(n, 50u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(SegmentTest, TakeChunkHonorsPairBudget) {
  auto pairs = random_pairs(100, 10);
  auto backing = std::make_shared<const Bytes>(encode_run(pairs));
  SegmentReader reader(backing, *backing);
  std::uint64_t total_pairs = 0;
  while (!reader.exhausted()) {
    std::uint64_t n = 0;
    auto chunk = reader.take_chunk(7, UINT64_MAX, &n);
    EXPECT_LE(n, 7u);
    EXPECT_GT(n, 0u);
    auto decoded = decode_run(chunk).value();
    EXPECT_EQ(decoded.size(), n);
    total_pairs += n;
  }
  EXPECT_EQ(total_pairs, 100u);
}

TEST(SegmentTest, TakeChunkHonorsByteBudget) {
  auto pairs = random_pairs(100, 11);
  auto backing = std::make_shared<const Bytes>(encode_run(pairs));
  SegmentReader reader(backing, *backing);
  while (!reader.exhausted()) {
    std::uint64_t n = 0;
    auto chunk = reader.take_chunk(UINT64_MAX, 500, &n);
    // Records are ~102 B; the chunk never crosses 500 B except when a
    // single record exceeds the budget (not the case here).
    EXPECT_LE(chunk.size(), 500u + 110u);
    EXPECT_GT(n, 0u);
  }
}

TEST(SegmentTest, TakeChunkAlwaysMakesProgressOnJumboRecord) {
  std::vector<KvPair> jumbo = {
      make_kv("k", std::string(20000, 'j'))};
  auto backing = std::make_shared<const Bytes>(encode_run(jumbo));
  SegmentReader reader(backing, *backing);
  std::uint64_t n = 0;
  auto chunk = reader.take_chunk(512, 1024, &n);  // budget << record size
  EXPECT_EQ(n, 1u);
  EXPECT_GT(chunk.size(), 20000u);
  EXPECT_TRUE(reader.exhausted());
}

// ---------------------------------------------------------------- merger

Bytes key_of(std::string_view text) { return Bytes(text.begin(), text.end()); }

// Sorted runs for loser-tree tests. Keys are drawn mostly from a small
// pool, so equal keys recur across sources, and the pool holds the
// cases the cached 8-byte prefix must get right: the empty key, keys
// that are prefixes of each other ("ab" < "ab\0" < "ab\0...\0"), keys
// sharing their first 8 bytes, and all-0xff keys whose prefix equals an
// exhausted leaf's. Roughly one source in four is empty.
std::vector<std::vector<Bytes>> loser_tree_runs(size_t k, std::uint64_t seed) {
  using namespace std::string_view_literals;
  const std::vector<Bytes> pool = {
      key_of(""),
      key_of("a"),
      key_of("ab"),
      key_of("ab\0"sv),
      key_of("ab\0\0\0\0\0\0\0"sv),
      key_of("sharedpf"),
      key_of("sharedpf\0"sv),
      key_of("sharedpfa"),
      key_of("sharedpfab"),
      key_of("sharedpfb"),
      key_of("\xff\xff\xff\xff\xff\xff\xff\xff"sv),
      key_of("\xff\xff\xff\xff\xff\xff\xff\xff\x01"sv),
  };
  constexpr std::uint8_t kAlphabet[] = {0x00, 0x01, 'a', 0xff};
  Rng rng(seed);
  std::vector<std::vector<Bytes>> runs(k);
  for (auto& run : runs) {
    if (rng.below(4) == 0) continue;
    const size_t n = rng.below(40);
    for (size_t i = 0; i < n; ++i) {
      if (rng.below(3) != 0) {
        run.push_back(pool[rng.below(pool.size())]);
      } else {
        Bytes key(rng.below(13));
        for (auto& b : key) b = kAlphabet[rng.below(std::size(kAlphabet))];
        run.push_back(std::move(key));
      }
    }
    std::sort(run.begin(), run.end(), [](const Bytes& a, const Bytes& b) {
      return KvLess::compare_keys(a, b) < 0;
    });
  }
  return runs;
}

// Reference merge order as (source, position) pairs: every record in
// source order, stable-sorted by key, so equal keys keep the lower
// source first.
std::vector<std::pair<size_t, size_t>> reference_order(
    const std::vector<std::vector<Bytes>>& runs) {
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t s = 0; s < runs.size(); ++s) {
    for (size_t i = 0; i < runs[s].size(); ++i) order.emplace_back(s, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& a, const auto& b) {
                     return KvLess::compare_keys(runs[a.first][a.second],
                                                 runs[b.first][b.second]) < 0;
                   });
  return order;
}

TEST(LoserTreeTest, MatchesStableSortReference) {
  for (const size_t k : {1, 2, 3, 7, 64, 400}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("k=" + std::to_string(k) + " seed=" + std::to_string(seed));
      auto runs = loser_tree_runs(k, seed);
      const auto expected = reference_order(runs);

      LoserTree tree(k);
      std::vector<size_t> pos(k, 0);
      for (size_t s = 0; s < k; ++s) {
        if (runs[s].empty()) {
          tree.set_exhausted(s);
        } else {
          tree.set(s, runs[s][0]);
        }
      }
      tree.build();
      std::vector<std::pair<size_t, size_t>> got;
      std::vector<Bytes> moved_out;
      while (!tree.empty()) {
        const size_t s = tree.winner();
        got.emplace_back(s, pos[s]);
        // Like the RDMA merge: the winner's key leaves before replay().
        moved_out.push_back(std::move(runs[s][pos[s]++]));
        if (pos[s] < runs[s].size()) {
          tree.set(s, runs[s][pos[s]]);
        } else {
          tree.set_exhausted(s);
        }
        tree.replay();
      }
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(LoserTreeTest, PrefixKeysAndEmptyKeyOrder) {
  // Sources hold the keys in descending order, so every match the tree
  // plays must overturn the source-index tie-break.
  const std::vector<Bytes> keys = {
      key_of(std::string_view("ab\0\0\0\0\0\0\0", 9)),
      key_of(std::string_view("ab\0", 3)), key_of("ab"), key_of("")};
  LoserTree tree(keys.size());
  for (size_t s = 0; s < keys.size(); ++s) tree.set(s, keys[s]);
  tree.build();
  std::vector<size_t> order;
  while (!tree.empty()) {
    order.push_back(tree.winner());
    tree.set_exhausted(tree.winner());
    tree.replay();
  }
  EXPECT_EQ(order, (std::vector<size_t>{3, 2, 1, 0}));
}

TEST(LoserTreeTest, NoSourcesIsEmpty) {
  LoserTree tree(0);
  tree.build();
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTreeTest, StreamMergerFollowsTheSameOrder) {
  auto runs = loser_tree_runs(64, 9);
  const auto expected = reference_order(runs);
  std::vector<std::unique_ptr<KvSource>> sources;
  for (size_t s = 0; s < runs.size(); ++s) {
    std::vector<KvPair> pairs;
    for (size_t i = 0; i < runs[s].size(); ++i) {
      pairs.push_back(make_kv(
          std::string_view(reinterpret_cast<const char*>(runs[s][i].data()),
                           runs[s][i].size()),
          std::to_string(s) + ":" + std::to_string(i)));
    }
    sources.push_back(source_of(pairs));
  }
  StreamMerger merger(std::move(sources));
  const auto merged = drain_pairs(merger);
  ASSERT_EQ(merged.size(), expected.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    const auto& [s, pos] = expected[i];
    EXPECT_EQ(std::string(merged[i].value.begin(), merged[i].value.end()),
              std::to_string(s) + ":" + std::to_string(pos));
  }
}

TEST(MergerTest, MergesSortedRunsGloballySorted) {
  auto all = random_pairs(900, 12);
  std::vector<std::unique_ptr<KvSource>> sources;
  for (int s = 0; s < 3; ++s) {
    std::vector<KvPair> run(all.begin() + s * 300,
                            all.begin() + (s + 1) * 300);
    std::sort(run.begin(), run.end(), KvLess{});
    sources.push_back(source_of(run));
  }
  StreamMerger merger(std::move(sources));
  auto merged = drain_pairs(merger);
  EXPECT_EQ(merged.size(), 900u);
  EXPECT_TRUE(sorted_by_key(merged));
  EXPECT_EQ(merger.records_merged(), 900u);

  std::sort(all.begin(), all.end(), KvLess{});
  std::vector<KvPair> expected = all;
  std::sort(merged.begin(), merged.end(), KvLess{});
  EXPECT_EQ(merged, expected);
}

TEST(MergerTest, HandlesEmptyAndSingleSources) {
  std::vector<std::unique_ptr<KvSource>> sources;
  sources.push_back(source_of({}));
  std::vector<KvPair> one = {make_kv("a", "1")};
  sources.push_back(source_of(one));
  sources.push_back(source_of({}));
  StreamMerger merger(std::move(sources));
  auto merged = drain_pairs(merger);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], one[0]);
}

TEST(MergerTest, ZeroSourcesYieldNothing) {
  StreamMerger merger({});
  KvView view;
  EXPECT_FALSE(merger.next_view(&view));
}

TEST(MergerTest, ViewDrainMatchesOwningDrain) {
  // Views copied out as they are merged equal the owning pairs sorted.
  std::vector<std::unique_ptr<KvSource>> sources;
  std::vector<KvPair> expected;
  for (int s = 0; s < 3; ++s) {
    auto run = random_pairs(100, 40 + s);
    std::sort(run.begin(), run.end(), KvLess{});
    sources.push_back(source_of(run));
    expected.insert(expected.end(), run.begin(), run.end());
  }
  std::sort(expected.begin(), expected.end(), KvLess{});
  StreamMerger merger(std::move(sources));
  std::vector<KvPair> got;
  KvView view;
  while (merger.next_view(&view)) got.push_back(view.to_pair());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(merger.records_merged(), expected.size());
}

TEST(MergerTest, ViewStaysValidUntilNextCall) {
  // The deferred-refill contract: the view yielded by call N must not be
  // invalidated until call N+1, even for sources that reuse one scratch
  // record for every view they return.
  class ScratchSource final : public KvSource {
   public:
    bool next_view(KvView* out) override {
      if (n_ >= 3) return false;
      const char key[3] = {'k', char('0' + n_), '\0'};
      scratch_ = make_kv(key, "v");
      *out = KvView(scratch_);
      ++n_;
      return true;
    }

   private:
    KvPair scratch_;
    int n_ = 0;
  };
  std::vector<std::unique_ptr<KvSource>> sources;
  sources.push_back(std::make_unique<ScratchSource>());
  StreamMerger merger(std::move(sources));
  KvView view;
  ASSERT_TRUE(merger.next_view(&view));
  // Inspect AFTER the pop — would read freed/overwritten scratch memory
  // if the merger refilled eagerly.
  EXPECT_EQ(std::string(view.key.begin(), view.key.end()), "k0");
  ASSERT_TRUE(merger.next_view(&view));
  EXPECT_EQ(std::string(view.key.begin(), view.key.end()), "k1");
  ASSERT_TRUE(merger.next_view(&view));
  EXPECT_EQ(std::string(view.key.begin(), view.key.end()), "k2");
  EXPECT_FALSE(merger.next_view(&view));
}

TEST(KvTest, ViewEncodeMatchesPairEncode) {
  const KvPair pair = make_kv("key", "value");
  ByteWriter from_pair;
  encode_kv(pair, from_pair);
  ByteWriter from_view;
  encode_kv(KvView(pair), from_view);
  EXPECT_EQ(from_pair.data(), from_view.data());
  EXPECT_EQ(KvView(pair).serialized_size(), pair.serialized_size());
}

TEST(KvTest, DecodeViewIsZeroCopy) {
  const Bytes run = encode_run(std::vector<KvPair>{make_kv("a", "1")});
  ByteReader reader(run);
  auto view = decode_kv_view(reader);
  ASSERT_TRUE(view.ok());
  // The spans alias the input buffer — no copy happened.
  EXPECT_GE(view.value().key.data(), run.data());
  EXPECT_LT(view.value().key.data(), run.data() + run.size());
  EXPECT_EQ(view.value().to_pair(), make_kv("a", "1"));
}

TEST(KvTest, KvLessAgreesAcrossPairAndView) {
  const auto pairs = random_pairs(64, 77);
  KvLess less;
  for (size_t i = 0; i + 1 < pairs.size(); ++i) {
    const bool by_pair = less(pairs[i], pairs[i + 1]);
    const bool by_view = less(KvView(pairs[i]), KvView(pairs[i + 1]));
    EXPECT_EQ(by_pair, by_view);
  }
}

TEST(MergerTest, BytesSourceOverSegments) {
  auto pairs = random_pairs(200, 13);
  std::sort(pairs.begin(), pairs.end(), KvLess{});
  std::vector<KvPair> a(pairs.begin(), pairs.begin() + 100);
  std::vector<KvPair> b(pairs.begin() + 100, pairs.end());
  std::sort(a.begin(), a.end(), KvLess{});
  std::sort(b.begin(), b.end(), KvLess{});
  std::vector<std::unique_ptr<KvSource>> sources;
  sources.push_back(source_of(a));
  sources.push_back(source_of(b));
  StreamMerger merger(std::move(sources));
  auto merged = drain_pairs(merger);
  EXPECT_EQ(merged.size(), 200u);
  EXPECT_TRUE(sorted_by_key(merged));
}

TEST(MergerTest, DuplicateKeysAllSurvive) {
  std::vector<KvPair> a = {make_kv("dup", "1"), make_kv("dup", "3")};
  std::vector<KvPair> b = {make_kv("dup", "2")};
  std::vector<std::unique_ptr<KvSource>> sources;
  sources.push_back(source_of(a));
  sources.push_back(source_of(b));
  StreamMerger merger(std::move(sources));
  auto merged = drain_pairs(merger);
  EXPECT_EQ(merged.size(), 3u);
  for (const auto& pair : merged) {
    EXPECT_EQ(std::string(pair.key.begin(), pair.key.end()), "dup");
  }
}

// Property sweep: merge K sorted runs of N records each.
class MergerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MergerSweep, SortedAndComplete) {
  const auto [k, n] = GetParam();
  std::vector<std::unique_ptr<KvSource>> sources;
  size_t total = 0;
  for (int s = 0; s < k; ++s) {
    auto run = random_pairs(n, 100 + s);
    std::sort(run.begin(), run.end(), KvLess{});
    total += run.size();
    sources.push_back(source_of(run));
  }
  StreamMerger merger(std::move(sources));
  auto merged = drain_pairs(merger);
  EXPECT_EQ(merged.size(), total);
  EXPECT_TRUE(sorted_by_key(merged));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergerSweep,
    ::testing::Combine(::testing::Values(1, 2, 8, 32),
                       ::testing::Values(0, 1, 64, 257)));

// ----------------------------------------------------------------- cache

// Cache keys: map outputs of job 1.
constexpr MapOutputId kA = map_output_id(1, 0);
constexpr MapOutputId kB = map_output_id(1, 1);
constexpr MapOutputId kC = map_output_id(1, 2);
constexpr MapOutputId kHot = map_output_id(1, 10);
constexpr MapOutputId kCold = map_output_id(1, 11);
constexpr MapOutputId kNew = map_output_id(1, 12);

TEST(CacheTest, MapOutputIdPacksJobAboveMap) {
  EXPECT_EQ(map_output_id(0, 7), 7u);
  EXPECT_EQ(map_output_id(3, 7), (std::uint64_t(3) << 32) | 7u);
  // Every 32-bit map id stays inside its job's range.
  EXPECT_LT(map_output_id(3, 0xffffffffu), map_output_id(4, 0));
}

TEST(CacheTest, EvictionFollowsInsertionNotIdOrder) {
  // Ids inserted in descending order: the victims are the oldest
  // entries (the highest ids), never the lowest ids.
  PrefetchCache cache(1000);
  for (std::uint32_t m = 5; m >= 1; --m) {
    ASSERT_TRUE(cache.put(map_output_id(1, m), dummy_output(), 200));
  }
  ASSERT_TRUE(cache.put(map_output_id(1, 6), dummy_output(), 200));
  EXPECT_FALSE(cache.contains(map_output_id(1, 5)));
  ASSERT_TRUE(cache.put(map_output_id(1, 7), dummy_output(), 200));
  EXPECT_FALSE(cache.contains(map_output_id(1, 4)));
  for (std::uint32_t m : {1u, 2u, 3u, 6u, 7u}) {
    EXPECT_TRUE(cache.contains(map_output_id(1, m))) << "map " << m;
  }
  // A hit refreshes recency: map 3 outlives the older map 2.
  EXPECT_NE(cache.get(map_output_id(1, 3)), nullptr);
  ASSERT_TRUE(cache.put(map_output_id(1, 8), dummy_output(), 400));
  EXPECT_FALSE(cache.contains(map_output_id(1, 2)));
  EXPECT_FALSE(cache.contains(map_output_id(1, 1)));
  EXPECT_TRUE(cache.contains(map_output_id(1, 3)));
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_TRUE(cache.invariant_holds());
}

TEST(CacheTest, PutGetHitAndMiss) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 400));
  EXPECT_NE(cache.get(kA), nullptr);
  EXPECT_EQ(cache.get(kB), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.used_bytes(), 400u);
}

TEST(CacheTest, LruEvictionOrder) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 400));
  EXPECT_TRUE(cache.put(kB, dummy_output(), 400));
  EXPECT_NE(cache.get(kA), nullptr);  // refresh a: b is now coldest
  EXPECT_TRUE(cache.put(kC, dummy_output(), 400));
  EXPECT_TRUE(cache.contains(kA));
  EXPECT_FALSE(cache.contains(kB));
  EXPECT_TRUE(cache.contains(kC));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, PriorityOutranksRecency) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kHot, dummy_output(), 400, /*priority=*/5));
  EXPECT_TRUE(cache.put(kCold, dummy_output(), 400, /*priority=*/0));
  EXPECT_NE(cache.get(kCold), nullptr);  // cold is most recent, low prio
  EXPECT_TRUE(cache.put(kNew, dummy_output(), 400, /*priority=*/0));
  EXPECT_TRUE(cache.contains(kHot));   // high priority survived
  EXPECT_FALSE(cache.contains(kCold));
}

TEST(CacheTest, RejectsWhenEverythingOutranks) {
  PrefetchCache cache(800);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 400, 9));
  EXPECT_TRUE(cache.put(kB, dummy_output(), 400, 9));
  EXPECT_FALSE(cache.put(kC, dummy_output(), 400, 1));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_TRUE(cache.contains(kA));
  EXPECT_TRUE(cache.contains(kB));
}

TEST(CacheTest, OversizedEntryRejected) {
  PrefetchCache cache(100);
  EXPECT_FALSE(cache.put(kA, dummy_output(), 200));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(CacheTest, BoostProtectsFromEviction) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 400));
  EXPECT_TRUE(cache.put(kB, dummy_output(), 400));
  cache.boost(kA, 10);  // demand-prioritised after a reducer miss
  EXPECT_TRUE(cache.put(kC, dummy_output(), 400));
  EXPECT_TRUE(cache.contains(kA));
  EXPECT_FALSE(cache.contains(kB));
}

TEST(CacheTest, BoostNeverLowersPriority) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 300, 7));
  cache.boost(kA, 2);  // no-op
  EXPECT_TRUE(cache.put(kB, dummy_output(), 400, 5));
  EXPECT_TRUE(cache.put(kC, dummy_output(), 400, 5));
  EXPECT_TRUE(cache.contains(kA));
}

TEST(CacheTest, EraseAndClear) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 100));
  EXPECT_TRUE(cache.put(kB, dummy_output(), 100));
  EXPECT_TRUE(cache.erase(kA));
  EXPECT_FALSE(cache.erase(kA));
  EXPECT_EQ(cache.used_bytes(), 100u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.stats().peak_bytes, 200u);  // the high-water mark stays
}

TEST(CacheTest, HitRateComputation) {
  PrefetchCache cache(1000);
  EXPECT_TRUE(cache.put(kA, dummy_output(), 100));
  (void)cache.get(kA);
  (void)cache.get(kA);
  (void)cache.get(kB);
  EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(CacheTest, ManyEntriesStressEviction) {
  PrefetchCache cache(10'000);
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const MapOutputId key = map_output_id(1, std::uint32_t(rng.below(200)));
    const auto bytes = 50 + rng.below(200);
    const int priority = int(rng.below(3));
    // put() takes only absent keys; a resident one is boosted instead,
    // as the prefetcher does.
    if (cache.contains(key)) {
      cache.boost(key, priority);
    } else {
      (void)cache.put(key, dummy_output(), bytes, priority);
    }
    EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace hmr::dataplane
