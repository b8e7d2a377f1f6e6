// Microbenchmark M1: k-way merge throughput (the reducer's core loop) —
// how the loser-tree merge scales with the number of sorted runs and the
// record size, plus MapOutputBuilder sort/serialize cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "dataplane/kv.h"
#include "dataplane/merger.h"
#include "dataplane/partitioner.h"
#include "dataplane/segment.h"

namespace {

using namespace hmr;
using namespace hmr::dataplane;

std::vector<KvPair> sorted_run(int n, std::uint64_t seed, size_t val_len) {
  Rng rng(seed);
  std::vector<KvPair> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    KvPair pair;
    pair.key.resize(10);
    for (auto& b : pair.key) b = std::uint8_t(rng.below(256));
    pair.value.assign(val_len, 0x42);
    out.push_back(std::move(pair));
  }
  std::sort(out.begin(), out.end(), KvLess{});
  return out;
}

void BM_StreamMergerKWay(benchmark::State& state) {
  const int k = int(state.range(0));
  const int per_run = 2000;
  std::vector<std::vector<KvPair>> runs;
  for (int s = 0; s < k; ++s) runs.push_back(sorted_run(per_run, s + 1, 90));

  std::uint64_t records = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<KvSource>> sources;
    sources.reserve(runs.size());
    for (const auto& run : runs) {
      sources.push_back(std::make_unique<VectorSource>(run));
    }
    StreamMerger merger(std::move(sources));
    KvPair pair;
    while (merger.next(&pair)) benchmark::DoNotOptimize(pair.key.data());
    records += merger.records_merged();
  }
  state.SetItemsProcessed(std::int64_t(records));
  state.SetBytesProcessed(std::int64_t(records) * 102);
}
BENCHMARK(BM_StreamMergerKWay)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(400);

void BM_MergeRecordSize(benchmark::State& state) {
  const size_t val_len = size_t(state.range(0));
  const int records_total = 16384;
  std::vector<std::vector<KvPair>> runs;
  for (int s = 0; s < 8; ++s) {
    runs.push_back(sorted_run(records_total / 8, s + 1, val_len));
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<KvSource>> sources;
    for (const auto& run : runs) {
      sources.push_back(std::make_unique<VectorSource>(run));
    }
    StreamMerger merger(std::move(sources));
    KvPair pair;
    while (merger.next(&pair)) bytes += pair.serialized_size();
  }
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_MergeRecordSize)->Arg(90)->Arg(1000)->Arg(19000);

void BM_MapOutputBuilder(benchmark::State& state) {
  const int n = int(state.range(0));
  auto records = sorted_run(n, 7, 90);
  RangePartitioner partitioner;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    MapOutputBuilder builder(32, partitioner);
    for (const auto& record : records) builder.add(record);
    const MapOutput output = builder.build();
    benchmark::DoNotOptimize(output.total_bytes());
    bytes += output.total_bytes();
  }
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_MapOutputBuilder)->Arg(1024)->Arg(16384)->Arg(131072);

// Chunked SegmentReader extraction — the RdmaResponder's inner loop.
void BM_TakeChunk(benchmark::State& state) {
  const std::uint64_t budget = std::uint64_t(state.range(0));
  auto pairs = sorted_run(20000, 9, 90);
  auto backing = std::make_shared<const Bytes>(encode_run(pairs));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    SegmentReader reader(backing, *backing);
    std::uint64_t n = 0;
    while (!reader.exhausted()) {
      auto chunk = reader.take_chunk(UINT64_MAX, budget, &n);
      benchmark::DoNotOptimize(chunk.data());
      bytes += chunk.size();
    }
  }
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_TakeChunk)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

}  // namespace

BENCHMARK_MAIN();
