// bench/figures [--only <id>[,<id>...]]: every paper figure, ablation and
// the CI smoke cell from one FigureSpec table. Each spec prints its rows,
// writes BENCH_<id>.json under $HMR_BENCH_DIR (or the working directory)
// and checks its engine-ordering claims on every row. Exits 1 when a claim
// fails or a JSON file cannot be written, 2 on an unknown id. Regenerate
// the CI baselines with HMR_BENCH_DIR=bench/baselines ./build/bench/figures
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "mapred/types.h"
#include "workloads/benchjson.h"
#include "workloads/experiment.h"

using namespace hmr;
using namespace hmr::workloads;

namespace {

struct Series {
  EngineSetup setup;  // its label heads the column and names the JSON run
  int disks = 1;
  std::string workload{};  // empty: the figure's workload
};

// One table row: a sort size and, in the ablations, the swept setting.
// A non-empty `tag` ("block=64MB") is appended to every series label.
struct Row {
  std::uint64_t size_gb = 0;
  std::string tag{};
  Conf conf{};                   // merged over each series' conf
  std::uint64_t block_size = 0;  // RunConfig::block_size
};

// Series `faster` (an EngineSetup label) must finish before `slower` on
// every row, at each disk count both series run with.
struct Claim {
  std::string faster, slower;
};

struct FigureSpec {
  std::string id;  // BENCH_<id>.json and the --only name
  std::string title;
  std::string workload;  // "terasort" | "sort"; the JSON's workload field
  int nodes = 4;
  bool ssd = false;
  std::vector<Row> rows;
  std::vector<Series> series;
  std::vector<Claim> claims{};
  std::uint64_t target_real_bytes = 16 * kMiB;
  bool hit_rate_column = false;  // print each series' cache hit rate too
};

// `setup` under another label, with the boolean conf key `off` false.
EngineSetup variant(EngineSetup setup, std::string label,
                    std::string_view off = {}) {
  setup.label = std::move(label);
  if (!off.empty()) setup.extra.set_bool(off, false);
  return setup;
}

// Ablation rows at `gb`: one per value, tagged "<name>=<value>", each
// setting conf `key` to the value.
std::vector<Row> sweep(std::uint64_t gb, const std::string& name,
                       std::string_view key,
                       std::initializer_list<const char*> values) {
  std::vector<Row> rows;
  for (const char* value : values) {
    rows.push_back({gb, name + "=" + value});
    rows.back().conf.set(key, value);
  }
  return rows;
}

// The GigE baseline, IPoIB, Hadoop-A and OSU-IB at each disk count.
std::vector<Series> four_engines(const EngineSetup& gige,
                                 std::initializer_list<int> disk_counts) {
  std::vector<Series> series;
  for (const int disks : disk_counts) {
    for (const auto& setup : {gige, EngineSetup::ipoib(),
                              EngineSetup::hadoop_a(), EngineSetup::osu_ib()}) {
      series.push_back({setup, disks});
    }
  }
  return series;
}

std::vector<FigureSpec> figure_specs() {
  const EngineSetup one_gige = EngineSetup::one_gige();
  const EngineSetup ten_gige = EngineSetup::ten_gige();
  const std::string osu = EngineSetup::osu_ib().label;
  const std::string hadoop_a = EngineSetup::hadoop_a().label;
  const std::string ipoib = EngineSetup::ipoib().label;
  // OSU-IB beats every other series of every figure. Hadoop-A beats
  // IPoIB on TeraSort only: on Sort the two cross over.
  const std::vector<Claim> sort_claims = {
      {osu, one_gige.label}, {osu, ipoib}, {osu, hadoop_a}};
  const auto terasort_claims = [&](const EngineSetup& gige) {
    return std::vector<Claim>{
        {osu, gige.label}, {osu, ipoib}, {osu, hadoop_a}, {hadoop_a, ipoib}};
  };
  const std::string no_overlap = "OSU-IB (No Overlap)";

  std::vector<Row> cache_rows = sweep(60, "cache", mapred::kCacheBytes,
                                      {"1GB", "2GB", "4GB", "8GB", "12GB"});
  cache_rows.insert(cache_rows.begin(), {60, "cache=0GB"});
  cache_rows.front().conf.set_bool(mapred::kCachingEnabled, false);

  // EXPERIMENTS.md holds the paper's quotes for each figure.
  return {
      {.id = "fig4a",
       .title = "Figure 4(a): TeraSort, 4 DataNodes, single and dual HDD",
       .workload = "terasort", .nodes = 4, .rows = {{20}, {30}, {40}},
       .series = four_engines(ten_gige, {1, 2}),
       .claims = terasort_claims(ten_gige)},
      {.id = "fig4b",
       .title = "Figure 4(b): TeraSort, 8 DataNodes, single and dual HDD",
       .workload = "terasort", .nodes = 8, .rows = {{60}, {80}, {100}},
       .series = four_engines(one_gige, {1, 2}),
       .claims = terasort_claims(one_gige)},
      {.id = "fig5_12node", .title = "Figure 5: TeraSort 100GB on 12 nodes",
       .workload = "terasort", .nodes = 12, .rows = {{100}},
       .series = four_engines(one_gige, {1}),
       .claims = terasort_claims(one_gige)},
      {.id = "fig5_24node", .title = "Figure 5: TeraSort 200GB on 24 nodes",
       .workload = "terasort", .nodes = 24, .rows = {{200}},
       .series = four_engines(one_gige, {1}),
       .claims = terasort_claims(one_gige)},
      {.id = "fig6a", .title = "Figure 6(a): Sort, 4 DataNodes, single HDD",
       .workload = "sort", .nodes = 4, .rows = {{5}, {10}, {15}, {20}},
       .series = four_engines(one_gige, {1}), .claims = sort_claims},
      {.id = "fig6b", .title = "Figure 6(b): Sort, 8 DataNodes, single HDD",
       .workload = "sort", .nodes = 8, .rows = {{25}, {30}, {35}, {40}},
       .series = four_engines(one_gige, {1}), .claims = sort_claims},
      {.id = "fig7", .title = "Figure 7: Sort on SSD data stores, 4 DataNodes",
       .workload = "sort", .nodes = 4, .ssd = true,
       .rows = {{5}, {10}, {15}, {20}}, .series = four_engines(one_gige, {1}),
       .claims = sort_claims},
      {.id = "fig8",
       .title = "Figure 8: Effect of the caching mechanism (Sort on SSD)",
       .workload = "sort", .nodes = 4, .ssd = true,
       .rows = {{5}, {10}, {15}, {20}},
       .series = {{EngineSetup::ipoib()},
                  {EngineSetup::osu_ib_nocache()},
                  {EngineSetup::osu_ib()},
                  {variant(EngineSetup::osu_ib(), no_overlap,
                           mapred::kOverlapReduce)}},
       .claims = {{osu, ipoib},
                  {osu, EngineSetup::osu_ib_nocache().label},
                  {osu, no_overlap}}},
      // Ablations: TeraSort 20GB on 4 nodes per block size; 60GB on 8
      // nodes across the ~7.5GB/node working set per cache size.
      {.id = "ablation_blocksize", .title = "Ablation A1: HDFS block size",
       .workload = "terasort", .nodes = 4,
       .rows = {{20, "block=64MB", {}, 64 * kMiB},
                {20, "block=128MB", {}, 128 * kMiB},
                {20, "block=256MB", {}, 256 * kMiB},
                {20, "block=512MB", {}, 512 * kMiB}},
       .series = {{EngineSetup::ipoib()}, {EngineSetup::hadoop_a()},
                  {EngineSetup::osu_ib()}}},
      {.id = "ablation_cache", .title = "Ablation A3: cache capacity",
       .workload = "terasort", .nodes = 8, .rows = cache_rows,
       .series = {{variant(EngineSetup::osu_ib(), "OSU-IB")}},
       .hit_rate_column = true},
      {.id = "ablation_packet_bytes",
       .title = "Ablation A2a: OSU-IB packet byte budget",
       .workload = "terasort+sort", .nodes = 4,
       .rows = sweep(20, "packet", mapred::kRdmaPacketBytes,
                     {"64KB", "256KB", "1MB", "4MB", "16MB"}),
       .series = {{variant(EngineSetup::osu_ib(), "terasort"), 1, "terasort"},
                  {variant(EngineSetup::osu_ib(), "sort"), 1, "sort"}}},
      {.id = "ablation_packet_kv",
       .title = "Ablation A2b: Hadoop-A fixed kv count per packet",
       .workload = "sort", .nodes = 4,
       .rows = sweep(20, "kv", mapred::kRdmaKvPerPacket,
                     {"64", "256", "1024", "4096"}),
       .series = {{variant(EngineSetup::hadoop_a(), "hadoop-a")}}},
      // The no-checksums column prices end-to-end verification (DESIGN.md
      // §6.2); it is faster by design, so it carries no claim.
      {.id = "smoke",
       .title = "Smoke: TeraSort 2GB, 2 DataNodes, one run per engine",
       .workload = "terasort", .nodes = 2, .rows = {{2}},
       .series = {{EngineSetup::ipoib()},
                  {EngineSetup::hadoop_a()},
                  {EngineSetup::osu_ib()},
                  {variant(EngineSetup::osu_ib(), "OSU-IB (no checksums)",
                           mapred::kIntegrityEnabled)}},
       .claims = {{osu, ipoib}, {osu, hadoop_a}},
       .target_real_bytes = 4 * kMiB},
  };
}

std::string series_label(const FigureSpec& spec, const Series& series) {
  std::string label = series.setup.label;
  if (series.disks > 1) {
    label += ' ';  // not " " + std::string&&: GCC 12 -O3 -Wrestrict
    label += std::to_string(series.disks) + "disks";
  } else if (spec.series.size() > 4) {  // disk-count comparisons
    label += " 1disk";
  }
  return label;
}

// Runs one spec; returns its failed claims and writes.
int run_figure(const FigureSpec& spec, int& claims_checked) {
  int failures = 0;
  std::printf("== %s ==\n", spec.title.c_str());
  std::vector<std::string> headers{"Sort Size (GB)"};
  for (const auto& series : spec.series) {
    headers.push_back(series_label(spec, series));
    if (spec.hit_rate_column) headers.push_back("Hit rate");
  }
  Table table(std::move(headers));
  BenchJson bench(spec.id, spec.title, spec.workload, spec.nodes);

  for (const auto& row : spec.rows) {
    const std::string tag = row.tag.empty() ? "" : " " + row.tag;
    const std::string gb = std::to_string(row.size_gb);
    std::vector<std::string> cells{gb + tag};
    std::vector<double> seconds;
    for (const auto& series : spec.series) {
      RunConfig config{
          .setup = series.setup,
          .workload = series.workload.empty() ? spec.workload : series.workload,
          .sort_modeled_bytes = row.size_gb * kGiB,
          .nodes = spec.nodes, .disks = series.disks, .ssd = spec.ssd,
          .block_size = row.block_size,
          .target_real_bytes = spec.target_real_bytes};
      config.setup.extra.merge(row.conf);
      const std::string label = series_label(spec, series) + tag;
      std::fprintf(stderr, "  %s %sGB %s...\n", config.workload.c_str(),
                   gb.c_str(), label.c_str());
      const auto outcome = run_experiment(config);
      bench.add_run(label, double(row.size_gb), outcome);
      seconds.push_back(outcome.seconds());
      cells.push_back(Table::num(outcome.seconds(), 1));
      if (spec.hit_rate_column) {  // "-": caching off, no lookups
        const auto& job = outcome.job;
        cells.push_back(job.counter("cache.hits") + job.counter("cache.misses")
                            ? Table::num(job.cache_hit_rate() * 100.0, 1) + "%"
                            : "-");
      }
    }
    table.add_row(std::move(cells));

    for (const Claim& claim : spec.claims) {
      int pairs = 0;
      for (size_t f = 0; f < spec.series.size(); ++f) {
        for (size_t s = 0; s < spec.series.size(); ++s) {
          const int disks = spec.series[f].disks;
          if (spec.series[f].setup.label != claim.faster ||
              spec.series[s].setup.label != claim.slower ||
              spec.series[s].disks != disks) {
            continue;
          }
          ++pairs;
          if (seconds[f] < seconds[s]) continue;
          ++failures;
          std::fprintf(stderr,
                       "CLAIM FAILED: %s %sGB%s disks=%d: %s (%.1f s) is "
                       "not faster than %s (%.1f s)\n",
                       spec.id.c_str(), gb.c_str(), tag.c_str(), disks,
                       claim.faster.c_str(), seconds[f],
                       claim.slower.c_str(), seconds[s]);
        }
      }
      claims_checked += pairs;
      if (pairs == 0) {  // a claim naming no series pair would check nothing
        ++failures;
        std::fprintf(stderr, "CLAIM FAILED: %s: no series pair %s / %s\n",
                     spec.id.c_str(), claim.faster.c_str(),
                     claim.slower.c_str());
      }
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("(Job Execution Time in seconds; lower is better)\n\n");
  std::fflush(stdout);
  if (bench.write_file().empty()) ++failures;
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<FigureSpec> specs = figure_specs();
  std::set<std::string> only;
  if (argc == 3 && std::strcmp(argv[1], "--only") == 0) {
    std::istringstream list(argv[2]);
    for (std::string id; std::getline(list, id, ',');) only.insert(id);
  }
  std::set<std::string> unknown = only;
  for (const auto& spec : specs) unknown.erase(spec.id);
  if ((argc != 1 && only.empty()) || !unknown.empty()) {
    std::fprintf(stderr, "usage: figures [--only <id>[,<id>...]]\n");
    for (const auto& id : unknown) {
      std::fprintf(stderr, "figures: unknown id '%s'\n", id.c_str());
    }
    std::fprintf(stderr, "figure ids:");
    for (const auto& spec : specs) std::fprintf(stderr, " %s", spec.id.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  int claims_checked = 0, failures = 0;
  for (const auto& spec : specs) {
    if (only.empty() || only.count(spec.id) > 0) {
      failures += run_figure(spec, claims_checked);
    }
  }
  std::printf("figures: %d claims checked, %d failure(s)\n", claims_checked,
              failures);
  return failures > 0 ? 1 : 0;
}
