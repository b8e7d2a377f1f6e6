// Ablation A3: PrefetchCache capacity — §IV-B's observation that the
// design "has more benefits in storage nodes" (24 GB RAM vs 12 GB).
// Sweeps mapred.local.caching.bytes on the paper's headline workload.
#include "fig_common.h"
#include "mapred/types.h"

using namespace hmr;
using namespace hmr::bench;

int main() {
  std::printf(
      "== Ablation A3: cache capacity (TeraSort 60GB, 8 nodes, 1 HDD) ==\n");
  Table table({"mapred.local.caching.bytes", "Job time (s)", "Hit rate"});
  BenchJson bench("ablation_cache", "Ablation A3: cache capacity",
                  "terasort", 8);
  for (const char* cache : {"0GB", "1GB", "2GB", "4GB", "8GB", "12GB"}) {
    RunConfig config;
    config.setup = EngineSetup::osu_ib();
    if (std::string(cache) == "0GB") {
      config.setup.extra.set_bool(mapred::kCachingEnabled, false);
    } else {
      config.setup.extra.set(mapred::kCacheBytes, cache);
    }
    config.workload = "terasort";
    config.sort_modeled_bytes = 60 * kGiB;
    config.nodes = 8;
    std::fprintf(stderr, "  cache=%s...\n", cache);
    const auto outcome = run_experiment(config);
    bench.add_run(std::string("OSU-IB cache=") + cache, 60.0, outcome);
    const auto total = outcome.job.counter("cache.hits") +
                       outcome.job.counter("cache.misses");
    table.add_row({cache, Table::num(outcome.seconds(), 1),
                   total == 0 ? "-"
                              : Table::num(outcome.job.cache_hit_rate() * 100.0,
                                           1) + "%"});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("(per-node map output here is ~7.5GB: the sweep crosses the "
              "working-set size)\n");
  bench.write_file();
  return 0;
}
