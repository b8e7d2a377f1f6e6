#include "workloads/report.h"

#include <cstdio>

#include "common/table.h"
#include "common/units.h"

namespace hmr::workloads {

std::string utilization_report(Testbed& bed) {
  const double horizon = bed.engine().now();
  Table table({"Host", "Disk", "Busy", "Read", "Written", "Seeks"});
  for (size_t h = 0; h < bed.cluster().size(); ++h) {
    auto& host = bed.cluster().host(h);
    for (size_t d = 0; d < host.fs().disk_count(); ++d) {
      auto& disk = host.fs().disk(d);
      const double busy =
          horizon > 0 ? disk.busy_seconds() / horizon * 100.0 : 0.0;
      table.add_row({host.name(), disk.spec().name,
                     Table::num(busy, 1) + "%",
                     format_bytes(disk.bytes_read()),
                     format_bytes(disk.bytes_written()),
                     std::to_string(disk.seeks())});
    }
  }
  std::string out = table.to_ascii();
  const MetricsRegistry& metrics = bed.engine().metrics();
  char line[160];
  std::snprintf(
      line, sizeof line,
      "network: %s in %lld messages, %.1f CPU-seconds of socket stack over "
      "%.1f simulated seconds\n",
      format_bytes(std::uint64_t(metrics.counter_value("net.bytes"))).c_str(),
      static_cast<long long>(metrics.counter_value("net.messages")),
      metrics.gauge_value("net.cpu_seconds"), horizon);
  out += line;
  return out;
}

std::string job_report(const mapred::JobResult& result) {
  std::string out;
  char line[160];
  auto add = [&](const char* key, const std::string& value) {
    std::snprintf(line, sizeof line, "%-26s %s\n", key, value.c_str());
    out += line;
  };
  add("job time", Table::num(result.elapsed(), 1) + " s");
  const auto phases = result.phases();
  add("  map phase", Table::num(phases.map, 1) + " s");
  add("  shuffle phase", Table::num(phases.shuffle, 1) + " s");
  add("  merge phase", Table::num(phases.merge, 1) + " s");
  add("  reduce phase", Table::num(phases.reduce, 1) + " s");
  add("  overlap",
      Table::num(result.overlap_fraction() * 100.0, 1) + " % of " +
          Table::num(phases.sum(), 1) + " s phase total");
  add("maps / reduces", std::to_string(result.num_maps) + " / " +
                            std::to_string(result.num_reduces));
  add("input", format_bytes(result.input_modeled_bytes));
  add("shuffled", format_bytes(result.shuffled_modeled_bytes));
  // Job-scoped counters: this job's own counts (docs/METRICS.md).
  const auto n = [&result](const char* name) { return result.counter(name); };
  add("output", format_bytes(result.output_modeled_bytes) + " in " +
                    std::to_string(n("REDUCE_OUTPUT_RECORDS")) + " records");
  const auto count = [&](const char* name) { return std::to_string(n(name)); };
  add("spills", count("mapred.map.spills"));
  if (n("mapred.map.failed_attempts") + n("speculation.attempts") > 0) {
    add("failed / speculative", count("mapred.map.failed_attempts") + " / " +
                                    count("speculation.attempts"));
  }
  if (n("cache.hits") + n("cache.misses") > 0) {
    add("prefetch cache", count("cache.hits") + " hits / " +
                              count("cache.misses") + " misses");
  }
  if (n("shuffle.fetch.timeouts") + n("shuffle.trackers.blacklisted") > 0) {
    add("shuffle recovery",
        count("shuffle.fetch.timeouts") + " timeouts / " +
            count("shuffle.fetch.retries") + " retries / " +
            count("shuffle.trackers.blacklisted") + " blacklisted");
  }
  if (n("shuffle.refetch.reruns") > 0) {
    add("  refetched", format_bytes(std::uint64_t(n("shuffle.refetch.bytes"))) +
                           " via " + count("shuffle.refetch.reruns") +
                           " map re-runs");
  }
  if (n("shuffle.overbudget.refetches") > 0) {
    add("over-budget refetch",
        count("shuffle.overbudget.refetches") + " chunks / " +
            format_bytes(std::uint64_t(n("shuffle.overbudget.bytes"))));
  }
  if (n("integrity.checksum.mismatches") > 0 || n("storage.io.retries") > 0 ||
      n("storage.disk_full.events") > 0) {
    add("storage integrity",
        count("integrity.checksum.mismatches") + " mismatches / " +
            count("storage.io.retries") + " IO retries / " +
            count("storage.disk_full.events") + " disk-full");
    add("  recovered by", count("storage.spill.rewrites") + " rewrites / " +
                              count("cache.integrity.evictions") +
                              " cache evictions / " +
                              count("storage.corrupt.rereads") + " re-reads");
    const auto failovers = result.metrics.counter("hdfs.replica.failovers");
    if (failovers > 0) {
      add("  hdfs", std::to_string(failovers) + " replica failovers / " +
                        std::to_string(result.metrics.counter(
                            "hdfs.corrupt.replicas_pruned")) +
                        " pruned / " +
                        std::to_string(
                            result.metrics.counter("hdfs.rereplications")) +
                        " re-replicated");
    }
  }
  for (const auto& [name, value] : result.counters) {
    if (value != 0) add(("  " + name).c_str(), std::to_string(value));
  }
  return out;
}

}  // namespace hmr::workloads
