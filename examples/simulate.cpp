// General-purpose CLI driver: run any workload/engine/cluster
// combination and print the job report — the "hadoop jar" of the
// simulated cluster.
//
//   ./examples/simulate --workload terasort --size 20GB --nodes 8
//       --engine osu-ib --disks 2 [--ssd] [--block 256MB]
//       [--set mapred.local.caching.enabled=false ...]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapred/jobconf.h"
#include "workloads/experiment.h"
#include "workloads/report.h"

using namespace hmr;
using namespace hmr::workloads;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload terasort|sort] [--size <bytes, e.g. "
               "20GB>]\n"
               "          [--nodes N] [--disks N] [--ssd]\n"
               "          [--engine vanilla|osu-ib|hadoop-a]\n"
               "          [--fabric 1gige|10gige|ipoib|verbs]\n"
               "          [--block <bytes>] [--seed N] [--real <bytes>]\n"
               "          [--set key=value ...]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.setup = EngineSetup::osu_ib();
  config.workload = "terasort";
  config.sort_modeled_bytes = 8 * kGiB;
  config.nodes = 4;
  std::string engine = "osu-ib";
  std::string fabric;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };

  std::vector<std::pair<std::string, std::string>> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      config.workload = next_value(i);
    } else if (arg == "--size") {
      auto bytes = parse_bytes(next_value(i));
      if (!bytes.ok()) {
        usage(argv[0]);
        return 2;
      }
      config.sort_modeled_bytes = *bytes;
    } else if (arg == "--nodes") {
      config.nodes = std::atoi(next_value(i));
    } else if (arg == "--disks") {
      config.disks = std::atoi(next_value(i));
    } else if (arg == "--ssd") {
      config.ssd = true;
    } else if (arg == "--engine") {
      engine = next_value(i);
    } else if (arg == "--fabric") {
      fabric = next_value(i);
    } else if (arg == "--block") {
      config.block_size = parse_bytes(next_value(i)).value_or(0);
    } else if (arg == "--seed") {
      config.seed = std::uint64_t(std::atoll(next_value(i)));
    } else if (arg == "--real") {
      config.target_real_bytes =
          parse_bytes(next_value(i)).value_or(config.target_real_bytes);
    } else if (arg == "--set") {
      const std::string kv = next_value(i);
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        usage(argv[0]);
        return 2;
      }
      overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      usage(argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }

  if (engine == "vanilla") {
    config.setup = EngineSetup::ipoib();
  } else if (engine == "hadoop-a") {
    config.setup = EngineSetup::hadoop_a();
  } else if (engine == "osu-ib") {
    config.setup = EngineSetup::osu_ib();
  } else {
    usage(argv[0]);
    return 2;
  }
  if (!fabric.empty()) {
    if (fabric == "1gige") config.setup.profile = net::NetProfile::one_gige();
    else if (fabric == "10gige") config.setup.profile = net::NetProfile::ten_gige();
    else if (fabric == "ipoib") config.setup.profile = net::NetProfile::ipoib_qdr();
    else if (fabric == "verbs") config.setup.profile = net::NetProfile::verbs_qdr();
    else {
      usage(argv[0]);
      return 2;
    }
    config.setup.label = engine + " / " + config.setup.profile.name;
  }
  for (const auto& [key, value] : overrides) {
    config.setup.extra.set(key, value);
  }
  // Check the --set keys before building anything: an unknown key or a
  // bad value is reported, not silently ignored.
  const auto parsed = mapred::JobConf::parse(config.setup.extra);
  if (!parsed.ok()) {
    std::fprintf(stderr, "rejected: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }

  std::fprintf(stderr, "running %s %s on %d nodes (%d %s each), %s...\n",
               format_bytes(config.sort_modeled_bytes).c_str(),
               config.workload.c_str(), config.nodes, config.disks,
               config.ssd ? "SSD" : "HDD", config.setup.label.c_str());
  const RunOutcome outcome = run_experiment(config);
  const auto& job = outcome.job;
  std::fputs(job_report(job).c_str(), stdout);
  std::printf("validation                 %s\n",
              outcome.validated ? "PASS" : "SKIPPED");
  return 0;
}
