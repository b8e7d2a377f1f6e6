// Timeline tracing: run a job with the execution tracer attached and
// write a Chrome/Perfetto trace of every map and reduce task — open
// trace.json in ui.perfetto.dev to see the waves, the shuffle overlap,
// and the reduce tail the paper's §III-B4 figure sketches.
//
//   ./examples/trace_job [engine] [out.json]
#include <cstdio>
#include <fstream>
#include <string>

#include "common/units.h"
#include "mapred/types.h"
#include "sim/trace.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

using namespace hmr;
using namespace hmr::workloads;

int main(int argc, char** argv) {
  const std::string engine = argc > 1 ? argv[1] : "osu-ib";
  const std::string out_path = argc > 2 ? argv[2] : "trace.json";

  TestbedSpec bed_spec;
  bed_spec.nodes = 4;
  bed_spec.profile = engine == "vanilla" ? net::NetProfile::ipoib_qdr()
                                         : net::NetProfile::verbs_qdr();
  bed_spec.hdfs.block_size = 128 * kMiB;
  Testbed bed(bed_spec);

  DataGenSpec gen;
  gen.dir = "/in";
  gen.modeled_total = 4 * kGiB;
  gen.part_modeled = bed_spec.hdfs.block_size;
  gen.scale = 1024.0;
  if (!bed.generate("teragen", gen).ok()) return 1;

  Conf conf;
  conf.set(mapred::kShuffleEngine, engine);
  sim::Tracer tracer(bed.engine());
  bed.engine().set_tracer(&tracer);

  auto result = bed.run_job(terasort_job(bed.dfs(), "/in", "/out", conf));
  bed.engine().set_tracer(nullptr);

  std::ofstream out(out_path);
  out << tracer.to_chrome_json();
  out.close();

  std::printf("4GB TeraSort (%s): %.1f s simulated, %zu trace spans\n",
              engine.c_str(), result.elapsed(), tracer.size());
  const auto dropped =
      bed.engine().metrics().counter_value("trace.dropped_events");
  if (dropped > 0) {
    std::printf("trace buffer full: dropped %lld events\n",
                static_cast<long long>(dropped));
  }
  std::printf("wrote %s — open it in ui.perfetto.dev or chrome://tracing\n",
              out_path.c_str());
  return 0;
}
