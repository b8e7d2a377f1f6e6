// bench_check — compares a BENCH_*.json produced by a figure/smoke bench
// against a committed baseline and validates the schema's internal
// consistency (phases fit inside the wall-clock, ratios stay in [0, 1],
// outputs validated). CI fails when a run's seconds, or its
// shuffled_bytes where the baseline carries them, drift past the
// tolerance.
//
//   bench_check <baseline.json> <candidate.json> [--tolerance 0.15]
//
// Runs are matched by (series, size_gb). The simulation is seeded and
// deterministic, so the default tolerance mostly absorbs intentional
// model changes, not noise; tighten or loosen per call site.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using hmr::Json;

int g_failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++g_failures;
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_check: cannot open %s\n", path);
    std::exit(2);
  }
  std::string body;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  return body;
}

Json parse_file(const char* path) {
  auto parsed = Json::parse(read_file(path));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_check: %s: %s\n", path,
                 parsed.status().to_string().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

double num(const Json& run, const char* key) {
  const Json* v = run.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(std::string("missing numeric field '") + key + "'");
    return 0.0;
  }
  return v->as_double();
}

std::string run_name(const Json& run) {
  const Json* series = run.find("series");
  const Json* size = run.find("size_gb");
  std::string name =
      series != nullptr && series->is_string() ? series->as_string() : "?";
  char buf[32];
  std::snprintf(buf, sizeof buf, " @%ggb",
                size != nullptr && size->is_number() ? size->as_double() : -1.0);
  return name + buf;
}

// Schema sanity for one document; returns the runs array.
const Json* validate_doc(const char* path, const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "hmr-bench-v1") {
    fail(std::string(path) + ": not an hmr-bench-v1 document");
    return nullptr;
  }
  const Json* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array() || runs->size() == 0) {
    fail(std::string(path) + ": empty or missing runs array");
    return nullptr;
  }
  for (size_t i = 0; i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    const std::string name = run_name(run);
    const double seconds = num(run, "seconds");
    if (!(seconds > 0)) fail(name + ": non-positive wall-clock");
    const Json* phases = run.find("phases");
    if (phases == nullptr || !phases->is_object()) {
      fail(name + ": missing phases object");
    } else {
      for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
        const double t = num(*phases, phase);
        // Tiny epsilon: the emitter clamps, so anything past it is a bug.
        if (t < 0 || t > seconds * (1 + 1e-9)) {
          fail(name + ": phase '" + phase + "' outside [0, wall-clock]");
        }
      }
    }
    for (const char* ratio : {"overlap_fraction", "cache_hit_rate"}) {
      const double r = num(run, ratio);
      if (r < 0 || r > 1) fail(name + ": " + ratio + " outside [0, 1]");
    }
    const Json* validated = run.find("validated");
    if (validated == nullptr || !validated->is_bool() ||
        !validated->as_bool()) {
      fail(name + ": output not validated");
    }
  }
  return runs;
}

double relative_drift(double want, double got) {
  return want > 0 ? (got - want) / want : 0.0;
}

const Json* find_run(const Json& runs, const std::string& series,
                     double size_gb) {
  for (size_t i = 0; i < runs.size(); ++i) {
    const Json& run = runs.at(i);
    const Json* s = run.find("series");
    const Json* gb = run.find("size_gb");
    if (s != nullptr && s->is_string() && s->as_string() == series &&
        gb != nullptr && gb->is_number() && gb->as_double() == size_gb) {
      return &run;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  double tolerance = 0.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (candidate_path == nullptr) {
      candidate_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || candidate_path == nullptr) {
    std::fprintf(
        stderr,
        "usage: bench_check <baseline.json> <candidate.json> "
        "[--tolerance 0.15]\n");
    return 2;
  }

  const Json baseline = parse_file(baseline_path);
  const Json candidate = parse_file(candidate_path);
  const Json* base_runs = validate_doc(baseline_path, baseline);
  const Json* cand_runs = validate_doc(candidate_path, candidate);
  if (base_runs == nullptr || cand_runs == nullptr) return 1;

  for (size_t i = 0; i < base_runs->size(); ++i) {
    const Json& base = base_runs->at(i);
    const std::string name = run_name(base);
    const Json* series = base.find("series");
    const Json* size = base.find("size_gb");
    if (series == nullptr || size == nullptr) continue;  // already failed
    const Json* cand =
        find_run(*cand_runs, series->as_string(), size->as_double());
    if (cand == nullptr) {
      fail(name + ": missing from candidate");
      continue;
    }
    const double want = num(base, "seconds");
    const double got = num(*cand, "seconds");
    const double drift = relative_drift(want, got);
    std::printf("%-48s baseline %8.1fs  candidate %8.1fs  %+6.1f%%\n",
                name.c_str(), want, got, drift * 100.0);
    if (drift > tolerance || drift < -tolerance) {
      fail(name + ": drifted past tolerance");
    }
    // Shuffled bytes move when a mechanism sends more or fewer bytes,
    // even where the job time barely moves. Baselines without the field
    // (the multi-job sweeps) skip it.
    if (base.find("shuffled_bytes") != nullptr) {
      const double bytes_drift = relative_drift(num(base, "shuffled_bytes"),
                                                num(*cand, "shuffled_bytes"));
      if (bytes_drift > tolerance || bytes_drift < -tolerance) {
        char pct[32];
        std::snprintf(pct, sizeof pct, "%+.2f%%", bytes_drift * 100.0);
        fail(name + ": shuffled_bytes drifted past tolerance (" + pct + ")");
      }
    }
  }
  if (cand_runs->size() != base_runs->size()) {
    fail("run counts differ: baseline " + std::to_string(base_runs->size()) +
         ", candidate " + std::to_string(cand_runs->size()));
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_check: %d failure(s) in %s\n", g_failures,
                 candidate_path);
    return 1;
  }
  std::printf("bench_check: OK (%zu runs within %g%%)\n", base_runs->size(),
              tolerance * 100.0);
  return 0;
}
