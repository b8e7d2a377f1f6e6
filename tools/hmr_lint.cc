// hmr-lint CLI: walks src/, tools/, and tests/ and enforces every rule
// family. See docs/LINT.md.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
//
//   hmr_lint [--repo-root DIR] [--format text|json] [--out FILE]
//            [--no-doc-check] [--list-metrics] [--list-config-keys]
//            [DIR...]
//
// DIRs default to `src tools tests`, relative to --repo-root (default:
// the current directory). --format json emits the machine-readable
// hmr-lint-v1 report the CI lint job archives; --list-metrics /
// --list-config-keys print the extracted registries (the input for
// regenerating docs/METRICS.md).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

using hmr::lint::Options;
using hmr::lint::Report;

std::string read_file_or_empty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: hmr_lint [--repo-root DIR] [--format text|json] [--out FILE]\n"
      "                [--no-doc-check] [--list-metrics] [--list-config-keys]\n"
      "                [DIR...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo_root = ".";
  std::string format = "text";
  std::string out_path;
  bool doc_check = true;
  bool list_metrics = false;
  bool list_config_keys = false;
  std::vector<std::string> dirs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--repo-root") {
      const char* v = next();
      if (v == nullptr) return usage();
      repo_root = v;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr || (std::strcmp(v, "text") != 0 &&
                           std::strcmp(v, "json") != 0)) {
        return usage();
      }
      format = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage();
      out_path = v;
    } else if (arg == "--no-doc-check") {
      doc_check = false;
    } else if (arg == "--list-metrics") {
      list_metrics = true;
    } else if (arg == "--list-config-keys") {
      list_config_keys = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tools", "tests"};

  Options opts;
  if (doc_check) {
    opts.config_doc = read_file_or_empty(repo_root + "/docs/CONFIG.md");
    opts.metrics_doc = read_file_or_empty(repo_root + "/docs/METRICS.md");
    if (opts.config_doc.empty()) {
      std::fprintf(stderr,
                   "hmr_lint: %s/docs/CONFIG.md missing or empty (pass "
                   "--no-doc-check to skip registry cross-checks)\n",
                   repo_root.c_str());
      return 2;
    }
    if (opts.metrics_doc.empty()) {
      std::fprintf(stderr,
                   "hmr_lint: %s/docs/METRICS.md missing or empty (pass "
                   "--no-doc-check to skip registry cross-checks)\n",
                   repo_root.c_str());
      return 2;
    }
  }

  auto files = hmr::lint::collect_tree(repo_root, dirs);
  if (!files.ok()) {
    std::fprintf(stderr, "hmr_lint: %s\n",
                 files.status().to_string().c_str());
    return 2;
  }
  const Report report = hmr::lint::lint_files(files.value(), opts);

  if (list_config_keys) {
    for (const auto& k : report.config_keys) std::printf("%s\n", k.c_str());
    return 0;
  }
  if (list_metrics) {
    for (const auto& m : report.metric_names) std::printf("%s\n", m.c_str());
    for (const auto& m : report.metric_name_suffixes) {
      std::printf("*.%s\n", m.c_str());
    }
    return 0;
  }

  std::string body;
  if (format == "json") {
    body = report.to_json().dump();
    body.push_back('\n');
  } else {
    for (const auto& f : report.findings) {
      body += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
              f.message + "\n";
    }
    body += std::to_string(report.findings.size()) + " finding(s), " +
            std::to_string(files.value().size()) + " file(s), " +
            std::to_string(report.config_keys.size()) + " config key(s), " +
            std::to_string(report.metric_names.size() +
                           report.metric_name_suffixes.size()) +
            " metric name(s)\n";
  }
  if (out_path.empty()) {
    std::fputs(body.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "hmr_lint: cannot write %s\n", out_path.c_str());
      return 2;
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    // fclose flushes the buffered tail, so it can fail too.
    if (std::fclose(f) != 0 || written != body.size()) {
      std::fprintf(stderr, "hmr_lint: short write to %s\n", out_path.c_str());
      return 2;
    }
  }
  return report.clean() ? 0 : 1;
}
