// hmr-lint: repo-aware static analysis for the OSU-IB reproduction.
//
// Rule families (see docs/LINT.md for the full reference):
//   determinism       — no wall clocks, library RNG types or calls
//                       (rand/srand), getenv, or unordered containers
//                       in sim-facing code
//   status-discipline — no discarded Status/Result call results, no
//                       .value()/deref without an ok() check
//   config-registry   — every Conf key literal documented in
//                       docs/CONFIG.md, and vice versa
//   metric-registry   — every metric name literal dot-separated
//                       lowercase and documented in docs/METRICS.md
//   coroutine-borrow  — no KvView/arena borrows held across co_await
//   coawait-aggregate — no braced initializers inside co_await operands
//   queue-storage     — no std::deque in src/ (use sim::Fifo)
//
// coroutine-borrow walks the function bodies found by the repo-wide
// function index (lint/function_index.h).
// A stale-waiver audit reports lint:ignore suppressions that no longer
// waive anything. The library is pure (files in, findings out) so tests
// can feed it fixture sources; tools/hmr_lint.cc adds the filesystem
// walk and CLI.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "lint/rules.h"

namespace hmr::lint {

struct SourceFile {
  std::string path;  // repo-relative, '/'-separated; decides rule scope
  std::string text;
};

struct Options {
  // Markdown contents of the registries' docs. Empty string = skip that
  // cross-check (used while bootstrapping a new doc).
  std::string config_doc;
  std::string metrics_doc;
  std::string config_doc_path = "docs/CONFIG.md";
  std::string metrics_doc_path = "docs/METRICS.md";
};

struct Report {
  std::vector<Finding> findings;          // sorted by (file, line, rule)
  std::vector<std::string> config_keys;   // sorted unique, full literals
  std::vector<std::string> metric_names;  // sorted unique, full literals
  std::vector<std::string> metric_name_suffixes;  // from concatenated names

  bool clean() const { return findings.empty(); }
  // {"schema":"hmr-lint-v1","findings":[...],"counts":{...},...}
  Json to_json() const;
};

// Runs every rule family over `files`. The function index is built
// from *all* files, then rules are scoped by path prefix:
//   src/    every family (+ function-return collection); queue-storage
//           skips src/lint
//   tools/  status-discipline, config-registry
//   tests/  status-discipline (discard checks only)
// lint:ignore suppressions are applied here; malformed ones surface as
// findings under the "suppression" pseudo-rule.
Report lint_files(const std::vector<SourceFile>& files, const Options& opts);

// Loads every .h/.cc/.cpp/.hpp under repo_root/<dir> for each dir,
// skipping tests/lint_fixtures (those violate on purpose). Paths in the
// result are repo-relative.
Result<std::vector<SourceFile>> collect_tree(
    const std::string& repo_root, const std::vector<std::string>& dirs);

}  // namespace hmr::lint
