#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "lint/function_index.h"
#include "lint/registry.h"

namespace hmr::lint {

namespace {

bool has_prefix(const std::string& path, std::string_view prefix) {
  return path.rfind(prefix, 0) == 0;
}

const std::set<std::string, std::less<>> kKnownRules = {
    "determinism",     "status-discipline", "config-registry",
    "metric-registry", "coroutine-borrow",  "coawait-aggregate",
    "queue-storage"};

// Drops findings waived by a justified suppression on the same line or
// the line above; reports malformed suppressions. A justified
// suppression that names only rules *active for this file* yet waives
// nothing is stale and reported (the stale-waiver audit): waivers must
// die with the finding they cover. Suppressions naming a rule the file
// is out of scope for (e.g. determinism in tests/) are left alone.
void apply_suppressions(const LexedFile& file,
                        const std::set<std::string>& active_rules,
                        std::vector<Finding>* findings,
                        std::vector<Finding>* out) {
  for (const Suppression& s : file.suppressions) {
    if (s.rules.empty()) {
      out->push_back({"suppression", file.path, s.line,
                      "lint:ignore without a rule list; write "
                      "lint:ignore(<rule>): <justification>"});
      continue;
    }
    for (const std::string& rule : s.rules) {
      if (!kKnownRules.count(rule)) {
        out->push_back({"suppression", file.path, s.line,
                        "lint:ignore names unknown rule `" + rule + "`"});
      }
    }
    if (!s.justified) {
      out->push_back({"suppression", file.path, s.line,
                      "suppression must carry a justification: "
                      "lint:ignore(<rule>): <why this is safe>"});
    }
  }
  std::vector<bool> waived_any(file.suppressions.size(), false);
  for (Finding& f : *findings) {
    bool waived = false;
    // Same-line suppressions bind first so a trailing waiver owns its
    // own line; otherwise a line-above waiver could steal the finding
    // and leave the trailing one falsely stale.
    for (const int delta : {0, 1}) {
      for (size_t si = 0; si < file.suppressions.size() && !waived; ++si) {
        const Suppression& s = file.suppressions[si];
        if (!s.justified || s.line != f.line - delta) continue;
        if (std::find(s.rules.begin(), s.rules.end(), f.rule) !=
            s.rules.end()) {
          waived = true;
          waived_any[si] = true;
        }
      }
      if (waived) break;
    }
    if (!waived) out->push_back(std::move(f));
  }
  for (size_t si = 0; si < file.suppressions.size(); ++si) {
    const Suppression& s = file.suppressions[si];
    if (!s.justified || s.rules.empty() || waived_any[si]) continue;
    const bool all_active =
        std::all_of(s.rules.begin(), s.rules.end(),
                    [&](const std::string& rule) {
                      return active_rules.count(rule) != 0;
                    });
    if (!all_active) continue;
    std::string rules;
    for (const std::string& rule : s.rules) {
      if (!rules.empty()) rules += ",";
      rules += rule;
    }
    out->push_back({"suppression", file.path, s.line,
                    "stale suppression: lint:ignore(" + rules +
                        ") waives no finding on this or the next line; "
                        "delete it (waivers must die with the finding "
                        "they covered)"});
  }
}

}  // namespace

Report lint_files(const std::vector<SourceFile>& files, const Options& opts) {
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  FunctionRegistry fn_registry;
  FunctionIndex index;
  for (const SourceFile& f : files) {
    lexed.push_back(lex(f.path, f.text));
    collect_function_returns(lexed.back(), &fn_registry);
    index.add_file(lexed.back());
  }
  index.fill_registry(&fn_registry);
  fn_registry.finalize();  // drop names with conflicting void-like decls

  Report report;
  std::vector<NameUse> config_uses;
  std::vector<NameUse> metric_uses;
  for (const LexedFile& f : lexed) {
    const bool in_src = has_prefix(f.path, "src/");
    const bool in_tools = has_prefix(f.path, "tools/");

    std::vector<Finding> local;
    std::set<std::string> active_rules = {"status-discipline",
                                          "coawait-aggregate"};
    // Every compiled file meets the same compiler, so this one applies
    // tree-wide.
    check_coawait_aggregate(f, &local);
    if (in_src) {
      check_determinism(f, &local);
      check_coroutine_borrow(f, index, &local);
      active_rules.insert({"determinism", "coroutine-borrow",
                           "metric-registry", "config-registry"});
    }
    if (in_src && !has_prefix(f.path, "src/lint/")) {
      check_queue_storage(f, &local);
      active_rules.insert("queue-storage");
    }
    check_status_discipline(f, fn_registry,
                            /*check_value_guard=*/in_src || in_tools, &local);
    if (in_src || in_tools) {
      extract_config_keys(f, &config_uses, &local);
      active_rules.insert("config-registry");
    }
    if (in_src) extract_metric_names(f, &metric_uses, &local);
    apply_suppressions(f, active_rules, &local, &report.findings);
  }

  if (!opts.config_doc.empty()) {
    cross_check_config(config_uses, opts.config_doc, opts.config_doc_path,
                       &report.findings);
  }
  if (!opts.metrics_doc.empty()) {
    cross_check_metrics(metric_uses, opts.metrics_doc, opts.metrics_doc_path,
                        &report.findings);
  }

  std::set<std::string> keys, names, suffixes;
  for (const NameUse& u : config_uses) keys.insert(u.name);
  for (const NameUse& u : metric_uses) {
    (u.partial ? suffixes : names).insert(u.name);
  }
  report.config_keys.assign(keys.begin(), keys.end());
  report.metric_names.assign(names.begin(), names.end());
  report.metric_name_suffixes.assign(suffixes.begin(), suffixes.end());

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return report;
}

Json Report::to_json() const {
  Json root = Json::object();
  root.set("schema", Json("hmr-lint-v1"));
  Json arr = Json::array();
  std::map<std::string, std::int64_t> counts;
  for (const Finding& f : findings) {
    Json j = Json::object();
    j.set("rule", Json(f.rule));
    j.set("file", Json(f.file));
    j.set("line", Json(std::int64_t(f.line)));
    j.set("message", Json(f.message));
    arr.push_back(std::move(j));
    ++counts[f.rule];
  }
  root.set("findings", std::move(arr));
  Json jc = Json::object();
  for (const auto& [rule, n] : counts) jc.set(rule, Json(n));
  root.set("counts", std::move(jc));
  const auto string_array = [](const std::vector<std::string>& v) {
    Json a = Json::array();
    for (const auto& s : v) a.push_back(Json(s));
    return a;
  };
  root.set("config_keys", string_array(config_keys));
  root.set("metric_names", string_array(metric_names));
  root.set("metric_name_suffixes", string_array(metric_name_suffixes));
  return root;
}

Result<std::vector<SourceFile>> collect_tree(
    const std::string& repo_root, const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const std::string& dir : dirs) {
    const fs::path root = fs::path(repo_root) / dir;
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      return Status::NotFound("lint: no such directory: " + root.string());
    }
    for (auto it = fs::recursive_directory_iterator(root, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) return Status::Internal("lint: walk failed: " + ec.message());
      const fs::path& p = it->path();
      if (it->is_directory() && p.filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp") {
        continue;
      }
      std::FILE* f = std::fopen(p.c_str(), "rb");
      if (f == nullptr) {
        return Status::Internal("lint: cannot open " + p.string());
      }
      std::string text;
      char buf[1 << 16];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      std::fclose(f);
      files.push_back(
          {fs::path(p).lexically_relative(repo_root).generic_string(),
           std::move(text)});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

}  // namespace hmr::lint
