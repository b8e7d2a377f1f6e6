#include "lint/registry.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace hmr::lint {

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool lower_component(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

// `a.b.c` with >= min_components dot-separated lowercase components.
bool dotted_name(std::string_view s, int min_components) {
  int components = 0;
  while (true) {
    const auto dot = s.find('.');
    if (!lower_component(s.substr(0, dot))) return false;
    ++components;
    if (dot == std::string_view::npos) break;
    s.remove_prefix(dot + 1);
  }
  return components >= min_components;
}

// A literal is "key-shaped" when it has at least one '.' separating
// non-empty pieces — loose on purpose so malformed keys (uppercase,
// trailing dot) are caught and reported instead of slipping past.
bool key_shaped(std::string_view s) {
  return !s.empty() && s.find('.') != std::string_view::npos &&
         s.find(' ') == std::string_view::npos &&
         s.find("\\n") == std::string_view::npos;
}

// Conf's setters; JobConf::parse reads keys through their k* constants.
const std::set<std::string, std::less<>> kConfAccessors = {
    "set", "set_int", "set_double", "set_bool", "set_bytes",
};

const std::set<std::string, std::less<>> kMetricFactories = {
    "counter",           "gauge",           "latency_histogram",
    "fixed_histogram",   "counter_value",   "gauge_value",
    "gauge_max",         "find_fixed_histogram",
};

}  // namespace

void extract_config_keys(const LexedFile& file, std::vector<NameUse>* uses,
                         std::vector<Finding>* out) {
  const auto& toks = file.tokens;
  const auto record = [&](const std::string& key, int line) {
    if (!dotted_name(key, 2)) {
      out->push_back({"config-registry", file.path, line,
                      "config key \"" + key +
                          "\" violates the dotted lowercase convention "
                          "(`component.component[.component...]`, "
                          "[a-z0-9_] components)"});
      return;
    }
    uses->push_back({key, file.path, line, false});
  };

  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    // Key constants: `kFoo = "a.b.c";` (types.h style).
    if (toks[i].kind == TokKind::kIdent && toks[i].text.size() > 1 &&
        toks[i].text[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(toks[i].text[1])) &&
        is_punct(toks[i + 1], "=") && i + 3 < toks.size() &&
        toks[i + 2].kind == TokKind::kString && is_punct(toks[i + 3], ";") &&
        key_shaped(toks[i + 2].text)) {
      record(toks[i + 2].text, toks[i + 2].line);
      continue;
    }
    // Direct literals: `conf.set_bytes("io.sort.mb", ...)`. Requiring
    // the dot in the literal keeps Json::set("field", ...) out.
    if (toks[i].kind == TokKind::kIdent && kConfAccessors.count(toks[i].text) &&
        i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        is_punct(toks[i + 1], "(") && i + 2 < toks.size() &&
        toks[i + 2].kind == TokKind::kString && key_shaped(toks[i + 2].text)) {
      record(toks[i + 2].text, toks[i + 2].line);
    }
  }
}

void extract_metric_names(const LexedFile& file, std::vector<NameUse>* uses,
                          std::vector<Finding>* out) {
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        !kMetricFactories.count(toks[i].text) || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    // Scan the first argument (up to a top-level ',' or the closing ')')
    // for its first string literal.
    int depth = 1;
    size_t arg_tokens = 0;
    const Token* literal = nullptr;
    for (size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) {
        if (--depth == 0) break;
      }
      if (depth == 1 && is_punct(toks[j], ",")) break;
      ++arg_tokens;
      if (literal == nullptr && toks[j].kind == TokKind::kString) {
        literal = &toks[j];
      }
    }
    if (literal == nullptr) continue;
    const bool partial = arg_tokens != 1;
    const std::string& name = literal->text;
    if (!dotted_name(name, partial ? 1 : 2)) {
      out->push_back({"metric-registry", file.path, literal->line,
                      "metric name \"" + name +
                          "\" violates the dot-separated lowercase "
                          "convention (subsystem.metric, [a-z0-9_] "
                          "components)"});
      continue;
    }
    uses->push_back({name, file.path, literal->line, partial});
  }
}

std::vector<std::pair<std::string, int>> doc_table_names(
    std::string_view markdown) {
  std::vector<std::pair<std::string, int>> names;
  int line_no = 0;
  size_t start = 0;
  while (start <= markdown.size()) {
    auto end = markdown.find('\n', start);
    if (end == std::string_view::npos) end = markdown.size();
    std::string_view line = markdown.substr(start, end - start);
    ++line_no;
    start = end + 1;

    // Table rows: `| `first cell`| ...`. The first cell must hold one
    // backticked name.
    size_t p = 0;
    while (p < line.size() && std::isspace(static_cast<unsigned char>(line[p]))) {
      ++p;
    }
    if (p >= line.size() || line[p] != '|') continue;
    const auto cell_end = line.find('|', p + 1);
    if (cell_end == std::string_view::npos) continue;
    std::string_view cell = line.substr(p + 1, cell_end - p - 1);
    const auto tick1 = cell.find('`');
    if (tick1 == std::string_view::npos) continue;
    const auto tick2 = cell.find('`', tick1 + 1);
    if (tick2 == std::string_view::npos) continue;
    std::string_view name = cell.substr(tick1 + 1, tick2 - tick1 - 1);
    if (!name.empty()) names.emplace_back(std::string(name), line_no);
    if (start > markdown.size()) break;
  }
  return names;
}

void cross_check_config(const std::vector<NameUse>& uses,
                        std::string_view doc, const std::string& doc_path,
                        std::vector<Finding>* out) {
  const auto doc_names = doc_table_names(doc);
  std::set<std::string> documented;
  for (const auto& [name, line] : doc_names) documented.insert(name);

  std::set<std::string> reported;
  std::set<std::string> used;
  for (const NameUse& use : uses) {
    used.insert(use.name);
    if (!documented.count(use.name) && reported.insert(use.name).second) {
      out->push_back({"config-registry", use.file, use.line,
                      "config key `" + use.name + "` is not documented in " +
                          doc_path + " (add a table row: key, type, "
                          "default, meaning)"});
    }
  }
  for (const auto& [name, line] : doc_names) {
    if (!used.count(name)) {
      out->push_back({"config-registry", doc_path, line,
                      "documented config key `" + name +
                          "` is referenced nowhere in src/ or tools/ "
                          "(dead doc entry — delete the row or wire the "
                          "key up)"});
    }
  }
}

void cross_check_metrics(const std::vector<NameUse>& uses,
                         std::string_view doc, const std::string& doc_path,
                         std::vector<Finding>* out) {
  const auto doc_names = doc_table_names(doc);
  const auto doc_matches = [&](const NameUse& use) {
    for (const auto& [name, line] : doc_names) {
      if (name == use.name) return true;
      if (use.partial && name.size() > use.name.size() &&
          name.compare(name.size() - use.name.size(), std::string::npos,
                       use.name) == 0 &&
          name[name.size() - use.name.size() - 1] == '.') {
        return true;
      }
    }
    return false;
  };
  const auto use_matches = [&](const std::string& doc_name) {
    for (const NameUse& use : uses) {
      if (use.name == doc_name) return true;
      if (use.partial && doc_name.size() > use.name.size() &&
          doc_name.compare(doc_name.size() - use.name.size(),
                           std::string::npos, use.name) == 0 &&
          doc_name[doc_name.size() - use.name.size() - 1] == '.') {
        return true;
      }
    }
    return false;
  };

  std::set<std::string> reported;
  for (const NameUse& use : uses) {
    if (!doc_matches(use) && reported.insert(use.name).second) {
      out->push_back({"metric-registry", use.file, use.line,
                      "metric `" + use.name + (use.partial ? "` (suffix)" : "`") +
                          " is not documented in " + doc_path +
                          " (regenerate: hmr_lint --list-metrics, then add "
                          "the row)"});
    }
  }
  for (const auto& [name, line] : doc_names) {
    if (!use_matches(name)) {
      out->push_back({"metric-registry", doc_path, line,
                      "documented metric `" + name +
                          "` is registered nowhere in src/ (dead doc "
                          "entry)"});
    }
  }
}

}  // namespace hmr::lint
