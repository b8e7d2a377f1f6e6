#include "lint/rules.h"

#include <cctype>
#include <cstddef>
#include <map>
#include <optional>

namespace hmr::lint {

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// Index of the ')' matching the '(' at `open`, or npos.
size_t match_paren(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return std::string::npos;
}

// Index of the '(' matching the ')' at `close`, or npos.
size_t match_paren_back(const std::vector<Token>& toks, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], ")")) ++depth;
    if (is_punct(toks[i], "(") && --depth == 0) return i;
  }
  return std::string::npos;
}

// Whole-word occurrence of `word` in `line` starting at or after `from`.
size_t find_word(std::string_view line, std::string_view word, size_t from = 0) {
  const auto boundary = [](char c) {
    return !(std::isalnum(static_cast<unsigned char>(c)) || c == '_');
  };
  size_t pos = from;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || boundary(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || boundary(line[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

std::string strip_spaces(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  for (char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

// True when the identifier starting at s[start] is written `std::ident`
// (e.g. the `string` in `std::string(name)`), which can never be one of
// the repo's Status/Result functions.
bool std_qualified(std::string_view s, size_t start) {
  return start >= 5 && s.substr(start - 5, 5) == "std::";
}

}  // namespace

namespace {

// True when some entry of `qualified` is exactly `qualifier::name` or
// ends with `::qualifier::name` — i.e. the written qualification is a
// suffix of the declaration's full scope chain.
bool qualified_match(const std::set<std::string>& qualified,
                     const std::string& qualifier, const std::string& name) {
  const std::string suffix = qualifier + "::" + name;
  for (const std::string& q : qualified) {
    if (q == suffix) return true;
    if (q.size() > suffix.size() + 2 &&
        q.compare(q.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        q.compare(q.size() - suffix.size() - 2, 2, "::") == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

void FunctionRegistry::finalize() {
  for (const auto& name : void_like_fns) {
    status_fns.erase(name);
    result_fns.erase(name);
  }
  for (const auto& name : qualified_void_fns) {
    qualified_status_fns.erase(name);
    qualified_result_fns.erase(name);
  }
}

bool FunctionRegistry::is_status_call(const std::string& name,
                                      const std::string& qualifier) const {
  if (!qualifier.empty()) {
    if (qualified_match(qualified_status_fns, qualifier, name)) return true;
    // A qualified void-like match is definitive: don't fall back to the
    // (aliased) bare name.
    if (qualified_match(qualified_void_fns, qualifier, name) ||
        qualified_match(qualified_result_fns, qualifier, name)) {
      return false;
    }
  }
  return is_status(name);
}

bool FunctionRegistry::is_result_call(const std::string& name,
                                      const std::string& qualifier) const {
  if (!qualifier.empty()) {
    if (qualified_match(qualified_result_fns, qualifier, name)) return true;
    if (qualified_match(qualified_void_fns, qualifier, name) ||
        qualified_match(qualified_status_fns, qualifier, name)) {
      return false;
    }
  }
  return is_result(name);
}

void collect_function_returns(const LexedFile& file, FunctionRegistry* reg) {
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const bool is_status_tok = is_ident(toks[i], "Status");
    const bool is_result_tok = is_ident(toks[i], "Result");
    // Void-like returns feed the ambiguity filter: `void f(...)` and the
    // fire-and-forget coroutine form `sim::Task<> f(...)`.
    bool is_void_tok = is_ident(toks[i], "void");
    if (is_ident(toks[i], "Task") && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "<") && is_punct(toks[i + 2], ">")) {
      is_void_tok = true;
    }
    if (!is_status_tok && !is_result_tok && !is_void_tok) continue;
    if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                  is_ident(toks[i - 1], "class") ||
                  is_ident(toks[i - 1], "struct") ||
                  is_ident(toks[i - 1], "enum"))) {
      continue;
    }
    // `(void)` casts are not declarations.
    if (is_void_tok && i > 0 && is_punct(toks[i - 1], "(")) continue;
    size_t j = i + 1;
    if (is_result_tok || (is_void_tok && !is_ident(toks[i], "void"))) {
      // Require the template argument list: `Result<...>` / `Task<>`.
      if (j >= toks.size() || !is_punct(toks[j], "<")) continue;
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], "<")) ++depth;
        if (is_punct(toks[j], ">") && --depth == 0) break;
      }
      if (j >= toks.size()) continue;
      ++j;  // past the closing '>'
    }
    // Skip wrapper closers and decorations: `Task<Status>`, `Result<T>&&`.
    while (j < toks.size() &&
           (is_punct(toks[j], ">") || is_punct(toks[j], "&") ||
            is_punct(toks[j], "*") || is_ident(toks[j], "const"))) {
      ++j;
    }
    // Identifier chain, possibly qualified: `Disk::write`.
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    std::string name = toks[j].text;
    ++j;
    while (j + 1 < toks.size() && is_punct(toks[j], "::") &&
           toks[j + 1].kind == TokKind::kIdent) {
      name = toks[j + 1].text;
      j += 2;
    }
    if (j >= toks.size() || !is_punct(toks[j], "(")) continue;
    if (name == "operator" || name == "if" || name == "while" ||
        name == "for" || name == "return" || name == "switch") {
      continue;
    }
    if (is_status_tok) {
      reg->status_fns.insert(name);
    } else if (is_result_tok) {
      reg->result_fns.insert(name);
    } else {
      reg->void_like_fns.insert(name);
    }
  }
}

void check_determinism(const LexedFile& file, std::vector<Finding>* out) {
  struct Ban {
    const char* advice;
    bool needs_call;  // only flag when followed by '('
  };
  static const std::map<std::string, Ban, std::less<>> kBans = {
      {"unordered_map",
       {"iteration order is unspecified; use std::map (sorted, deterministic)",
        false}},
      {"unordered_set",
       {"iteration order is unspecified; use std::set (sorted, deterministic)",
        false}},
      {"unordered_multimap",
       {"iteration order is unspecified; use std::multimap", false}},
      {"unordered_multiset",
       {"iteration order is unspecified; use std::multiset", false}},
      {"random_device",
       {"OS entropy breaks replay; derive a named hmr::Rng stream "
        "(common/rng.h)",
        false}},
      {"mt19937",
       {"library RNG bypasses seed-stream derivation; use hmr::Rng "
        "(common/rng.h)",
        false}},
      {"mt19937_64",
       {"library RNG bypasses seed-stream derivation; use hmr::Rng "
        "(common/rng.h)",
        false}},
      {"default_random_engine",
       {"library RNG bypasses seed-stream derivation; use hmr::Rng "
        "(common/rng.h)",
        false}},
      {"rand",
       {"libc randomness breaks replay; use hmr::Rng (common/rng.h)", true}},
      {"srand",
       {"libc randomness breaks replay; use hmr::Rng (common/rng.h)", true}},
      {"getenv",
       {"environment reads make runs host-dependent; plumb the setting "
        "through Conf",
        true}},
      {"system_clock",
       {"wall clock in sim-facing code; simulated time flows through "
        "sim::Engine::now()",
        false}},
      {"steady_clock",
       {"wall clock in sim-facing code; simulated time flows through "
        "sim::Engine::now()",
        false}},
      {"high_resolution_clock",
       {"wall clock in sim-facing code; simulated time flows through "
        "sim::Engine::now()",
        false}},
  };
  static const char* kBannedHeaders[] = {"<unordered_map>", "<unordered_set>",
                                         "<random>", "<chrono>"};

  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPreproc) {
      if (t.text.find("include") == std::string::npos) continue;
      for (const char* header : kBannedHeaders) {
        if (t.text.find(header) != std::string::npos) {
          out->push_back({"determinism", file.path, t.line,
                          "#include " + std::string(header) +
                              " in sim-facing code; determinism bans this "
                              "header (see docs/TESTING.md)"});
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    const auto it = kBans.find(t.text);
    if (it == kBans.end()) continue;
    if (it->second.needs_call &&
        (i + 1 >= toks.size() || !is_punct(toks[i + 1], "("))) {
      continue;
    }
    // Member accesses (`x.rand()`) are a different function entirely.
    if (it->second.needs_call && i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      continue;
    }
    out->push_back({"determinism", file.path, t.line,
                    "`" + t.text + "`: " + it->second.advice});
  }
}

namespace {

// Index of the closer matching the opener at `open` (same bracket kind),
// or npos.
size_t match_bracket(const std::vector<Token>& toks, size_t open,
                     std::string_view opener, std::string_view closer) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    if (is_punct(toks[i], closer) && --depth == 0) return i;
  }
  return std::string::npos;
}

// For a lambda introducer `[` at `open`, the index of the `}` closing its
// body, or npos.
size_t skip_lambda(const std::vector<Token>& toks, size_t open) {
  size_t i = match_bracket(toks, open, "[", "]");
  if (i == std::string::npos) return i;
  for (++i; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) {
      i = match_paren(toks, i);
      if (i == std::string::npos) return i;
    } else if (is_punct(toks[i], "{")) {
      return match_bracket(toks, i, "{", "}");
    } else if (is_punct(toks[i], ";")) {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

}  // namespace

void check_coawait_aggregate(const LexedFile& file, std::vector<Finding>* out) {
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "co_await")) continue;
    // Walk the operand: it ends at a `;` or `,` at its own nesting level,
    // or at a closer belonging to an enclosing expression.
    int depth = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "[" && (is_punct(toks[j - 1], "(") ||
                            is_punct(toks[j - 1], ",") || j == i + 1)) {
        j = skip_lambda(toks, j);  // a lambda's body is not an initializer
        if (j == std::string::npos) break;
        continue;
      }
      if (t.text == "{") {
        out->push_back({"coawait-aggregate", file.path, t.line,
                        "braced initializer inside a co_await operand; GCC "
                        "12 miscompiles aggregate temporaries built there, "
                        "so build the value as a named local first"});
        j = match_bracket(toks, j, "{", "}");
        if (j == std::string::npos) break;
        continue;
      }
      if (t.text == "(" || t.text == "[") {
        ++depth;
      } else if (t.text == ")" || t.text == "]") {
        if (depth-- == 0) break;
      } else if (t.text == ";" || t.text == "}" ||
                 (t.text == "," && depth == 0)) {
        break;
      }
    }
  }
}

namespace {

// Looks backward from `use_line` for `auto r = <result-call>;`-style
// bindings. Returns the binding line when `r` visibly holds a
// Result<T>, nullopt when its type can't be established (in which case
// the access rules stay silent rather than guess).
std::optional<int> result_binding_line(const LexedFile& file,
                                       const FunctionRegistry& reg,
                                       const std::string& r, int use_line) {
  const int lo = use_line - 60 < 1 ? 1 : use_line - 60;
  for (int ln = use_line; ln >= lo; --ln) {
    const std::string& line = file.lines[size_t(ln - 1)];
    const size_t pos = find_word(line, r);
    if (pos == std::string_view::npos) continue;
    // Want `r =` (plain assignment, not ==, +=, ...).
    size_t eq = pos + r.size();
    while (eq < line.size() && std::isspace(static_cast<unsigned char>(line[eq]))) {
      ++eq;
    }
    if (eq >= line.size() || line[eq] != '=') continue;
    if (eq + 1 < line.size() && line[eq + 1] == '=') continue;
    if (ln == use_line) continue;  // binding and use on one line: assume fine
    // Does the right-hand side call a Result-returning function?
    std::string_view rhs = std::string_view(line).substr(eq + 1);
    std::string word;
    for (size_t k = 0; k <= rhs.size(); ++k) {
      const char c = k < rhs.size() ? rhs[k] : '\0';
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        word.push_back(c);
      } else {
        if (!word.empty() && c == '(' && reg.is_result(word) &&
            !std_qualified(rhs, k - word.size())) {
          return ln;
        }
        word.clear();
      }
    }
    return std::nullopt;  // bound, but not visibly from a Result call
  }
  return std::nullopt;
}

bool guard_between(const LexedFile& file, const std::string& r, int from_line,
                   int to_line) {
  for (int ln = from_line; ln <= to_line; ++ln) {
    const std::string& line = file.lines[size_t(ln - 1)];
    size_t pos = 0;
    while ((pos = find_word(line, r, pos)) != std::string_view::npos) {
      const std::string_view after = std::string_view(line).substr(pos + r.size());
      if (after.rfind(".ok(", 0) == 0) return true;
      if (pos > 0 && line[pos - 1] == '!') return true;
      pos += r.size();
    }
    const std::string dense = strip_spaces(line);
    if (dense.find("if(" + r + ")") != std::string::npos) return true;
    if (dense.find("while(" + r + ")") != std::string::npos) return true;
  }
  return false;
}

void flag_value_access(const LexedFile& file, const FunctionRegistry& reg,
                       const std::string& r, int use_line, const char* how,
                       std::vector<Finding>* out) {
  const auto binding = result_binding_line(file, reg, r, use_line);
  if (!binding) return;  // type unknown; stay silent
  if (guard_between(file, r, *binding, use_line)) return;
  out->push_back(
      {"status-discipline", file.path, use_line,
       std::string("Result `") + r + "` is " + how +
           " without a preceding ok() check (bound at line " +
           std::to_string(*binding) +
           "); check it, use value_or(), or suppress with "
           "lint:ignore(status-discipline): <why>"});
}

}  // namespace

void check_status_discipline(const LexedFile& file,
                             const FunctionRegistry& reg,
                             bool check_value_guard,
                             std::vector<Finding>* out) {
  const auto& toks = file.tokens;

  // --- discarded call results --------------------------------------------
  for (size_t i = 0; i < toks.size(); ++i) {
    const bool at_start =
        i == 0 || toks[i - 1].kind == TokKind::kPreproc ||
        is_punct(toks[i - 1], ";") || is_punct(toks[i - 1], "{") ||
        is_punct(toks[i - 1], "}");
    if (!at_start) continue;
    size_t k = i;
    bool laundered = false;
    if (k + 2 < toks.size() && is_punct(toks[k], "(") &&
        is_ident(toks[k + 1], "void") && is_punct(toks[k + 2], ")")) {
      laundered = true;
      k += 3;
    }
    if (k < toks.size() && is_ident(toks[k], "co_await")) ++k;
    if (k >= toks.size() || toks[k].kind != TokKind::kIdent) continue;
    // `std::`-qualified calls are never repo Status/Result functions
    // (std::remove returns int); skip the chain to dodge name aliasing.
    if (is_ident(toks[k], "std") && k + 1 < toks.size() &&
        is_punct(toks[k + 1], "::")) {
      continue;
    }

    // Walk an `a.b().c(...)`-shaped chain; remember the last called name
    // and, for `A::f(...)` shapes, the written qualifier — it lets the
    // registry resolve names whose bare form is ambiguous.
    std::string last_ident = toks[k].text;
    std::string last_qualifier;
    std::string called;
    std::string called_qualifier;
    ++k;
    bool ended_with_semicolon = false;
    while (k < toks.size()) {
      if (is_punct(toks[k], ".") || is_punct(toks[k], "->") ||
          is_punct(toks[k], "::")) {
        if (k + 1 >= toks.size() || toks[k + 1].kind != TokKind::kIdent) break;
        if (is_punct(toks[k], "::")) {
          last_qualifier = last_qualifier.empty()
                               ? last_ident
                               : last_qualifier + "::" + last_ident;
        } else {
          last_qualifier.clear();
        }
        last_ident = toks[k + 1].text;
        k += 2;
        continue;
      }
      if (is_punct(toks[k], "(")) {
        const size_t close = match_paren(toks, k);
        if (close == std::string::npos) break;
        called = last_ident;
        called_qualifier = last_qualifier;
        last_qualifier.clear();
        k = close + 1;
        continue;
      }
      if (is_punct(toks[k], ";")) {
        ended_with_semicolon = true;
      }
      break;
    }
    if (!ended_with_semicolon || called.empty()) continue;
    if (!reg.is_checked_call(called, called_qualifier)) continue;
    const char* kind =
        reg.is_status_call(called, called_qualifier) ? "Status" : "Result";
    out->push_back(
        {"status-discipline", file.path, toks[i].line,
         std::string("result of `") + called + "` (" + kind + ") is " +
             (laundered ? "discarded through a (void) cast" : "silently discarded") +
             "; handle it, wrap it in HMR_RETURN_IF_ERROR, or suppress "
             "with lint:ignore(status-discipline): <why>"});
  }

  if (!check_value_guard) return;

  // --- .value() / deref without a visible ok() check ---------------------
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(is_punct(toks[i], ".") && is_ident(toks[i + 1], "value") &&
          is_punct(toks[i + 2], "(") && is_punct(toks[i + 3], ")"))) {
      continue;
    }
    if (i == 0) continue;
    const Token& recv = toks[i - 1];
    if (recv.kind == TokKind::kIdent) {
      flag_value_access(file, reg, recv.text, toks[i].line,
                        "accessed with .value()", out);
      continue;
    }
    if (!is_punct(recv, ")")) continue;
    const size_t open = match_paren_back(toks, i - 1);
    if (open == std::string::npos || open == 0) continue;
    // `std::move(r).value()` guards like `r.value()`.
    if (open >= 1 && is_ident(toks[open - 1], "move") && open + 2 == i - 1 &&
        toks[open + 1].kind == TokKind::kIdent) {
      flag_value_access(file, reg, toks[open + 1].text, toks[i].line,
                        "accessed with .value()", out);
      continue;
    }
    // `f(...).value()`: a fresh Result can never have been ok()-checked.
    if (open >= 3 && is_punct(toks[open - 2], "::") &&
        is_ident(toks[open - 3], "std")) {
      continue;  // std::f(...) is not a repo Result function
    }
    if (toks[open - 1].kind == TokKind::kIdent &&
        reg.is_result(toks[open - 1].text)) {
      out->push_back(
          {"status-discipline", file.path, toks[i].line,
           "`.value()` called directly on the Result returned by `" +
               toks[open - 1].text +
               "`; bind it and check ok() first (a failed Result aborts "
               "the process), or suppress with "
               "lint:ignore(status-discipline): <why>"});
    }
  }

  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    // `*r` where r visibly holds a Result — but `*p = ...` is a write
    // through a pointer (an assignment target), not a Result read.
    if (is_punct(toks[i], "*") && toks[i + 1].kind == TokKind::kIdent &&
        i > 0 &&
        (is_punct(toks[i - 1], "(") || is_punct(toks[i - 1], ",") ||
         is_punct(toks[i - 1], "=") || is_punct(toks[i - 1], "{") ||
         is_punct(toks[i - 1], ";") || is_ident(toks[i - 1], "return")) &&
        !(i + 2 < toks.size() && is_punct(toks[i + 2], "="))) {
      flag_value_access(file, reg, toks[i + 1].text, toks[i].line,
                        "dereferenced", out);
    }
    // `r->field` where r visibly holds a Result.
    if (toks[i].kind == TokKind::kIdent && is_punct(toks[i + 1], "->")) {
      flag_value_access(file, reg, toks[i].text, toks[i].line,
                        "dereferenced with ->", out);
    }
  }
}

void check_queue_storage(const LexedFile& file, std::vector<Finding>* out) {
  static const char kAdvice[] =
      "std::deque allocates a node even when empty; use sim::Fifo "
      "(sim/fifo.h), which allocates on first push";
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPreproc) {
      if (t.text.find("include") != std::string::npos &&
          t.text.find("<deque>") != std::string::npos) {
        out->push_back({"queue-storage", file.path, t.line,
                        std::string("#include <deque>: ") + kAdvice});
      }
      continue;
    }
    if (is_ident(t, "deque") && i >= 2 && is_punct(toks[i - 1], "::") &&
        is_ident(toks[i - 2], "std")) {
      out->push_back({"queue-storage", file.path, t.line,
                      std::string("`std::deque`: ") + kAdvice});
    }
  }
}

}  // namespace hmr::lint
