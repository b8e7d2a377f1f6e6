#include "lint/function_index.h"

#include <set>

namespace hmr::lint {

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

size_t match_paren(const std::vector<Token>& toks, size_t open, size_t end) {
  int depth = 0;
  for (size_t i = open; i < end; ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return std::string::npos;
}

size_t match_brace(const std::vector<Token>& toks, size_t open, size_t end) {
  int depth = 0;
  for (size_t i = open; i < end; ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    if (is_punct(toks[i], "}") && --depth == 0) return i;
  }
  return std::string::npos;
}

size_t match_bracket(const std::vector<Token>& toks, size_t open, size_t end) {
  int depth = 0;
  for (size_t i = open; i < end; ++i) {
    if (is_punct(toks[i], "[")) ++depth;
    if (is_punct(toks[i], "]") && --depth == 0) return i;
  }
  return std::string::npos;
}

// Keywords that look like `name(` call sites but are not calls.
const std::set<std::string, std::less<>> kNotCalls = {
    "if",       "while",    "for",      "switch",  "return", "co_return",
    "co_await", "co_yield", "sizeof",   "alignof", "catch",  "operator",
    "decltype", "new",      "delete",   "throw",   "assert", "defined",
    "noexcept", "alignas",  "requires", "typeid"};

// Walks back over a `a.b->c::d` chain ending at `name_idx`. Returns the
// index of the chain's first identifier.
size_t chain_start(const std::vector<Token>& toks, size_t name_idx,
                   size_t begin) {
  size_t s = name_idx;
  while (s >= begin + 2 &&
         (is_punct(toks[s - 1], ".") || is_punct(toks[s - 1], "->") ||
          is_punct(toks[s - 1], "::")) &&
         toks[s - 2].kind == TokKind::kIdent) {
    s -= 2;
  }
  return s;
}

}  // namespace

void FunctionIndex::add_file(const LexedFile& file) {
  const auto& toks = file.tokens;
  const size_t n = toks.size();

  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
    std::string name;
    int depth = 0;        // brace depth inside the scope
    int fn_index = -1;    // fns_ index for kFunction
  };
  std::vector<Scope> scopes;
  int depth = 0;
  // What the next `{` opens; reset after use.
  Scope pending;
  bool has_pending = false;
  size_t stmt_start = 0;

  const auto qualified_prefix = [&]() {
    std::string q;
    for (const Scope& s : scopes) {
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    return q;
  };

  // Return-type scan over [stmt_start, chain_first): 0 other, 1 Status,
  // 2 Result, 3 void-like.
  const auto ret_kind = [&](size_t from, size_t to) {
    int kind = 0;
    for (size_t k = from; k < to; ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      if (toks[k].text == "Task") {
        if (k + 2 < to && is_punct(toks[k + 1], "<") &&
            is_punct(toks[k + 2], ">")) {
          kind = 3;  // fire-and-forget coroutine, void-like
        }
      } else if (toks[k].text == "Status") {
        kind = 1;
      } else if (toks[k].text == "Result" && k + 1 < to &&
                 is_punct(toks[k + 1], "<")) {
        kind = 2;
      } else if (toks[k].text == "void" &&
                 !(k > from && is_punct(toks[k - 1], "("))) {
        if (kind == 0) kind = 3;
      }
    }
    return kind;
  };

  for (size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    const bool in_function =
        !scopes.empty() && scopes.back().kind == Scope::kFunction;

    if (is_punct(t, "{")) {
      ++depth;
      if (!in_function) {
        if (has_pending) {
          pending.depth = depth;
          scopes.push_back(pending);
          has_pending = false;
        } else {
          scopes.push_back({Scope::kOther, "", depth, -1});
        }
      }
      stmt_start = i + 1;
      continue;
    }
    if (is_punct(t, "}")) {
      --depth;
      if (!scopes.empty() && depth < scopes.back().depth) {
        if (scopes.back().kind == Scope::kFunction) {
          FunctionDef& fn = fns_[size_t(scopes.back().fn_index)];
          fn.body_end = i;
        }
        scopes.pop_back();
      }
      stmt_start = i + 1;
      continue;
    }
    if (in_function) continue;  // bodies are skipped, not indexed
    if (t.kind == TokKind::kPreproc || is_punct(t, ";") || is_punct(t, ":")) {
      stmt_start = i + 1;
      continue;
    }

    if (is_ident(t, "template") && i + 1 < n && is_punct(toks[i + 1], "<")) {
      int angle = 0;
      size_t j = i + 1;
      for (; j < n; ++j) {
        if (is_punct(toks[j], "<")) ++angle;
        if (is_punct(toks[j], ">") && --angle == 0) break;
      }
      i = j;
      continue;
    }

    if (is_ident(t, "namespace")) {
      std::string name;
      size_t j = i + 1;
      while (j < n && toks[j].kind == TokKind::kIdent) {
        if (!name.empty()) name += "::";
        name += toks[j].text;
        if (j + 1 < n && is_punct(toks[j + 1], "::")) {
          j += 2;
        } else {
          ++j;
          break;
        }
      }
      if (j < n && is_punct(toks[j], "{")) {
        pending = {Scope::kNamespace, name, 0, -1};
        has_pending = true;
        i = j - 1;
      }
      continue;
    }

    if ((is_ident(t, "class") || is_ident(t, "struct") ||
         is_ident(t, "union")) &&
        !(i > 0 && is_ident(toks[i - 1], "enum"))) {
      size_t j = i + 1;
      // Skip attributes and alignas before the name.
      while (j < n) {
        if (is_punct(toks[j], "[")) {
          const size_t close = match_bracket(toks, j, n);
          if (close == std::string::npos) break;
          j = close + 1;
        } else if (is_ident(toks[j], "alignas") && j + 1 < n &&
                   is_punct(toks[j + 1], "(")) {
          const size_t close = match_paren(toks, j + 1, n);
          if (close == std::string::npos) break;
          j = close + 1;
        } else {
          break;
        }
      }
      if (j >= n || toks[j].kind != TokKind::kIdent) continue;
      const std::string name = toks[j].text;
      // Walk to `{` (definition) or `;` (forward declaration).
      for (++j; j < n; ++j) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "(") ||
            is_punct(toks[j], "=")) {
          break;
        }
        if (is_punct(toks[j], "{")) {
          pending = {Scope::kClass, name, 0, -1};
          has_pending = true;
          i = j - 1;
          break;
        }
      }
      continue;
    }

    if (!is_punct(t, "(")) continue;

    // Candidate function signature: identifier chain directly before the
    // open paren, preceded by a type-ish token or a statement boundary.
    if (i == 0 || toks[i - 1].kind != TokKind::kIdent) continue;
    const size_t name_idx = i - 1;
    if (kNotCalls.count(toks[name_idx].text)) continue;
    const size_t s = chain_start(toks, name_idx, 0);
    if (s > 0) {
      const Token& before = toks[s - 1];
      const bool type_ish =
          (before.kind == TokKind::kIdent && before.text != "return" &&
           before.text != "co_await" && before.text != "co_return") ||
          is_punct(before, ">") || is_punct(before, "&") ||
          is_punct(before, "*") || is_punct(before, "]");
      const bool boundary = before.kind == TokKind::kPreproc ||
                            is_punct(before, ";") || is_punct(before, "{") ||
                            is_punct(before, "}") || is_punct(before, ":");
      if (!type_ish && !boundary) continue;
      if (is_punct(before, "~")) continue;
    }
    // Destructor chain (`~Foo()`).
    if (s > 0 && is_punct(toks[s - 1], "~")) continue;

    const size_t close = match_paren(toks, i, n);
    if (close == std::string::npos) continue;
    size_t k = close + 1;
    // Skip cv/ref/noexcept/override/final and trailing return types.
    while (k < n) {
      if (is_ident(toks[k], "const") || is_ident(toks[k], "override") ||
          is_ident(toks[k], "final") || is_punct(toks[k], "&")) {
        ++k;
      } else if (is_ident(toks[k], "noexcept")) {
        ++k;
        if (k < n && is_punct(toks[k], "(")) {
          const size_t nc = match_paren(toks, k, n);
          if (nc == std::string::npos) break;
          k = nc + 1;
        }
      } else if (is_punct(toks[k], "->")) {
        // Trailing return type: skip to `{` or `;` at this level.
        ++k;
        while (k < n && !is_punct(toks[k], "{") && !is_punct(toks[k], ";")) {
          ++k;
        }
      } else {
        break;
      }
    }
    if (k >= n) continue;

    // Member-initializer list before the body.
    if (is_punct(toks[k], ":")) {
      ++k;
      while (k < n) {
        if (toks[k].kind == TokKind::kIdent || is_punct(toks[k], "::")) {
          ++k;
          continue;
        }
        if (is_punct(toks[k], "(")) {
          const size_t c2 = match_paren(toks, k, n);
          if (c2 == std::string::npos) break;
          k = c2 + 1;
          if (k < n && is_punct(toks[k], ",")) {
            ++k;
            continue;
          }
          break;
        }
        if (is_punct(toks[k], "{")) {
          const size_t c2 = match_brace(toks, k, n);
          if (c2 == std::string::npos) break;
          k = c2 + 1;
          if (k < n && is_punct(toks[k], ",")) {
            ++k;
            continue;
          }
          break;
        }
        break;
      }
    }
    if (k >= n) continue;

    const bool is_def = is_punct(toks[k], "{");
    const bool is_decl = is_punct(toks[k], ";") || is_punct(toks[k], "=");
    if (!is_def && !is_decl) continue;

    std::string chain;
    for (size_t c = s; c <= name_idx; c += 2) {
      if (!chain.empty()) chain += "::";
      chain += toks[c].text;
    }
    const std::string prefix = qualified_prefix();
    const std::string qualified =
        prefix.empty() ? chain : prefix + "::" + chain;

    const int kind = ret_kind(stmt_start, s);
    if (kind != 0) ret_decls_.push_back({qualified, kind});

    if (is_def) {
      FunctionDef fn;
      fn.qualified = qualified;
      fn.file = file.path;
      fn.body_begin = k + 1;
      fn.body_end = k + 1;  // fixed up when the body closes
      fns_.push_back(std::move(fn));
      pending = {Scope::kFunction, "", 0, int(fns_.size() - 1)};
      has_pending = true;
      i = k - 1;
    } else {
      i = k;
      stmt_start = k + 1;
    }
  }
}

void FunctionIndex::fill_registry(FunctionRegistry* reg) const {
  for (const RetDecl& decl : ret_decls_) {
    switch (decl.kind) {
      case 1:
        reg->qualified_status_fns.insert(decl.qualified);
        break;
      case 2:
        reg->qualified_result_fns.insert(decl.qualified);
        break;
      case 3:
        reg->qualified_void_fns.insert(decl.qualified);
        break;
      default:
        break;
    }
  }
}

void check_coroutine_borrow(const LexedFile& file, const FunctionIndex& index,
                            std::vector<Finding>* out) {
  const auto& toks = file.tokens;
  for (const FunctionDef& fn : index.functions()) {
    if (fn.file != file.path || fn.body_end <= fn.body_begin) continue;
    std::vector<size_t> awaits;
    for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
      if (is_ident(toks[k], "co_await")) awaits.push_back(k);
    }
    if (awaits.empty()) continue;

    struct Borrow {
      std::string var;
      size_t decl = 0;
      const char* what = "";
    };
    std::vector<Borrow> borrows;
    for (size_t k = fn.body_begin; k + 2 < fn.body_end; ++k) {
      // `dataplane::KvView v;` / `KvView v = ...` — non-owning spans
      // into a source's arena or backing buffer.
      if (is_ident(toks[k], "KvView") &&
          toks[k + 1].kind == TokKind::kIdent &&
          (is_punct(toks[k + 2], ";") || is_punct(toks[k + 2], "=") ||
           is_punct(toks[k + 2], "{"))) {
        borrows.push_back({toks[k + 1].text, k, "KvView"});
        continue;
      }
      // `auto s = arena.allocate(...)` / `arena_.copy(...)` — spans valid
      // only until the arena resets.
      if ((is_ident(toks[k + 1], "allocate") || is_ident(toks[k + 1], "copy")) &&
          (is_punct(toks[k], ".") || is_punct(toks[k], "->")) && k > fn.body_begin &&
          toks[k - 1].kind == TokKind::kIdent &&
          toks[k - 1].text.find("arena") != std::string::npos &&
          k + 2 < fn.body_end && is_punct(toks[k + 2], "(")) {
        // Walk back over `<recv>.allocate` to `<var> =`.
        size_t eq = k - 1;
        while (eq > fn.body_begin && !is_punct(toks[eq], "=") &&
               !is_punct(toks[eq], ";") && !is_punct(toks[eq], "{")) {
          --eq;
        }
        if (is_punct(toks[eq], "=") && eq > fn.body_begin &&
            toks[eq - 1].kind == TokKind::kIdent) {
          borrows.push_back({toks[eq - 1].text, eq - 1, "arena span"});
        }
      }
    }

    for (const Borrow& borrow : borrows) {
      bool flagged = false;
      for (const size_t await_at : awaits) {
        if (flagged || await_at <= borrow.decl) continue;
        bool statement_boundary = false;
        for (size_t u = await_at + 1; u < fn.body_end; ++u) {
          if (is_punct(toks[u], ";")) {
            statement_boundary = true;
            continue;
          }
          if (!statement_boundary) continue;  // same statement as the await
          if (is_ident(toks[u], borrow.var)) {
            out->push_back(
                {"coroutine-borrow", file.path, toks[u].line,
                 "`" + borrow.var + "` (" + borrow.what +
                     ", declared line " +
                     std::to_string(toks[borrow.decl].line) +
                     ") is used after a co_await at line " +
                     std::to_string(toks[await_at].line) +
                     "; borrowed memory may be gone after a suspension — "
                     "copy it out or re-materialize after resuming (rule "
                     "coroutine-borrow, docs/LINT.md)"});
            flagged = true;
            break;
          }
        }
      }
    }
  }
}

}  // namespace hmr::lint
