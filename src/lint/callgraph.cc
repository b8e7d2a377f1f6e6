#include "lint/callgraph.h"

#include <cctype>
#include <deque>
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

// True when `qualified` is exactly `suffix` or ends with "::" + suffix's
// components ("hmr::sim::Engine::now" matches "Engine::now").
bool qualified_ends_with(const std::string& qualified,
                         const std::string& suffix) {
  if (qualified == suffix) return true;
  if (qualified.size() <= suffix.size()) return false;
  if (qualified.compare(qualified.size() - suffix.size(), suffix.size(),
                        suffix) != 0) {
    return false;
  }
  const size_t at = qualified.size() - suffix.size();
  return at >= 2 && qualified.compare(at - 2, 2, "::") == 0;
}

// Keywords that look like `name(` call sites but are not calls.
const std::set<std::string, std::less<>> kNotCalls = {
    "if",       "while",    "for",      "switch",  "return", "co_return",
    "co_await", "co_yield", "sizeof",   "alignof", "catch",  "operator",
    "decltype", "new",      "delete",   "throw",   "assert", "defined",
    "noexcept", "alignas",  "requires", "typeid"};

// Identifier-shaped tokens that still introduce a call on the *next*
// identifier (`return f(x)`, `co_await g()`).
const std::set<std::string, std::less<>> kCallPrefixKeywords = {
    "return", "co_return", "co_await", "co_yield", "else", "throw", "do"};

// rand/srand/getenv call sites over [begin, end), for the
// transitive-determinism rule.
void scan_det_calls(const std::vector<Token>& toks, size_t begin, size_t end,
                    std::vector<DetCall>* det) {
  for (size_t i = begin; i + 1 < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent ||
        !(t.text == "rand" || t.text == "srand" || t.text == "getenv")) {
      continue;
    }
    const bool member_access =
        i > begin && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (is_punct(toks[i + 1], "(") && !member_access) {
      det->push_back({t.text, t.line});
    }
  }
}

// Walks back over a `a.b->c::d` chain ending just before `call_open`
// (the index of the called name). Returns the index of the chain's
// first identifier.
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

// Extracts call sites in [begin, end).
void extract_calls(const std::vector<Token>& toks, size_t begin, size_t end,
                   std::vector<CallSite>* out) {
  for (size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (i + 1 >= end || !is_punct(toks[i + 1], "(")) continue;
    if (kNotCalls.count(toks[i].text)) continue;
    CallSite call;
    call.name = toks[i].text;
    call.line = toks[i].line;
    call.token = i;
    if (i > begin) {
      const Token& prev = toks[i - 1];
      if (prev.kind == TokKind::kIdent) {
        // `ByteWriter writer(...)` — a declaration, unless the previous
        // identifier is a statement keyword that precedes expressions.
        if (!kCallPrefixKeywords.count(prev.text)) continue;
      } else if (is_punct(prev, "::")) {
        // Qualified call: collect the qualifier chain; `std::` never
        // resolves to a repo function.
        const size_t s = chain_start(toks, i, begin);
        std::string qual;
        for (size_t k = s; k + 1 < i; k += 2) {
          if (!qual.empty()) qual += "::";
          qual += toks[k].text;
        }
        if (qual == "std" || qual.rfind("std::", 0) == 0) continue;
        call.qualifier = qual;
      } else if (is_punct(prev, ".") || is_punct(prev, "->")) {
        call.member = true;
        if (i >= begin + 2 && toks[i - 2].kind == TokKind::kIdent) {
          call.receiver = toks[i - 2].text;
        }
      } else if (is_punct(prev, "<") || is_punct(prev, "~")) {
        continue;  // template argument (`<void(...)>`) or destructor
      }
    }
    const size_t s = chain_start(toks, i, begin);
    if (s > begin && is_ident(toks[s - 1], "co_await")) call.awaited = true;
    out->push_back(std::move(call));
  }
}

}  // namespace

void CallGraph::add_file(const LexedFile& file) {
  const auto& toks = file.tokens;
  const size_t n = toks.size();
  const size_t first_fn = fns_.size();

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
  // 2 Result, 3 void-like; also reports coroutine-ness (Task<...>).
  const auto ret_kind = [&](size_t from, size_t to, bool* coroutine) {
    *coroutine = false;
    int kind = 0;
    for (size_t k = from; k < to; ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      if (toks[k].text == "Task") {
        *coroutine = true;
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
    if (in_function) continue;  // bodies are processed in finalize()
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

    bool coroutine = false;
    const int kind = ret_kind(stmt_start, s, &coroutine);
    if (kind != 0) ret_decls_.push_back({qualified, kind});

    if (is_def) {
      FunctionDef fn;
      fn.qualified = qualified;
      fn.name = toks[name_idx].text;
      fn.file = file.path;
      fn.line = toks[name_idx].line;
      fn.coroutine = coroutine;
      fn.body_begin = k + 1;
      fn.body_end = k + 1;  // fixed up when the body closes
      fns_.push_back(std::move(fn));
      by_name_[toks[name_idx].text].push_back(fns_.size() - 1);
      pending = {Scope::kFunction, "", 0, int(fns_.size() - 1)};
      has_pending = true;
      i = k - 1;
    } else {
      i = k;
      stmt_start = k + 1;
    }
  }

  // Receiver typing: record what class each declared name has.
  // `PrefetchCache cache_;` narrows `cache_.get(...)` to
  // PrefetchCache::get; a `std::`-headed type (`std::priority_queue<...>
  // heap_;`) marks the name as a library object whose member calls are
  // never repo functions — except that smart-pointer wrappers
  // (`std::unique_ptr<TaskTracker> t;`) record the *pointee* class so
  // `t->start()` still resolves.
  static const std::set<std::string, std::less<>> kCvKeywords = {
      "mutable", "const", "static", "inline", "constexpr", "thread_local"};
  static const std::set<std::string, std::less<>> kSmartPtr = {
      "unique_ptr", "shared_ptr", "optional"};
  for (size_t i = 2; i + 1 < n; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const Token& nxt = toks[i + 1];
    if (!(is_punct(nxt, ";") || is_punct(nxt, "=") || is_punct(nxt, "{") ||
          is_punct(nxt, ")") || is_punct(nxt, ","))) {
      continue;
    }
    const Token& prev = toks[i - 1];
    if (!(prev.kind == TokKind::kIdent || is_punct(prev, ">") ||
          is_punct(prev, "&") || is_punct(prev, "*"))) {
      continue;
    }
    size_t s = i;
    while (s > 0) {
      const Token& b = toks[s - 1];
      if (b.kind == TokKind::kPreproc || is_punct(b, ";") ||
          is_punct(b, "{") || is_punct(b, "}") || is_punct(b, "(") ||
          is_punct(b, ",") || is_punct(b, "=") || is_punct(b, ":")) {
        break;
      }
      --s;
    }
    while (s < i && toks[s].kind == TokKind::kIdent &&
           kCvKeywords.count(toks[s].text)) {
      ++s;
    }
    if (s >= i || toks[s].kind != TokKind::kIdent) continue;
    // Head of the type: skip namespace qualifiers (`dataplane::KvView`).
    size_t h = s;
    while (h + 2 < i && is_punct(toks[h + 1], "::") &&
           toks[h + 2].kind == TokKind::kIdent) {
      if (toks[h].text == "std" && kSmartPtr.count(toks[h + 2].text)) break;
      h += 2;
    }
    std::string head = toks[h].text;
    if (head == "std") {
      // std::unique_ptr<repo::Type>: the pointee class types the name.
      if (h + 2 < i && kSmartPtr.count(toks[h + 2].text) && h + 3 < i &&
          is_punct(toks[h + 3], "<")) {
        size_t p = h + 4;
        while (p + 2 < i && is_punct(toks[p + 1], "::") &&
               toks[p + 2].kind == TokKind::kIdent) {
          p += 2;
        }
        if (p < i && toks[p].kind == TokKind::kIdent &&
            std::isupper(static_cast<unsigned char>(toks[p].text[0]))) {
          member_types_[toks[i].text].insert(toks[p].text);
          continue;
        }
      }
      std_members_.insert(toks[i].text);
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(head[0]))) {
      member_types_[toks[i].text].insert(head);
    }
  }

  // Body scans of this file's definitions: determinism call sites, call
  // sites.
  for (size_t f = first_fn; f < fns_.size(); ++f) {
    FunctionDef& fn = fns_[f];
    if (fn.body_end <= fn.body_begin) continue;
    scan_det_calls(toks, fn.body_begin, fn.body_end, &fn.det_calls);
    extract_calls(toks, fn.body_begin, fn.body_end, &fn.calls);
    for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
      if (is_ident(toks[k], "co_await") || is_ident(toks[k], "co_return")) {
        fn.coroutine = true;
        break;
      }
    }
  }
}

std::vector<std::size_t> CallGraph::resolve(
    const CallSite& call, const std::string& caller_scope) const {
  std::vector<std::size_t> out;
  // Member calls resolve only through the receiver's declared class.
  // std-typed receivers (`heap_.push(...)`), and receivers declared
  // nowhere (range-for variables, `x().get()` chains), are library or
  // unknowable objects — resolving them by bare name would alias every
  // same-named method in the repo into this call site. `this->` falls
  // through to caller-scope narrowing below.
  const std::set<std::string>* recv_types = nullptr;
  if (call.member && call.receiver != "this") {
    if (call.receiver.empty() || std_members_.count(call.receiver) != 0) {
      return out;
    }
    const auto tit = member_types_.find(call.receiver);
    if (tit == member_types_.end()) return out;
    recv_types = &tit->second;
  }
  const auto it = by_name_.find(call.name);
  if (it == by_name_.end()) return out;
  for (const std::size_t idx : it->second) {
    const FunctionDef& fn = fns_[idx];
    if (!call.qualifier.empty() &&
        !qualified_ends_with(fn.qualified, call.qualifier + "::" + call.name)) {
      continue;
    }
    if (recv_types != nullptr) {
      bool in_class = false;
      for (const std::string& type : *recv_types) {
        if (qualified_ends_with(fn.qualified, type + "::" + call.name)) {
          in_class = true;
          break;
        }
      }
      if (!in_class) continue;
    }
    out.push_back(idx);
  }
  // Only awaitables can follow co_await: when a coroutine candidate
  // exists, plain same-named functions are aliases, not targets.
  if (call.awaited && out.size() > 1) {
    std::vector<std::size_t> coro;
    for (const std::size_t idx : out) {
      if (fns_[idx].coroutine) coro.push_back(idx);
    }
    if (!coro.empty() && coro.size() < out.size()) out = std::move(coro);
  }
  // An unqualified non-member call (`refill(n)` inside Arena::allocate)
  // targets the caller's own scope when that scope declares the name.
  if (!caller_scope.empty() && out.size() > 1 && call.qualifier.empty() &&
      (!call.member || call.receiver == "this")) {
    std::vector<std::size_t> same;
    for (const std::size_t idx : out) {
      const FunctionDef& fn = fns_[idx];
      const size_t cut = fn.qualified.rfind("::");
      if (cut != std::string::npos &&
          fn.qualified.compare(0, cut, caller_scope) == 0) {
        same.push_back(idx);
      }
    }
    if (!same.empty() && same.size() < out.size()) out = std::move(same);
  }
  return out;
}

void CallGraph::finalize() {
  if (finalized_) return;
  finalized_ = true;

  const auto scope_of = [](const FunctionDef& fn) {
    const size_t cut = fn.qualified.rfind("::");
    return cut == std::string::npos ? std::string()
                                    : fn.qualified.substr(0, cut);
  };

  // Sim-context reachability (roots = coroutines). Coroutine callees
  // resolve regardless of co_await so spawn(fn(...)) edges survive.
  sim_parent_.assign(fns_.size(), -2);
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    if (fns_[i].coroutine) {
      sim_parent_[i] = -1;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    const std::size_t from = queue.front();
    queue.pop_front();
    const std::string scope = scope_of(fns_[from]);
    for (const CallSite& call : fns_[from].calls) {
      for (const std::size_t idx : resolve(call, scope)) {
        if (sim_parent_[idx] != -2) continue;
        sim_parent_[idx] = int(from);
        queue.push_back(idx);
      }
    }
  }
}

bool CallGraph::sim_reachable(std::size_t idx) const {
  return idx < sim_parent_.size() && sim_parent_[idx] != -2;
}

std::string CallGraph::sim_root_path(std::size_t idx) const {
  std::vector<std::string> names;
  std::size_t at = idx;
  for (int hops = 0; hops < 64; ++hops) {
    names.push_back(fns_[at].qualified);
    const int parent = sim_parent_[at];
    if (parent < 0) break;
    at = std::size_t(parent);
  }
  std::string path;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!path.empty()) path += " -> ";
    path += *it;
  }
  return path;
}

void CallGraph::fill_registry(FunctionRegistry* reg) const {
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

Json CallGraph::to_json() const {
  Json root = Json::object();
  root.set("schema", Json("hmr-callgraph-v1"));
  Json fns = Json::array();
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    const FunctionDef& fn = fns_[i];
    Json j = Json::object();
    j.set("function", Json(fn.qualified));
    j.set("file", Json(fn.file));
    j.set("line", Json(std::int64_t(fn.line)));
    j.set("coroutine", Json(fn.coroutine));
    j.set("sim_reachable", Json(sim_reachable(i)));
    Json calls = Json::array();
    std::set<std::string> seen;
    for (const CallSite& call : fn.calls) {
      const std::string shown =
          call.qualifier.empty() ? call.name : call.qualifier + "::" + call.name;
      if (!seen.insert(shown).second) continue;
      calls.push_back(Json(shown));
    }
    j.set("calls", std::move(calls));
    fns.push_back(std::move(j));
  }
  root.set("functions", std::move(fns));
  Json counts = Json::object();
  counts.set("functions", Json(std::int64_t(fns_.size())));
  root.set("counts", std::move(counts));
  return root;
}

void check_transitive_determinism(const LexedFile& file,
                                  const CallGraph& graph,
                                  std::vector<Finding>* out) {
  const auto& fns = graph.functions();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FunctionDef& fn = fns[i];
    if (fn.file != file.path || fn.det_calls.empty()) continue;
    if (!graph.sim_reachable(i)) continue;
    const std::string path = graph.sim_root_path(i);
    for (const DetCall& det : fn.det_calls) {
      const char* advice =
          det.name == "getenv"
              ? "environment reads make runs host-dependent; plumb the "
                "setting through Conf"
              : "libc randomness breaks replay; use hmr::Rng (common/rng.h)";
      out->push_back({"transitive-determinism", file.path, det.line,
                      "`" + det.name + "` in `" + fn.qualified +
                          "` is reachable from a sim context: " + path +
                          "; " + advice +
                          " (rule transitive-determinism, docs/LINT.md)"});
    }
  }
}

void check_coroutine_borrow(const LexedFile& file, const CallGraph& graph,
                            std::vector<Finding>* out) {
  const auto& toks = file.tokens;
  for (const FunctionDef& fn : graph.functions()) {
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
