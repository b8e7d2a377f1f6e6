// Repo-wide call graph for hmr-lint.
//
// A pre-pass over every lexed file (alongside the FunctionRegistry
// pre-pass in rules.h) records function definitions — with their
// namespace/class scope chain, body token range, and coroutine-ness —
// and the call sites inside each body. finalize() then computes which
// functions are reachable from a sim context (a coroutine).
//
// Resolution is name-based (this is a token-level linter, not a
// compiler): a call site may target every definition sharing its bare
// name, except that `std::`-qualified calls never resolve to repo
// functions. A qualifier at the call site (`Disk::write(...)`) narrows
// resolution to matching qualified definitions.
//
// Two rule families run on top (see docs/LINT.md):
//   coroutine-borrow       — KvView / arena-borrowed spans must not be
//                            held live across a co_await suspension.
//   transitive-determinism — call-time determinism bans (rand, srand,
//                            getenv) fire when the call is *reachable
//                            from a sim context* (a coroutine), not
//                            merely when it appears under src/.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "lint/lexer.h"
#include "lint/rules.h"

namespace hmr::lint {

// One call site inside a function body.
struct CallSite {
  std::string name;       // bare callee name
  std::string qualifier;  // "Disk" in `Disk::write(...)`, else empty
  int line = 0;
  bool awaited = false;     // chain directly behind a co_await
  bool member = false;      // receiver call (`x.f(...)` / `x->f(...)`)
  std::string receiver;     // first ident of the chain for member calls
  std::size_t token = 0;    // index into the owning file's token stream
};

// A banned call-time determinism token (rand/srand/getenv) found in a
// body, so transitive-determinism can report the exact site.
struct DetCall {
  std::string name;
  int line = 0;
};

struct FunctionDef {
  std::string qualified;  // scope chain + name, "::"-joined (no hmr::)
  std::string name;       // bare name
  std::string file;
  int line = 0;
  bool coroutine = false;  // Task<...> return type or co_await in body
  std::vector<CallSite> calls;
  std::vector<DetCall> det_calls;
  // Body token range [body_begin, body_end) into the owning lexed file;
  // used by the per-file rules, not serialized.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

class CallGraph {
 public:
  // Extracts definitions and call sites from `file`. Call once per file,
  // then finalize() exactly once.
  void add_file(const LexedFile& file);

  // Runs the sim-context reachability pass (roots = coroutines).
  void finalize();

  const std::vector<FunctionDef>& functions() const { return fns_; }

  // True when fns_[idx] is a coroutine or reachable from one.
  bool sim_reachable(std::size_t idx) const;
  // "run_map_task -> charge_cpu -> f" root-first path witnessing
  // sim_reachable; just the function's own name when it is a root.
  std::string sim_root_path(std::size_t idx) const;

  // Also records Status/Result/void-like return kinds (declarations and
  // definitions) under their qualified names into `reg`, shrinking the
  // bare-name ambiguity drop set (see FunctionRegistry).
  void fill_registry(FunctionRegistry* reg) const;

  // {"schema":"hmr-callgraph-v1","functions":[...]} for the CI artifact.
  Json to_json() const;

 private:
  // Indices of definitions a call may target. Two narrowings fight
  // bare-name aliasing: awaited calls prefer coroutine candidates (only
  // awaitables can follow co_await), and unqualified non-member calls
  // prefer candidates of the caller's own scope (`caller_scope`, the
  // calling function's class/namespace chain).
  std::vector<std::size_t> resolve(const CallSite& call,
                                   const std::string& caller_scope) const;

  std::vector<FunctionDef> fns_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  // Qualified-name return kinds for fill_registry.
  struct RetDecl {
    std::string qualified;
    int kind = 0;  // 0 other, 1 Status, 2 Result, 3 void-like
  };
  std::vector<RetDecl> ret_decls_;
  // Receiver typing, the defense against bare-name aliasing on member
  // calls. Declarations feed two structures: names with a
  // `std::`-qualified type (`std::priority_queue<...> heap_;`) whose
  // member calls are library methods and resolve to nothing, and a
  // name -> declared-class-name map (`PrefetchCache cache_;`) that
  // narrows `cache_.get(...)` to PrefetchCache::get. Member calls on
  // receivers declared nowhere (range-for variables, call-result
  // chains) resolve to nothing rather than union every same-named
  // method in the repo; `this->` calls use the caller's own scope.
  std::set<std::string> std_members_;
  std::map<std::string, std::set<std::string>> member_types_;
  std::vector<int> sim_parent_;  // BFS parent; -2 unreachable, -1 root
  bool finalized_ = false;
};

// Rule family: transitive-determinism. Flags rand/srand/getenv calls in
// functions of `file` that are coroutines or reachable from one, with
// the witnessing root path in the message.
void check_transitive_determinism(const LexedFile& file,
                                  const CallGraph& graph,
                                  std::vector<Finding>* out);

// Rule family: coroutine-borrow. Inside co_await-containing bodies in
// `file`, flags KvView variables (and spans borrowed from an arena) that
// are used again after a co_await suspends between declaration and use.
// Name-based: keep borrow variable names unique within a function.
void check_coroutine_borrow(const LexedFile& file, const CallGraph& graph,
                            std::vector<Finding>* out);

}  // namespace hmr::lint
