// Rule families 1 and 2 of hmr-lint: determinism and Status/Result
// discipline. Both work on the token stream from lint/lexer.h; the
// Status rules additionally consult a repo-wide FunctionRegistry built
// in a pre-pass over every scanned file, so "calls a function returning
// Status/Result" is decided from the repo's own declarations rather
// than a hard-coded list.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace hmr::lint {

struct Finding {
  std::string rule;     // "determinism", "status-discipline", ...
  std::string file;
  int line = 0;
  std::string message;
};

// Names of functions declared anywhere in the scanned tree to return
// Status or Result<T> (directly or wrapped, e.g. sim::Task<Status>).
// The bare-name sets are name-based, so an unrelated same-named
// function aliases into them; names that are *also* declared somewhere
// with a void-like return (`void close()`, `sim::Task<> append(...)`)
// are ambiguous and dropped by finalize(), and the callers skip
// `std::`-qualified calls entirely. The qualified_* sets — filled from
// the FunctionIndex pre-pass (lint/function_index.h), which knows each
// declaration's namespace/class scope chain — recover precision at
// qualified call sites (`Disk::close(...)`): a qualified match decides
// the return kind even when the bare name was dropped as ambiguous.
// Remaining collisions take a justified status-discipline suppression.
struct FunctionRegistry {
  std::set<std::string> status_fns;
  std::set<std::string> result_fns;
  std::set<std::string> void_like_fns;
  // Scope-qualified declarations ("sim::Disk::write"), "::"-joined.
  std::set<std::string> qualified_status_fns;
  std::set<std::string> qualified_result_fns;
  std::set<std::string> qualified_void_fns;

  bool is_status(const std::string& name) const {
    return status_fns.count(name) != 0;
  }
  bool is_result(const std::string& name) const {
    return result_fns.count(name) != 0;
  }
  bool is_checked(const std::string& name) const {
    return is_status(name) || is_result(name);
  }

  // Call-site lookups: `qualifier` is the written qualification
  // ("Disk" in `Disk::write(...)`), empty for unqualified calls. A
  // qualified-set suffix match wins over the bare-name fallback.
  bool is_status_call(const std::string& name,
                      const std::string& qualifier) const;
  bool is_result_call(const std::string& name,
                      const std::string& qualifier) const;
  bool is_checked_call(const std::string& name,
                       const std::string& qualifier) const {
    return is_status_call(name, qualifier) || is_result_call(name, qualifier);
  }

  // Drops ambiguous names (declared both Status/Result-returning and
  // void-like) from the bare-name checked sets, and likewise for exact
  // qualified duplicates. Call once after the pre-pass has seen every
  // file. Missing a genuine discard of the surviving overload is the
  // accepted cost of not flagging every void call of the other.
  void finalize();
};

// Pre-pass: records `Status f(...)`, `Result<T> f(...)`, and wrapped
// forms like `sim::Task<Status> f(...)` declared in `file`, plus
// void-like declarations (`void f(...)`, `sim::Task<> f(...)`) used by
// FunctionRegistry::finalize() to drop ambiguous names.
void collect_function_returns(const LexedFile& file, FunctionRegistry* reg);

// Rule family 1: bans wall clocks, library RNG types and calls
// (rand/srand), getenv calls, and unordered containers in sim-facing
// code. Callers apply this only to src/ paths (tools and tests run on
// the host and may use them).
void check_determinism(const LexedFile& file, std::vector<Finding>* out);

// Rule family 2: discarded Status/Result call results (including
// `(void)` launders) and `.value()` / `*r` / `r->` access on a Result
// without a visible preceding ok() check. `check_value_guard` gates the
// access checks (applied to src/ and tools/; tests assert liberally and
// an abort on a bad Result inside a test is an acceptable failure mode).
void check_status_discipline(const LexedFile& file,
                             const FunctionRegistry& reg,
                             bool check_value_guard,
                             std::vector<Finding>* out);

// Flags a braced initializer anywhere inside a co_await operand, such as
// `co_await qp.send({.wr_id = 1, .message = m})` or `co_await f(T{a, b})`.
// GCC 12 miscompiles aggregate temporaries built there (a shared_ptr
// member's copy is elided into a bitwise move, splitting ownership); the
// fix is a named local. Lambda bodies passed in the operand are exempt.
void check_coawait_aggregate(const LexedFile& file, std::vector<Finding>* out);

// Flags `std::deque` and `#include <deque>`. libstdc++ allocates a
// deque's first node on construction, so every idle queue owns ~576
// bytes; sim::Fifo (sim/fifo.h) allocates on first push instead. Callers
// apply this to src/ outside src/lint.
void check_queue_storage(const LexedFile& file, std::vector<Finding>* out);

}  // namespace hmr::lint
