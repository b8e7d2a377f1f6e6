// Repo-wide function index for hmr-lint.
//
// A pre-pass over every lexed file (alongside the FunctionRegistry
// pre-pass in rules.h) records function definitions with their
// namespace/class scope chain and body token range, plus the return
// kind of every declaration under its scope-qualified name.
//
// Two consumers:
//   coroutine-borrow  — walks each definition's body (see below).
//   fill_registry     — qualified Status/Result/void-like return kinds
//                       for status-discipline (see FunctionRegistry).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/rules.h"

namespace hmr::lint {

struct FunctionDef {
  std::string qualified;  // scope chain + name, "::"-joined (no hmr::)
  std::string file;
  // Body token range [body_begin, body_end) into the owning lexed file.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

class FunctionIndex {
 public:
  // Extracts definitions and return-kind declarations from `file`.
  void add_file(const LexedFile& file);

  const std::vector<FunctionDef>& functions() const { return fns_; }

  // Records Status/Result/void-like return kinds (declarations and
  // definitions) under their qualified names into `reg`, shrinking the
  // bare-name ambiguity drop set (see FunctionRegistry).
  void fill_registry(FunctionRegistry* reg) const;

 private:
  std::vector<FunctionDef> fns_;
  // Qualified-name return kinds for fill_registry.
  struct RetDecl {
    std::string qualified;
    int kind = 0;  // 0 other, 1 Status, 2 Result, 3 void-like
  };
  std::vector<RetDecl> ret_decls_;
};

// Rule family: coroutine-borrow. Inside co_await-containing bodies in
// `file`, flags KvView variables (and spans borrowed from an arena) that
// are used again after a co_await suspends between declaration and use.
// Name-based: keep borrow variable names unique within a function.
void check_coroutine_borrow(const LexedFile& file, const FunctionIndex& index,
                            std::vector<Finding>* out);

}  // namespace hmr::lint
