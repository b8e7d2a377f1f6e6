// Tabular output for the benchmark harness: aligned ASCII tables (the
// rows the paper's figures plot).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hmr {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 1);

  std::string to_ascii() const;
  size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hmr
