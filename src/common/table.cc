#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"

namespace hmr {

void Table::add_row(std::vector<std::string> cells) {
  HMR_CHECK_MSG(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::to_ascii() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += "| ";
      line += row[c];
      line.append(widths[c] - row[c].size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += "+";
    sep.append(widths[c] + 2, '-');
  }
  sep += "+\n";

  std::string out = sep + emit_row(headers_) + sep;
  for (const auto& row : rows_) out += emit_row(row);
  out += sep;
  return out;
}

}  // namespace hmr
