#include "common/conf.h"

#include <cstdio>

namespace hmr {

void Conf::set(std::string_view key, std::string_view value) {
  entries_.insert_or_assign(std::string(key), std::string(value));
}

void Conf::set_int(std::string_view key, std::int64_t value) {
  set(key, std::to_string(value));
}

void Conf::set_double(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  set(key, buf);
}

void Conf::set_bool(std::string_view key, bool value) {
  set(key, value ? "true" : "false");
}

void Conf::set_bytes(std::string_view key, std::uint64_t bytes) {
  set(key, std::to_string(bytes));
}

void Conf::merge(const Conf& other) {
  for (const auto& [k, v] : other.entries_) entries_.insert_or_assign(k, v);
}

std::vector<std::pair<std::string, std::string>> Conf::items() const {
  return {entries_.begin(), entries_.end()};
}

}  // namespace hmr
