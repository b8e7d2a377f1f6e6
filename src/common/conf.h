// Hadoop-style string key/value configuration with typed accessors.
//
// Mirrors org.apache.hadoop.conf.Configuration: every tunable in the
// paper (mapred.shuffle.engine, mapred.local.caching.enabled, packet
// sizes, slot counts, ...) is carried through a Conf so engines stay
// swappable via configuration alone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hmr {

class Conf {
 public:
  Conf() = default;

  void set(std::string_view key, std::string_view value);
  void set_int(std::string_view key, std::int64_t value);
  void set_double(std::string_view key, double value);
  void set_bool(std::string_view key, bool value);
  void set_bytes(std::string_view key, std::uint64_t bytes);

  bool contains(std::string_view key) const;
  std::optional<std::string> get(std::string_view key) const;

  std::string get_string(std::string_view key, std::string_view dflt) const;
  std::int64_t get_int(std::string_view key, std::int64_t dflt) const;
  double get_double(std::string_view key, double dflt) const;
  bool get_bool(std::string_view key, bool dflt) const;
  // Accepts unit suffixes: "64MB", "4K", plain byte counts.
  std::uint64_t get_bytes(std::string_view key, std::uint64_t dflt) const;

  // Merges other into *this; other wins on conflicts.
  void merge(const Conf& other);

  std::vector<std::pair<std::string, std::string>> items() const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace hmr
