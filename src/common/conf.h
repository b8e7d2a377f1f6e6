// Hadoop-style string key/value configuration with typed setters.
//
// Mirrors org.apache.hadoop.conf.Configuration: every tunable in the
// paper (mapred.shuffle.engine, mapred.local.caching.enabled, packet
// sizes, ...) is carried through a Conf so engines stay swappable via
// configuration alone. A Conf only carries strings; mapred::JobConf
// (mapred/jobconf.h) parses and checks a job's Conf once at submit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hmr {

class Conf {
 public:
  Conf() = default;

  void set(std::string_view key, std::string_view value);
  void set_int(std::string_view key, std::int64_t value);
  void set_double(std::string_view key, double value);
  void set_bool(std::string_view key, bool value);
  void set_bytes(std::string_view key, std::uint64_t bytes);

  // Merges other into *this; other wins on conflicts.
  void merge(const Conf& other);

  // Every (key, value), in key order. Only mapred::JobConf::parse reads
  // them: it types and range-checks each key.
  std::vector<std::pair<std::string, std::string>> items() const;

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace hmr
