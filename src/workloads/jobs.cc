#include "workloads/jobs.h"

#include <cstring>
#include <span>

#include "dataplane/kv.h"

namespace hmr::workloads {

using dataplane::KvPair;

namespace {

mapred::JobSpec identity_job(hdfs::MiniDfs& dfs, const std::string& name,
                             const std::string& input_dir,
                             const std::string& output_dir, Conf conf,
                             std::shared_ptr<const dataplane::Partitioner> p) {
  mapred::JobSpec spec;
  spec.name = name;
  spec.input_files = dfs.list(input_dir + "/");
  HMR_CHECK_MSG(!spec.input_files.empty(),
                "no input parts under " + input_dir);
  spec.output_dir = output_dir;
  spec.conf = std::move(conf);
  spec.partitioner = std::move(p);
  return spec;
}

}  // namespace

mapred::JobSpec terasort_job(hdfs::MiniDfs& dfs, const std::string& input_dir,
                             const std::string& output_dir, Conf conf) {
  return identity_job(dfs, "terasort", input_dir, output_dir,
                      std::move(conf),
                      std::make_shared<dataplane::RangePartitioner>());
}

mapred::JobSpec sort_job(hdfs::MiniDfs& dfs, const std::string& input_dir,
                         const std::string& output_dir, Conf conf) {
  return identity_job(dfs, "sort", input_dir, output_dir, std::move(conf),
                      std::make_shared<dataplane::HashPartitioner>());
}

mapred::JobSpec wordcount_job(hdfs::MiniDfs& dfs,
                              const std::string& input_dir,
                              const std::string& output_dir, Conf conf) {
  auto spec = identity_job(dfs, "wordcount", input_dir, output_dir,
                           std::move(conf),
                           std::make_shared<dataplane::HashPartitioner>());
  spec.map_fn = [](const KvPair& record, const mapred::Emit& emit) {
    const std::string text(record.value.begin(), record.value.end());
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find(' ', start);
      if (end == std::string::npos) end = text.size();
      if (end > start) {
        KvPair out;
        out.key.assign(text.begin() + start, text.begin() + end);
        out.value = {1};
        emit(std::move(out));
      }
      start = end + 1;
    }
  };
  spec.reduce_fn = [](const Bytes& key, const std::vector<Bytes>& values,
                      const mapred::Emit& emit) {
    // (also used as the combiner below: summing is associative)
    std::uint64_t count = 0;
    for (const auto& value : values) {
      std::uint64_t v = 0;
      for (size_t i = 0; i < value.size() && i < 8; ++i) {
        v |= std::uint64_t(value[i]) << (8 * i);
      }
      count += v;
    }
    KvPair out;
    out.key = key;
    out.value.resize(8);
    std::memcpy(out.value.data(), &count, 8);
    emit(std::move(out));
  };
  spec.combine_fn = spec.reduce_fn;  // counting is associative
  return spec;
}

Result<ValidationReport> validate_output(hdfs::MiniDfs& dfs,
                                         const std::string& output_dir) {
  const auto parts = dfs.list(output_dir + "/");
  if (parts.empty()) return Status::NotFound("no output under " + output_dir);

  ValidationReport report;
  report.per_part_sorted = true;
  report.globally_sorted = true;
  Bytes previous_last_key;
  bool have_previous = false;

  for (const auto& part : parts) {  // list() is path-sorted = reducer order
    auto payload = dfs.peek(part);
    if (!payload.ok()) return payload.status();
    ByteReader reader(*payload);
    std::span<const std::uint8_t> last_key;  // of the part, once non-empty
    bool empty_part = true;
    while (!reader.at_end()) {
      const auto record = dataplane::decode_kv_view(reader);
      if (!record.ok()) return record.status();
      report.digest.fold(record->key, record->value);
      if (empty_part) {
        if (have_previous && dataplane::KvLess::compare_keys(
                                 previous_last_key, record->key) > 0) {
          report.globally_sorted = false;
        }
        empty_part = false;
      } else if (dataplane::KvLess::compare_keys(last_key, record->key) > 0) {
        report.per_part_sorted = false;
      }
      last_key = record->key;
    }
    if (!empty_part) {
      previous_last_key.assign(last_key.begin(), last_key.end());
      have_previous = true;
    }
  }
  report.globally_sorted = report.globally_sorted && report.per_part_sorted;
  return report;
}

}  // namespace hmr::workloads
