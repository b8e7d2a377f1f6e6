#include "storage/localfs.h"

#include <algorithm>

namespace hmr::storage {

LocalFS::LocalFS(sim::Engine& engine,
                 std::vector<std::unique_ptr<Disk>> disks)
    : engine_(engine), disks_(std::move(disks)) {
  HMR_CHECK_MSG(!disks_.empty(), "LocalFS needs at least one disk");
}

LocalFS::File* LocalFS::find(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

const LocalFS::File* LocalFS::find(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

void LocalFS::arm_fault(const sim::DiskFault& fault, Rng rng) {
  fault_ = fault;
  fault_rng_ = rng;
}

bool LocalFS::roll_cache_corrupt() {
  if (!fault_ || fault_->cache_corrupt_prob <= 0) return false;
  return fault_rng_->chance(fault_->cache_corrupt_prob);
}

void LocalFS::degrade_disks(double factor) {
  for (auto& disk : disks_) disk->degrade(factor);
}

Status LocalFS::mark_corrupt(const std::string& path) {
  File* file = find(path);
  if (file == nullptr) return Status::NotFound("mark_corrupt: " + path);
  file->sticky_corrupt = true;
  return Status::Ok();
}

Status LocalFS::roll_write_fault(const std::string& path) {
  if (!fault_) return Status::Ok();
  const double now = engine_.now();
  if (fault_->full_at >= 0 && now >= fault_->full_at &&
      now < fault_->full_at + fault_->full_duration) {
    engine_.metrics().counter("storage.io.full_rejections").add();
    return Status::ResourceExhausted("disk full: " + path);
  }
  if (fault_->io_error_prob > 0 &&
      fault_rng_->chance(fault_->io_error_prob)) {
    engine_.metrics().counter("storage.io.errors").add();
    return Status::Unavailable("injected disk write error: " + path);
  }
  return Status::Ok();
}

sim::Task<Status> LocalFS::write_file(std::string path, Bytes data,
                                      double scale) {
  return write_file(std::move(path),
                    std::make_shared<const Bytes>(std::move(data)), scale);
}

sim::Task<Status> LocalFS::write_file(std::string path,
                                      std::shared_ptr<const Bytes> data,
                                      double scale) {
  HMR_CHECK_MSG(data != nullptr, "write_file needs a payload");
  HMR_CHECK_MSG(scale >= 1.0, "scale must be >= 1");
  // Fault rolls precede any state change so a failed create leaves no
  // empty file behind.
  if (Status fault = roll_write_fault(path); !fault.ok()) co_return fault;
  File& file = files_[path];
  if (!file.data) {
    file.disk_index = next_disk_++ % disks_.size();
    file.stream_id = next_stream_id();
  }
  const auto modeled =
      static_cast<std::uint64_t>(double(data->size()) * scale);
  file.data = std::move(data);
  file.scale = scale;
  // A full rewrite replaces the payload: prior at-rest corruption is
  // gone, but the write itself may silently store flipped bits.
  file.sticky_corrupt =
      fault_ && fault_->write_corrupt_prob > 0 &&
      fault_rng_->chance(fault_->write_corrupt_prob);
  if (file.sticky_corrupt) {
    engine_.metrics().counter("storage.io.corrupt_writes").add();
  }
  co_await disks_[file.disk_index]->write(modeled, file.stream_id);
  co_return Status::Ok();
}

sim::Task<Status> LocalFS::append(std::string path,
                                  std::span<const std::uint8_t> data) {
  File* file = find(path);
  if (file == nullptr) {
    co_return Status::NotFound("append: " + path);
  }
  if (Status fault = roll_write_fault(path); !fault.ok()) co_return fault;
  // Copy-on-write: readers holding views keep the old payload.
  auto grown = std::make_shared<Bytes>();
  grown->reserve(file->data->size() + data.size());
  grown->insert(grown->end(), file->data->begin(), file->data->end());
  grown->insert(grown->end(), data.begin(), data.end());
  file->data = std::move(grown);
  if (!file->sticky_corrupt && fault_ && fault_->write_corrupt_prob > 0 &&
      fault_rng_->chance(fault_->write_corrupt_prob)) {
    file->sticky_corrupt = true;
    engine_.metrics().counter("storage.io.corrupt_writes").add();
  }
  const auto modeled =
      static_cast<std::uint64_t>(double(data.size()) * file->scale);
  co_await disks_[file->disk_index]->write(modeled, file->stream_id);
  co_return Status::Ok();
}

sim::Task<Result<FileView>> LocalFS::read_file(std::string path) {
  File* file = find(path);
  if (file == nullptr) {
    co_return Result<FileView>(Status::NotFound("read: " + path));
  }
  if (fault_ && fault_->io_error_prob > 0 &&
      fault_rng_->chance(fault_->io_error_prob)) {
    engine_.metrics().counter("storage.io.errors").add();
    co_return Result<FileView>(
        Status::Unavailable("injected disk read error: " + path));
  }
  FileView view{file->data, file->scale};
  view.corrupted = file->sticky_corrupt ||
                   (fault_ && fault_->read_corrupt_prob > 0 &&
                    fault_rng_->chance(fault_->read_corrupt_prob));
  if (view.corrupted) {
    engine_.metrics().counter("storage.io.corrupt_reads").add();
  }
  co_await disks_[file->disk_index]->read(view.modeled_size(),
                                          file->stream_id);
  co_return view;
}

sim::Task<Result<FileView>> LocalFS::read_range(std::string path,
                                                std::uint64_t real_offset,
                                                std::uint64_t real_len) {
  File* file = find(path);
  if (file == nullptr) {
    co_return Result<FileView>(Status::NotFound("read_range: " + path));
  }
  if (real_offset + real_len > file->data->size()) {
    co_return Result<FileView>(
        Status::OutOfRange("read_range past EOF: " + path));
  }
  if (fault_ && fault_->io_error_prob > 0 &&
      fault_rng_->chance(fault_->io_error_prob)) {
    engine_.metrics().counter("storage.io.errors").add();
    co_return Result<FileView>(
        Status::Unavailable("injected disk read error: " + path));
  }
  FileView view{file->data, file->scale};
  view.corrupted = file->sticky_corrupt ||
                   (fault_ && fault_->read_corrupt_prob > 0 &&
                    fault_rng_->chance(fault_->read_corrupt_prob));
  if (view.corrupted) {
    engine_.metrics().counter("storage.io.corrupt_reads").add();
  }
  // Sequential-scan detection with readahead: a read continuing a
  // previous range rides the same scan; reads inside the scan's
  // prefetched window are page-cache hits (no disk). Fresh offsets pay
  // the positioning cost and pull a whole readahead granule.
  auto& cursors = file->range_cursors;
  const auto cursor_at = [&cursors](std::uint64_t offset) {
    return std::find_if(
        cursors.begin(), cursors.end(),
        [offset](const File::Cursor& c) { return c.next_offset == offset; });
  };
  // Cursors are unordered: remove one by moving the last into its slot.
  const auto drop = [&cursors](std::vector<File::Cursor>::iterator it) {
    *it = cursors.back();
    cursors.pop_back();
  };
  File::Cursor cursor;
  if (auto it = cursor_at(real_offset); it != cursors.end()) {
    cursor = *it;
    drop(it);
  } else {
    cursor.stream_id = next_stream_id();
    cursor.prefetched_until = real_offset;
    if (cursors.size() >= File::kMaxRangeCursors) {
      drop(std::min_element(
          cursors.begin(), cursors.end(),
          [](const File::Cursor& a, const File::Cursor& b) {
            return a.next_offset < b.next_offset;
          }));
    }
  }
  const std::uint64_t end = real_offset + real_len;
  const bool miss = end > cursor.prefetched_until;  // else page-cache hit
  std::uint64_t fetch_modeled = 0;
  if (miss) {
    const auto readahead_real = std::max<std::uint64_t>(
        real_len, std::max<std::uint64_t>(
                      1, static_cast<std::uint64_t>(
                             double(kReadaheadModeled) / file->scale)));
    const std::uint64_t fetch_to = std::min<std::uint64_t>(
        file->data->size(),
        std::max(end, cursor.prefetched_until + readahead_real));
    fetch_modeled = static_cast<std::uint64_t>(
        double(fetch_to - cursor.prefetched_until) * file->scale);
    cursor.prefetched_until = fetch_to;
  }
  cursor.next_offset = end;
  // A scan already waiting at `end` keeps its place.
  if (cursor_at(end) == cursors.end()) cursors.push_back(cursor);
  if (miss) {
    co_await disks_[file->disk_index]->read(fetch_modeled, cursor.stream_id);
  }
  co_return view;
}

bool LocalFS::exists(const std::string& path) const {
  return find(path) != nullptr;
}

Result<std::uint64_t> LocalFS::real_size(const std::string& path) const {
  const File* file = find(path);
  if (file == nullptr) return Status::NotFound("size: " + path);
  return std::uint64_t(file->data->size());
}

Result<std::uint64_t> LocalFS::modeled_size(const std::string& path) const {
  const File* file = find(path);
  if (file == nullptr) return Status::NotFound("size: " + path);
  return static_cast<std::uint64_t>(double(file->data->size()) * file->scale);
}

Status LocalFS::remove(const std::string& path) {
  if (files_.erase(path) == 0) return Status::NotFound("remove: " + path);
  return Status::Ok();
}

Status LocalFS::rename(const std::string& from, const std::string& to) {
  auto node = files_.extract(from);
  if (node.empty()) return Status::NotFound("rename: " + from);
  files_.erase(to);  // replaced, as rename(2) does
  node.key() = to;
  files_.insert(std::move(node));
  return Status::Ok();
}

std::vector<std::string> LocalFS::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (path.starts_with(prefix)) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<FileView> LocalFS::peek(const std::string& path) const {
  const File* file = find(path);
  if (file == nullptr) return Status::NotFound("peek: " + path);
  // Untimed: no fault rolls, but at-rest corruption is still visible.
  return FileView{file->data, file->scale, file->sticky_corrupt};
}

std::uint64_t LocalFS::total_modeled_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [_, file] : files_) {
    total += static_cast<std::uint64_t>(double(file.data->size()) *
                                        file.scale);
  }
  return total;
}

}  // namespace hmr::storage
