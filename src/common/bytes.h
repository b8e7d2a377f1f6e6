// Byte-buffer utilities: append-only writer and bounds-checked reader
// with fixed-width little-endian integers, LEB128 varints, and
// varint-length-prefixed strings. Used by the IFile segment format and
// the shuffle wire protocol.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hmr {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes* out) : external_(out) {}

  void put_u8(std::uint8_t v) { buf().push_back(v); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }
  void put_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_fixed(bits);
  }
  // Unsigned LEB128.
  void put_varint(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> data) {
    buf().insert(buf().end(), data.begin(), data.end());
  }
  void put_string(std::string_view s);  // varint length + bytes

  // Capacity for `n` more bytes, so a writer that knows its encoded
  // size grows the buffer once.
  void reserve(size_t n) { buf().reserve(buf().size() + n); }

  size_t size() const { return buf().size(); }
  const Bytes& data() const { return buf(); }
  Bytes take() { return std::move(owned_); }

 private:
  template <typename T>
  void put_fixed(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf().push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes& buf() { return external_ ? *external_ : owned_; }
  const Bytes& buf() const { return external_ ? *external_ : owned_; }

  Bytes owned_;
  Bytes* external_ = nullptr;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint32_t> u32() { return fixed<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return fixed<std::uint64_t>(); }
  Result<double> f64();
  Result<std::uint64_t> varint();
  Result<std::span<const std::uint8_t>> bytes(size_t n);
  Result<std::string> string();  // varint length + bytes

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> fixed() {
    if (remaining() < sizeof(T)) {
      return Status::OutOfRange("short read of fixed integer");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace hmr
