#include "common/bytes.h"

namespace hmr {

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_string(std::string_view s) {
  put_varint(s.size());
  buf().insert(buf().end(), s.begin(), s.end());
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return Status::OutOfRange("short read of u8");
  return data_[pos_++];
}

Result<double> ByteReader::f64() {
  auto v = u64();
  if (!v.ok()) return v.status();
  double d;
  const std::uint64_t bits = v.value();
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

Result<std::uint64_t> ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) return Status::OutOfRange("truncated varint");
    if (shift >= 64) return Status::OutOfRange("varint too long");
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

Result<std::span<const std::uint8_t>> ByteReader::bytes(size_t n) {
  if (remaining() < n) return Status::OutOfRange("short read of bytes");
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::string() {
  auto len = varint();
  if (!len.ok()) return len.status();
  auto body = bytes(len.value());
  if (!body.ok()) return body.status();
  return std::string(reinterpret_cast<const char*>(body.value().data()),
                     body.value().size());
}

}  // namespace hmr
