#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace hmr {
namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C

// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[s][i] is the CRC of byte i followed by s zero bytes, so eight
// lookups fold eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int s = 1; s < 8; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load, independent of the host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const auto& t = kTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

}  // namespace detail

namespace {

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes exactly this polynomial with
// the same reflected convention, eight bytes per instruction. Loads go
// through memcpy, so any alignment works.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

// Picks the kernel from the CPU once per process. __builtin_cpu_init
// makes the feature query safe even during static initialisation.
Kernel select_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const Kernel kernel = select_kernel();
  return kernel(data, seed);
}

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) {
  return crc32c(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()),
      seed);
}

}  // namespace hmr
