// CRC-32C (Castagnoli). Used by TeraValidate-style output checking,
// HDFS-lite block checksums and every spill and shuffle-segment check.
// On x86-64 CPUs with SSE4.2 it runs on the `crc32` instruction (as
// Hadoop's native checksums do); elsewhere a portable slice-by-8 table
// computes the same values. The kernel is chosen once per process from
// the CPU.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace hmr {

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

namespace detail {
// The portable slice-by-8 kernel, the fallback crc32c() uses on CPUs
// without SSE4.2. Exposed so tests cover it on every host.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0);
}  // namespace detail

}  // namespace hmr
