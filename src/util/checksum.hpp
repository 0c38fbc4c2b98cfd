// CRC-32C (Castagnoli) — the plane checksum of the on-disk segment format.
//
// Chainable: `crc32c(b, nb, crc32c(a, na))` equals `crc32c(ab, na + nb)`,
// so a plane can be checksummed in pieces. Dispatches
// to the SSE4.2 (x86-64) or ARMv8-CRC hardware instructions when the host
// has them; the table-driven software path is the oracle and the fallback.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resex {

/// CRC-32C of `size` bytes, continuing from `seed` (0 for a fresh stream).
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

/// The software implementation, for tests that pin the oracle.
std::uint32_t crc32cSoftware(const void* data, std::size_t size,
                             std::uint32_t seed = 0);

}  // namespace resex
