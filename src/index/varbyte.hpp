// Variable-byte (VByte) encoding of unsigned integers and delta-encoded
// monotone sequences — the standard posting-list compression baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resex {

/// Appends the VByte encoding of `value` to `out` (7 bits per byte, high
/// bit set on the final byte).
void varbyteEncode(std::uint64_t value, std::vector<std::uint8_t>& out);

/// Raw-buffer overload: writes the encoding at `out` (which must have room
/// for varbyteSize(value) bytes) and returns the byte past it.
std::uint8_t* varbyteEncode(std::uint64_t value, std::uint8_t* out);

/// Encoded length of `value` in bytes (1..10).
std::size_t varbyteSize(std::uint64_t value);

/// Decodes one value starting at `offset`; advances `offset` past it.
/// Throws std::out_of_range on truncated input and on encodings whose bits
/// would overflow a u64 (corrupt input must fail, not wrap).
std::uint64_t varbyteDecode(const std::vector<std::uint8_t>& bytes,
                            std::size_t& offset);

/// Raw-buffer overload for decoding out of mapped (untrusted) bytes; `size`
/// is the hard read bound. Same throwing contract as the vector overload.
std::uint64_t varbyteDecode(const std::uint8_t* bytes, std::size_t size,
                            std::size_t& offset);

/// Delta + VByte encodes a strictly increasing sequence.
std::vector<std::uint8_t> encodeMonotone(const std::vector<std::uint32_t>& values);

/// Inverse of encodeMonotone.
std::vector<std::uint32_t> decodeMonotone(const std::vector<std::uint8_t>& bytes);

}  // namespace resex
