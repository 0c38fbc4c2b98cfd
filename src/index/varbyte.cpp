#include "index/varbyte.hpp"

#include <stdexcept>

namespace resex {

void varbyteEncode(std::uint64_t value, std::vector<std::uint8_t>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value & 0x7F));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value | 0x80));
}

std::uint8_t* varbyteEncode(std::uint64_t value, std::uint8_t* out) {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value & 0x7F);
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value | 0x80);
  return out;
}

std::size_t varbyteSize(std::uint64_t value) {
  std::size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

std::uint64_t varbyteDecode(const std::uint8_t* bytes, std::size_t size,
                            std::size_t& offset) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    if (offset >= size)
      throw std::out_of_range("varbyteDecode: truncated input");
    const std::uint8_t byte = bytes[offset++];
    const std::uint64_t payload = byte & 0x7F;
    // A u64 holds at most ten VByte groups, and the tenth contributes only
    // its lowest 64 - 63 = 1 bit. Reject any group whose bits would fall
    // past bit 63 *before* the shift silently discards them — corrupt or
    // hostile bytes must fail loudly, not decode to a wrapped value.
    if (shift >= 64 || (shift > 0 && (payload >> (64 - shift)) != 0))
      throw std::out_of_range("varbyteDecode: value overflow");
    value |= payload << shift;
    if (byte & 0x80) return value;
    shift += 7;
  }
}

std::uint64_t varbyteDecode(const std::vector<std::uint8_t>& bytes,
                            std::size_t& offset) {
  return varbyteDecode(bytes.data(), bytes.size(), offset);
}

std::vector<std::uint8_t> encodeMonotone(const std::vector<std::uint32_t>& values) {
  std::vector<std::uint8_t> out;
  out.reserve(values.size() + 4);
  std::uint32_t previous = 0;
  bool first = true;
  for (const std::uint32_t v : values) {
    if (!first && v <= previous)
      throw std::invalid_argument("encodeMonotone: sequence not strictly increasing");
    varbyteEncode(first ? v : v - previous, out);
    previous = v;
    first = false;
  }
  return out;
}

std::vector<std::uint32_t> decodeMonotone(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint32_t> out;
  std::size_t offset = 0;
  std::uint32_t previous = 0;
  bool first = true;
  while (offset < bytes.size()) {
    const auto delta = static_cast<std::uint32_t>(varbyteDecode(bytes, offset));
    previous = first ? delta : previous + delta;
    first = false;
    out.push_back(previous);
  }
  return out;
}

}  // namespace resex
