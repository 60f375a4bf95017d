#include "proto/checksum.h"

namespace v6::proto {

namespace {

std::uint32_t sum_words(std::span<const std::uint8_t> data,
                        std::uint32_t acc) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i] << 8);
  return acc;
}

std::uint16_t fold(std::uint32_t acc) noexcept {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  return fold(sum_words(data, 0));
}

std::uint16_t pseudo_header_checksum(
    const net::Ipv6Address& src, const net::Ipv6Address& dst,
    std::uint8_t next_header, std::span<const std::uint8_t> payload) noexcept {
  std::uint32_t acc = 0;
  acc = sum_words(src.bytes(), acc);
  acc = sum_words(dst.bytes(), acc);
  const auto length = static_cast<std::uint32_t>(payload.size());
  acc += length >> 16;
  acc += length & 0xffff;
  acc += next_header;  // 3 zero bytes then next header
  acc = sum_words(payload, acc);
  return fold(acc);
}

namespace {

// Slicing-by-8 tables over the IEEE polynomial: entry[0] is the classic
// byte-at-a-time table; entry[k][i] is the CRC of byte i followed by k
// zero bytes, so eight table lookups advance the register by eight bytes
// at once. Same polynomial, same register: the values are those of the
// byte-wise loop, which still handles the unaligned tail.
struct Crc32Table {
  std::uint32_t entry[8][256];
  constexpr Crc32Table() : entry{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entry[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const std::uint32_t prev = entry[k - 1][i];
        entry[k][i] = (prev >> 8) ^ entry[0][prev & 0xFFu];
      }
    }
  }
};

constexpr Crc32Table kCrc32Table{};

// Little-endian load, written byte-wise so it is endian-independent (the
// compiler folds it into one load on little-endian targets).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  const auto& t = kCrc32Table.entry;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t a = c ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    c = t[7][a & 0xFFu] ^ t[6][(a >> 8) & 0xFFu] ^ t[5][(a >> 16) & 0xFFu] ^
        t[4][a >> 24] ^ t[3][b & 0xFFu] ^ t[2][(b >> 8) & 0xFFu] ^
        t[1][(b >> 16) & 0xFFu] ^ t[0][b >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace v6::proto
