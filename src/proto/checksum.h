// RFC 1071 Internet checksum and the IPv6 pseudo-header variant used by
// UDP over IPv6 (RFC 8200 §8.1).
#pragma once

#include <cstdint>
#include <span>

#include "net/ipv6.h"

namespace v6::proto {

// One's-complement sum of 16-bit words (odd trailing byte padded with zero),
// final complement applied. Returns the checksum in host order.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

// Checksum of `payload` prefixed by the IPv6 pseudo-header
// (src, dst, upper-layer length, next header).
std::uint16_t pseudo_header_checksum(const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst,
                                     std::uint8_t next_header,
                                     std::span<const std::uint8_t> payload)
    noexcept;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), as used by the
// corpus snapshot v2 per-section integrity trailers. `seed` lets callers
// chain sections: crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

}  // namespace v6::proto
