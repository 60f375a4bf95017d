// UDP header (RFC 768) over IPv6, with the mandatory checksum (RFC 8200).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "proto/buffer.h"

namespace v6::proto {

// IANA protocol number of UDP (the IPv6 next-header value).
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint16_t kNtpPort = 123;

struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const UdpDatagram&, const UdpDatagram&) = default;
};

// Serializes with a valid (non-zero) checksum for the src/dst pair.
std::vector<std::uint8_t> encode_udp(const UdpDatagram& datagram,
                                     const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst);

// Parses and verifies length + checksum.
std::optional<UdpDatagram> decode_udp(std::span<const std::uint8_t> data,
                                      const net::Ipv6Address& src,
                                      const net::Ipv6Address& dst);

}  // namespace v6::proto
