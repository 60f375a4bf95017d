// IPv6 address value type.
//
// A 128-bit address stored big-endian (network order). Provides:
//   * construction from bytes, hextets, or (hi, lo) 64-bit halves;
//   * RFC 4291 text parsing (including "::" compression and an embedded
//     IPv4 dotted-quad tail) and RFC 5952 canonical formatting;
//   * the (network-prefix, interface-identifier) split at /64 that the
//     whole measurement pipeline revolves around.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "net/ipv4.h"

namespace v6::net {

class Ipv6Address {
 public:
  using Bytes = std::array<std::uint8_t, 16>;

  constexpr Ipv6Address() = default;
  constexpr explicit Ipv6Address(const Bytes& bytes) : bytes_(bytes) {}

  // From eight 16-bit hextets, as written in text form.
  static constexpr Ipv6Address from_hextets(
      const std::array<std::uint16_t, 8>& h) {
    Bytes b{};
    for (std::size_t i = 0; i < 8; ++i) {
      b[2 * i] = static_cast<std::uint8_t>(h[i] >> 8);
      b[2 * i + 1] = static_cast<std::uint8_t>(h[i] & 0xff);
    }
    return Ipv6Address(b);
  }

  // From the two 64-bit halves: `hi` is the network half (bits 127..64),
  // `lo` the interface identifier (bits 63..0).
  static constexpr Ipv6Address from_u64(std::uint64_t hi, std::uint64_t lo) {
    Bytes b{};
    for (int i = 0; i < 8; ++i) {
      b[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(hi >> (56 - 8 * i));
      b[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return Ipv6Address(b);
  }

  constexpr const Bytes& bytes() const noexcept { return bytes_; }
  constexpr std::uint8_t byte(std::size_t i) const noexcept {
    return bytes_[i];
  }

  constexpr std::uint16_t hextet(std::size_t i) const noexcept {
    return static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }

  constexpr std::uint64_t hi64() const noexcept { return read_u64(0); }
  constexpr std::uint64_t lo64() const noexcept { return read_u64(8); }

  // The Interface Identifier: low 64 bits (assumes the ubiquitous /64
  // subnetting the paper also assumes).
  constexpr std::uint64_t iid() const noexcept { return lo64(); }

  constexpr bool is_unspecified() const noexcept {
    return hi64() == 0 && lo64() == 0;
  }

  // RFC 5952 canonical text: lowercase, longest zero run compressed,
  // leftmost run on ties, single zero group never compressed.
  std::string to_string() const;

  // Accepts full, compressed ("::"), and IPv4-tail ("::ffff:1.2.3.4")
  // forms, case-insensitive. Returns nullopt on any syntax error.
  static std::optional<Ipv6Address> parse(std::string_view text);

  // Numeric order of the 128-bit value, i.e. the byte-wise order of the
  // big-endian bytes, compared as two u64 halves rather than with a
  // memcmp call: every corpus sort, search and k-way merge is keyed on it.
  friend constexpr std::strong_ordering operator<=>(
      const Ipv6Address& a, const Ipv6Address& b) noexcept {
    if (const auto hi = a.hi64() <=> b.hi64(); hi != 0) return hi;
    return a.lo64() <=> b.lo64();
  }
  friend constexpr bool operator==(const Ipv6Address&,
                                   const Ipv6Address&) = default;

 private:
  // Big-endian read of bytes [offset, offset + 8). At run time it is one
  // load and a byte swap; GCC does not fuse the byte loop into one.
  constexpr std::uint64_t read_u64(std::size_t offset) const noexcept {
    if (std::is_constant_evaluated()) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes_[offset + i];
      return v;
    }
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + offset, sizeof v);
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }

  Bytes bytes_{};
};

// Strong hash usable in unordered containers (not cryptographic).
struct Ipv6AddressHash {
  std::size_t operator()(const Ipv6Address& a) const noexcept;
};

}  // namespace v6::net

template <>
struct std::hash<v6::net::Ipv6Address> {
  std::size_t operator()(const v6::net::Ipv6Address& a) const noexcept {
    return v6::net::Ipv6AddressHash{}(a);
  }
};
