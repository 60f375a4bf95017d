#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "proto/buffer.h"
#include "proto/checksum.h"
#include "proto/ntp_packet.h"
#include "proto/udp.h"
#include "util/rng.h"

namespace v6::proto {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

// ---------------------------------------------------------------- buffers

TEST(Buffer, WriteReadRoundTrip) {
  BufferWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  const std::uint8_t extra[] = {1, 2, 3};
  w.bytes(extra);
  EXPECT_EQ(w.size(), 1u + 2 + 4 + 8 + 3);

  BufferReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  std::uint8_t out[3];
  r.bytes(out);
  EXPECT_EQ(out[2], 3);
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, BigEndianOnTheWire) {
  BufferWriter w;
  w.u16(0x1234);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
}

TEST(Buffer, TruncatedReadsFlagAndZeroFill) {
  const std::uint8_t two[] = {0xaa, 0xbb};
  BufferReader r(two);
  EXPECT_EQ(r.u32(), 0u);  // short read
  EXPECT_TRUE(r.truncated());
  std::uint8_t out[4] = {9, 9, 9, 9};
  r.bytes(out);
  EXPECT_EQ(out[0], 0);
}

TEST(Buffer, PatchU16) {
  BufferWriter w;
  w.u32(0);
  w.patch_u16(1, 0xbeef);
  EXPECT_EQ(w.data()[1], 0xbe);
  EXPECT_EQ(w.data()[2], 0xef);
  EXPECT_THROW(w.patch_u16(3, 1), std::out_of_range);
}

TEST(Buffer, SkipPastEndSetsTruncated) {
  const std::uint8_t one[] = {1};
  BufferReader r(one);
  r.skip(2);
  EXPECT_TRUE(r.truncated());
}

// --------------------------------------------------------------- checksum

TEST(Checksum, Rfc1071Example) {
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // words: 0102, 0300 -> sum 0402 -> ~ = fbfd
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(Checksum, PseudoHeaderVerifiesToZero) {
  const auto src = addr(0x20010db800000001ULL, 1);
  const auto dst = addr(0x20010db800000002ULL, 2);
  const UdpDatagram datagram{40000, kNtpPort, {1, 2, 3, 4}};
  const auto wire = encode_udp(datagram, src, dst);
  EXPECT_EQ(pseudo_header_checksum(src, dst, kProtoUdp, wire), 0);
}

// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the definition the
// table-driven crc32 must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32({}, 0x12345678u), 0x12345678u);  // empty chain is a no-op
}

TEST(Crc32, ChainsAtEverySplitFromOddOffsets) {
  // The sliced loop takes eight bytes at a time and finishes byte-wise,
  // so every (start, length) mix of the two paths must agree with the
  // bit-at-a-time definition, and chaining must compose at any split.
  util::Rng rng(97);
  std::vector<std::uint8_t> buffer(112);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.bounded(256));
  const std::span<const std::uint8_t> all(buffer);
  for (const std::size_t start : {1u, 3u, 5u, 7u}) {
    const auto data = all.subspan(start, 100);
    const std::uint32_t whole = crc32(data);
    ASSERT_EQ(whole, crc32_bitwise(data, 0)) << "start " << start;
    for (std::size_t split = 0; split <= data.size(); ++split) {
      const auto a = data.first(split);
      const auto b = data.subspan(split);
      EXPECT_EQ(crc32(a), crc32_bitwise(a, 0))
          << "start " << start << " length " << split;
      EXPECT_EQ(crc32(b, crc32(a)), whole)
          << "start " << start << " split " << split;
    }
  }
}

// -------------------------------------------------------------------- UDP

TEST(Udp, RoundTrip) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  const UdpDatagram datagram{40000, kNtpPort, {1, 2, 3, 4, 5}};
  const auto wire = encode_udp(datagram, src, dst);
  EXPECT_EQ(wire.size(), 8u + 5);
  const auto decoded = decode_udp(wire, src, dst);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, datagram);
}

TEST(Udp, LengthMismatchRejected) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1, 2, {9}}, src, dst);
  wire.push_back(0);  // trailing garbage changes the actual size
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

TEST(Udp, CorruptionDetected) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1000, 2000, {5, 6, 7, 8}}, src, dst);
  wire[9] ^= 0xff;  // payload byte
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

TEST(Udp, ZeroChecksumRejectedOverIpv6) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1, 2, {3}}, src, dst);
  wire[6] = wire[7] = 0;
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

// -------------------------------------------------------------------- NTP

TEST(NtpPacket, WireFormatIs48Bytes) {
  const auto wire = make_client_request(1000, 0xdead).encode();
  EXPECT_EQ(wire.size(), 48u);
  // LI=0 VN=4 Mode=3 -> 0x23.
  EXPECT_EQ(wire[0], 0x23);
}

TEST(NtpPacket, EncodeDecodeRoundTrip) {
  NtpPacket p;
  p.leap_indicator = 1;
  p.version = 4;
  p.mode = NtpMode::kServer;
  p.stratum = 2;
  p.poll = 10;
  p.precision = -23;
  p.root_delay = 0x00010000;
  p.root_dispersion = 0x00000a00;
  p.reference_id = 0x47505300;  // "GPS"
  p.reference_time = NtpTimestamp::from_sim_time(100, 7);
  p.origin_time = NtpTimestamp::from_sim_time(101, 8);
  p.receive_time = NtpTimestamp::from_sim_time(102, 9);
  p.transmit_time = NtpTimestamp::from_sim_time(103, 10);
  const auto decoded = NtpPacket::decode(p.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, p);
}

TEST(NtpPacket, DecodeRejectsShortAndBadVersion) {
  const auto wire = make_client_request(0, 0).encode();
  EXPECT_FALSE(NtpPacket::decode(std::span(wire.data(), 47)));
  auto bad = wire;
  bad[0] = (bad[0] & ~0x38) | (1 << 3);  // version 1
  EXPECT_FALSE(NtpPacket::decode(bad));
}

TEST(NtpPacket, ServerResponseFollowsRfc5905) {
  const auto request = make_client_request(5000, 0xabcd1234);
  const auto response = make_server_response(request, 5001, 2, 0x56500001);
  EXPECT_EQ(response.mode, NtpMode::kServer);
  EXPECT_EQ(response.stratum, 2);
  // Origin must echo the client's transmit for client-side validation.
  EXPECT_EQ(response.origin_time, request.transmit_time);
  EXPECT_EQ(response.receive_time.to_sim_time(), 5001);
  EXPECT_EQ(response.transmit_time.to_sim_time(), 5001);
}

TEST(NtpTimestamp, SimTimeMapping) {
  const auto ts = NtpTimestamp::from_sim_time(12345, 99);
  EXPECT_EQ(ts.to_sim_time(), 12345);
  EXPECT_EQ(NtpTimestamp::from_u64(ts.to_u64()), ts);
}

TEST(NtpPacket, FuzzedDecodeNeverCrashes) {
  util::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.bounded(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)NtpPacket::decode(junk);  // must not crash
  }
}

}  // namespace
}  // namespace v6::proto
