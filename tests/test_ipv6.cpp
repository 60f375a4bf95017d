#include "net/ipv6.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <cstring>
#include <ostream>
#include <unordered_set>

#include "util/rng.h"

namespace v6::net {
namespace {

TEST(Ipv6Address, DefaultIsUnspecified) {
  Ipv6Address a;
  EXPECT_TRUE(a.is_unspecified());
  EXPECT_EQ(a.to_string(), "::");
}

TEST(Ipv6Address, FromHextetsRoundTrip) {
  const auto a = Ipv6Address::from_hextets(
      {0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  EXPECT_EQ(a.hextet(0), 0x2001);
  EXPECT_EQ(a.hextet(7), 1);
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

TEST(Ipv6Address, FromU64Halves) {
  const auto a = Ipv6Address::from_u64(0x20010db800000000ULL, 0x1ULL);
  EXPECT_EQ(a.hi64(), 0x20010db800000000ULL);
  EXPECT_EQ(a.lo64(), 1ULL);
  EXPECT_EQ(a.iid(), 1ULL);
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

// RFC 5952 canonical form cases.
struct FormatCase {
  const char* input;
  const char* canonical;
};

// Without this gtest prints the case as a dump of its two pointers, and
// ctest's discovered test names would change with every build.
void PrintTo(const FormatCase& c, std::ostream* os) {
  *os << c.input << " -> " << c.canonical;
}

class Rfc5952Format : public ::testing::TestWithParam<FormatCase> {};

TEST_P(Rfc5952Format, Canonicalizes) {
  const auto& [input, canonical] = GetParam();
  const auto a = Ipv6Address::parse(input);
  ASSERT_TRUE(a.has_value()) << input;
  EXPECT_EQ(a->to_string(), canonical);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Rfc5952Format,
    ::testing::Values(
        FormatCase{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
        FormatCase{"2001:DB8::1", "2001:db8::1"},
        // Single zero group is NOT compressed (RFC 5952 4.2.2).
        FormatCase{"2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"},
        // Longest run wins; leftmost on tie (4.2.3).
        FormatCase{"2001:0:0:1:0:0:0:1", "2001:0:0:1::1"},
        FormatCase{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"},
        FormatCase{"::", "::"},
        FormatCase{"::1", "::1"},
        FormatCase{"1::", "1::"},
        FormatCase{"fe80:0:0:0:0:0:0:1", "fe80::1"}));

TEST(Ipv6Parse, RejectsZoneId) {
  // We do not support zone identifiers; ensure they're rejected rather
  // than silently accepted (the INSTANTIATE case above never parses one).
  EXPECT_FALSE(Ipv6Address::parse("fe80::1%eth0"));
}

TEST(Ipv6Parse, EmbeddedIpv4Tail) {
  const auto a = Ipv6Address::parse("::ffff:192.168.1.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hextet(5), 0xffff);
  EXPECT_EQ(a->hextet(6), 0xc0a8);
  EXPECT_EQ(a->hextet(7), 0x0101);
}

TEST(Ipv6Parse, FullFormWithIpv4Tail) {
  const auto a = Ipv6Address::parse("0:0:0:0:0:ffff:10.0.0.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hextet(6), 0x0a00);
}

TEST(Ipv6Parse, Invalid) {
  EXPECT_FALSE(Ipv6Address::parse(""));
  EXPECT_FALSE(Ipv6Address::parse(":"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7"));        // 7 groups
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8:9"));    // 9 groups
  EXPECT_FALSE(Ipv6Address::parse("1::2::3"));              // two ::
  EXPECT_FALSE(Ipv6Address::parse("12345::"));              // >4 digits
  EXPECT_FALSE(Ipv6Address::parse("g::1"));                 // bad digit
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8::"));    // :: of nothing
  EXPECT_FALSE(Ipv6Address::parse("::1.2.3.4.5"));          // bad v4
  EXPECT_FALSE(Ipv6Address::parse("::192.168.1.1:5"));      // v4 not last
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8 "));     // trailing junk
  EXPECT_FALSE(Ipv6Address::parse(":1:2:3:4:5:6:7:8"));     // leading colon
}

TEST(Ipv6Parse, MaxGroupsWithCompression) {
  // Like inet_pton, "::" standing for exactly one zero group is accepted.
  const auto a = Ipv6Address::parse("1:2:3:4:5:6:7::");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hextet(7), 0);
  EXPECT_TRUE(Ipv6Address::parse("1:2:3:4:5:6::"));
  // Eight explicit groups plus "::" is one too many.
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8::"));
}

TEST(Ipv6Address, ComparisonIsLexicographic) {
  const auto a = Ipv6Address::from_u64(1, 0);
  const auto b = Ipv6Address::from_u64(1, 1);
  const auto c = Ipv6Address::from_u64(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, Ipv6Address::from_u64(1, 0));
}

TEST(Ipv6Hash, DistinctValuesMostlyDistinctHashes) {
  util::Rng rng(5);
  std::unordered_set<std::size_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    hashes.insert(
        Ipv6AddressHash{}(Ipv6Address::from_u64(rng.next(), rng.next())));
  }
  EXPECT_GT(hashes.size(), 9990u);
}

// Property: parse(to_string(a)) == a over random addresses.
class Ipv6RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ipv6RoundTrip, ParseFormatIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 2000; ++i) {
    // Mix fully random addresses with zero-heavy ones to exercise "::".
    std::uint64_t hi = rng.next(), lo = rng.next();
    if (rng.chance(0.5)) hi &= rng.next();
    if (rng.chance(0.5)) lo &= rng.next() & rng.next();
    if (rng.chance(0.3)) lo = 0;
    if (rng.chance(0.1)) hi = 0;
    const auto a = Ipv6Address::from_u64(hi, lo);
    const auto parsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(parsed) << a.to_string();
    EXPECT_EQ(*parsed, a) << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6RoundTrip, ::testing::Values(1, 2, 3, 4, 5));

// Oracle test: our codec must agree byte-for-byte with the platform's
// inet_pton/inet_ntop (glibc implements RFC 5952 formatting).
class Ipv6LibcOracle : public ::testing::TestWithParam<int> {};

TEST_P(Ipv6LibcOracle, MatchesInetNtopAndPton) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t hi = rng.next(), lo = rng.next();
    if (rng.chance(0.4)) hi &= rng.next() & rng.next();
    if (rng.chance(0.4)) lo &= rng.next() & rng.next();
    const auto a = Ipv6Address::from_u64(hi, lo);

    char buffer[INET6_ADDRSTRLEN];
    ASSERT_NE(inet_ntop(AF_INET6, a.bytes().data(), buffer, sizeof buffer),
              nullptr);
    // glibc renders some addresses with an embedded dotted quad
    // (e.g. ::1.2.3.4); we render pure hex. Both are valid RFC 5952;
    // compare via pton instead of strings for those.
    if (std::string_view(buffer).find('.') == std::string_view::npos) {
      EXPECT_EQ(a.to_string(), buffer);
    }

    // Our formatter's output must parse back identically through libc.
    in6_addr reparsed{};
    ASSERT_EQ(inet_pton(AF_INET6, a.to_string().c_str(), &reparsed), 1);
    EXPECT_EQ(std::memcmp(&reparsed, a.bytes().data(), 16), 0);

    // And libc's output must parse identically through us.
    const auto ours = Ipv6Address::parse(buffer);
    ASSERT_TRUE(ours) << buffer;
    EXPECT_EQ(*ours, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6LibcOracle, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace v6::net
