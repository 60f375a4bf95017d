#include "hitlist/release.h"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/dataset_compare.h"

namespace v6::hitlist {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

TEST(Release, AggregatesToSortedSlash48s) {
  Corpus corpus;
  corpus.add(addr(0x20010db800010000ULL, 1), 10);
  corpus.add(addr(0x20010db800010001ULL, 2), 11);  // same /48
  corpus.add(addr(0x20010db800020000ULL, 3), 12);  // different /48
  const auto rows = analysis::aggregate_to_slash48(corpus);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].prefix.to_string(), "2001:db8:1::/48");
  EXPECT_EQ(rows[0].address_count, 2u);
  EXPECT_EQ(rows[1].prefix.to_string(), "2001:db8:2::/48");
  EXPECT_EQ(rows[1].address_count, 1u);
}

TEST(Release, WriteReadRoundTrip) {
  Corpus corpus;
  for (std::uint64_t i = 0; i < 50; ++i) {
    corpus.add(addr(0x2a00000000000000ULL | (i << 16), i), 1);
  }
  const auto rows = analysis::aggregate_to_slash48(corpus);
  std::stringstream stream;
  write_release(stream, rows);
  const auto parsed = read_release(stream);
  EXPECT_EQ(parsed, rows);
}

TEST(Release, OutputNeverContainsFullAddresses) {
  // The ethics constraint: only /48s leave the building.
  Corpus corpus;
  corpus.add(addr(0x20010db800010203ULL, 0xdeadbeefcafef00dULL), 10);
  std::stringstream stream;
  write_release(stream, analysis::aggregate_to_slash48(corpus));
  const std::string text = stream.str();
  EXPECT_EQ(text.find("dead"), std::string::npos);
  EXPECT_EQ(text.find("203"), std::string::npos);  // low /56 bits gone too
  EXPECT_NE(text.find("2001:db8:1::/48"), std::string::npos);
}

TEST(Release, KAnonymityFloorSuppressesThinPrefixes) {
  Corpus corpus;
  // One /48 with 5 addresses, one with a single address.
  for (std::uint64_t i = 0; i < 5; ++i) {
    corpus.add(addr(0x20010db800010000ULL | i, i), 1);
  }
  corpus.add(addr(0x20010db800020000ULL, 7), 1);
  const auto rows = analysis::aggregate_to_slash48(corpus);

  std::stringstream stream;
  write_release(stream, rows, /*min_count=*/3);
  const std::string text = stream.str();
  EXPECT_NE(text.find("2001:db8:1::/48,5"), std::string::npos);
  EXPECT_EQ(text.find("2001:db8:2::/48"), std::string::npos);
  EXPECT_NE(text.find("1 rows suppressed"), std::string::npos);

  // Round-trips to only the surviving rows.
  std::stringstream reread(text);
  EXPECT_EQ(read_release(reread).size(), 1u);
}

TEST(Release, DefaultFloorKeepsEverything) {
  Corpus corpus;
  corpus.add(addr(0x20010db800020000ULL, 7), 1);
  std::stringstream stream;
  write_release(stream, analysis::aggregate_to_slash48(corpus));
  EXPECT_NE(stream.str().find("2001:db8:2::/48,1"), std::string::npos);
  EXPECT_EQ(stream.str().find("suppressed"), std::string::npos);
}

TEST(Release, ReadSkipsComments) {
  std::stringstream stream("# comment\n2001:db8::/48,5\n");
  const auto rows = read_release(stream);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].address_count, 5u);
}

TEST(Release, ReadRejectsMalformedRows) {
  {
    std::stringstream s("2001:db8::/48");
    EXPECT_THROW(read_release(s), std::runtime_error);
  }
  {
    std::stringstream s("2001:db8::/64,5\n");  // not a /48
    EXPECT_THROW(read_release(s), std::runtime_error);
  }
  {
    std::stringstream s("not-an-address/48,5\n");
    EXPECT_THROW(read_release(s), std::runtime_error);
  }
  {
    std::stringstream s("2001:db8::/48,many\n");
    EXPECT_THROW(read_release(s), std::runtime_error);
  }
}

}  // namespace
}  // namespace v6::hitlist
