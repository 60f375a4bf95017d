#include "dns/rdns.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace v6::dns {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

TEST(RdnsZone, AnswersReflectTreeStructure) {
  RdnsZone zone;
  zone.add(addr(0x20010db800010000ULL, 1), "a.example");

  // The full name is a PTR record.
  EXPECT_EQ(zone.query(addr(0x20010db800010000ULL, 1), 32),
            RdnsZone::Answer::kPtrRecord);
  // Every ancestor is an empty non-terminal.
  EXPECT_EQ(zone.query(addr(0x20010db800010000ULL, 0), 16),
            RdnsZone::Answer::kEmptyNonTerminal);
  EXPECT_EQ(zone.query(addr(0x2001000000000000ULL, 0), 4),
            RdnsZone::Answer::kEmptyNonTerminal);
  // Off-path labels are NXDOMAIN.
  EXPECT_EQ(zone.query(addr(0x20020db800010000ULL, 0), 4),
            RdnsZone::Answer::kNxDomain);
  EXPECT_EQ(zone.query(addr(0x20010db800020000ULL, 0), 16),
            RdnsZone::Answer::kNxDomain);
}

TEST(RdnsZone, OddNibbleDepths) {
  RdnsZone zone;
  zone.add(addr(0xabcd000000000000ULL, 0), "x");
  EXPECT_EQ(zone.query(addr(0xa000000000000000ULL, 0), 1),
            RdnsZone::Answer::kEmptyNonTerminal);
  EXPECT_EQ(zone.query(addr(0xabc0000000000000ULL, 0), 3),
            RdnsZone::Answer::kEmptyNonTerminal);
  EXPECT_EQ(zone.query(addr(0xab00000000000000ULL, 0), 3),
            RdnsZone::Answer::kNxDomain);
  EXPECT_EQ(zone.query(addr(0xb000000000000000ULL, 0), 1),
            RdnsZone::Answer::kNxDomain);
}

TEST(RdnsZone, PtrLookup) {
  RdnsZone zone;
  zone.add(addr(1, 2), "host.example");
  EXPECT_EQ(zone.ptr(addr(1, 2)), "host.example");
  EXPECT_FALSE(zone.ptr(addr(1, 3)));
}

TEST(RdnsZone, DuplicateAddressesCollapse) {
  RdnsZone zone;
  zone.add(addr(1, 2), "first");
  zone.add(addr(1, 2), "second");
  EXPECT_EQ(zone.size(), 2u);  // before sorting
  EXPECT_TRUE(zone.ptr(addr(1, 2)).has_value());
  EXPECT_EQ(zone.size(), 1u);  // deduplicated lazily
}

TEST(ZoneWalk, RecoversExactlyThePublishedSet) {
  RdnsZone zone;
  util::Rng rng(3);
  std::vector<net::Ipv6Address> published;
  for (int i = 0; i < 300; ++i) {
    // All inside 2001:db8::/32, otherwise random.
    const auto a = addr(0x20010db800000000ULL | (rng.next() & 0xffffffff),
                        rng.next());
    published.push_back(a);
    zone.add(a, std::string("h").append(std::to_string(i)));
  }
  std::sort(published.begin(), published.end());
  published.erase(std::unique(published.begin(), published.end()),
                  published.end());

  const auto result =
      walk_rdns(zone, *net::Ipv6Prefix::parse("2001:db8::/32"));
  EXPECT_EQ(result.discovered, published);
}

TEST(ZoneWalk, QueryCountIsLinearNotExponential) {
  RdnsZone zone;
  util::Rng rng(5);
  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    zone.add(addr(0x20010db800000000ULL | (rng.next() & 0xffffffff),
                  rng.next()),
             "h");
  }
  const auto result =
      walk_rdns(zone, *net::Ipv6Prefix::parse("2001:db8::/32"));
  // Worst case per record: 16 probes at each of 24 remaining nibble
  // levels; shared prefixes amortize well below that.
  EXPECT_LT(result.queries, static_cast<std::uint64_t>(kRecords) * 16 * 24);
  EXPECT_GT(result.queries, static_cast<std::uint64_t>(kRecords));
}

TEST(ZoneWalk, EmptyApexIsOneQuery) {
  RdnsZone zone;
  zone.add(addr(0x2a00000000000000ULL, 1), "x");
  const auto result =
      walk_rdns(zone, *net::Ipv6Prefix::parse("2001:db8::/32"));
  EXPECT_TRUE(result.discovered.empty());
  EXPECT_EQ(result.queries, 1u);
}

TEST(ZoneWalk, NonNibbleApexRejected) {
  RdnsZone zone;
  zone.add(addr(1, 1), "x");
  const auto result =
      walk_rdns(zone, net::Ipv6Prefix(addr(0, 0), 33));
  EXPECT_TRUE(result.discovered.empty());
  EXPECT_EQ(result.queries, 0u);
}

TEST(ZoneWalk, WorldZoneEnumeratesAnAsSlash32) {
  sim::WorldConfig config;
  config.seed = 19;
  config.total_sites = 400;
  const auto world = sim::World::generate(config);
  const auto zone = build_world_zone(world, 1000, 0.08);
  ASSERT_GT(zone.size(), 50u);

  // Walk one AS's /32 and cross-check against direct zone membership.
  const auto& as = world.ases()[0];
  const net::Ipv6Prefix apex(net::Ipv6Address::from_u64(as.prefix_hi, 0), 32);
  const auto result = walk_rdns(zone, apex);
  for (const auto& found : result.discovered) {
    EXPECT_TRUE(zone.ptr(found).has_value());
    EXPECT_TRUE(apex.contains(found));
  }
  // Every router we know is named in AS 0 must be rediscovered.
  for (std::uint32_t r = 0; r < as.router_count; ++r) {
    const auto address = world.router_address(0, r, 1);
    if (zone.ptr(address)) {
      EXPECT_TRUE(std::binary_search(result.discovered.begin(),
                                     result.discovered.end(), address));
    }
  }
}

}  // namespace
}  // namespace v6::dns
