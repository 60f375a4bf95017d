#include "analysis/bad_apple.h"

#include <gtest/gtest.h>

#include "hitlist/passive_collector.h"
#include "net/eui64.h"
#include "netsim/pool_dns.h"

namespace v6::analysis {
namespace {

class BadAppleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 93;
    config.total_sites = 300;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static std::uint64_t slash64(std::uint64_t n) {
    return world_->ases()[0].prefix_hi | (2ULL << 28) | (n << 8) | 1;
  }

  static sim::World* world_;
};

sim::World* BadAppleTest::world_ = nullptr;

TEST_F(BadAppleTest, StitchesHouseholdAcrossRotation) {
  hitlist::Corpus corpus;
  const auto apple = net::MacAddress::from_u64(0x0c47c9aa0001ULL);

  // The gadget tags two successive delegated prefixes...
  corpus.add(net::eui64_address(slash64(10), apple), 0);
  corpus.add(net::eui64_address(slash64(20), apple), util::kWeek);
  // ...and the family's privacy-addressed devices live beside it.
  corpus.add(net::Ipv6Address::from_u64(slash64(10), 0x9f3a7cd2e45b8a61ULL),
             100);
  corpus.add(net::Ipv6Address::from_u64(slash64(10), 0x1b74de98c2f56a37ULL),
             200);
  corpus.add(net::Ipv6Address::from_u64(slash64(20), 0x84d2f61a3e97c5b8ULL),
             util::kWeek + 100);
  // A low-entropy co-tenant too (a printer with ::1:0 style address).
  corpus.add(net::Ipv6Address::from_u64(slash64(20), 0x123), 100);
  // Unrelated traffic elsewhere must not be linked.
  corpus.add(net::Ipv6Address::from_u64(slash64(99), 0x5a5a5a5a5a5a5a5aULL),
             100);

  const Eui64Tracker tracker(corpus, *world_);
  const auto report = bad_apple_linkage(corpus, tracker);
  EXPECT_EQ(report.apples_with_cotenants, 1u);
  EXPECT_EQ(report.linked_addresses, 4u);
  EXPECT_EQ(report.linked_privacy_addresses, 3u);
  EXPECT_EQ(report.households_stitched_across_prefixes, 1u);
}

TEST_F(BadAppleTest, LonelyAppleLinksNothing) {
  hitlist::Corpus corpus;
  const auto apple = net::MacAddress::from_u64(0x0c47c9aa0002ULL);
  corpus.add(net::eui64_address(slash64(1), apple), 0);
  corpus.add(net::Ipv6Address::from_u64(slash64(2), 0xdeadbeefcafe1234ULL),
             0);
  const Eui64Tracker tracker(corpus, *world_);
  const auto report = bad_apple_linkage(corpus, tracker);
  EXPECT_EQ(report.apples_with_cotenants, 0u);
  EXPECT_EQ(report.linked_addresses, 0u);
  EXPECT_EQ(report.households_stitched_across_prefixes, 0u);
}

TEST_F(BadAppleTest, TwoApplesInOneHouseholdDoNotLinkEachOther) {
  hitlist::Corpus corpus;
  const auto apple_a = net::MacAddress::from_u64(0x0c47c9aa0003ULL);
  const auto apple_b = net::MacAddress::from_u64(0x0c47c9aa0004ULL);
  corpus.add(net::eui64_address(slash64(5), apple_a), 0);
  corpus.add(net::eui64_address(slash64(5), apple_b), 0);
  const Eui64Tracker tracker(corpus, *world_);
  const auto report = bad_apple_linkage(corpus, tracker);
  // EUI-64 co-tenants are already tracked directly; linked_addresses
  // counts only the privacy-addressed victims.
  EXPECT_EQ(report.linked_addresses, 0u);
}

TEST_F(BadAppleTest, EndToEndCorpusHasLinkage) {
  sim::WorldConfig config;
  config.seed = 94;
  config.total_sites = 800;
  config.study_duration = 40 * util::kDay;
  const auto world = sim::World::generate(config);
  netsim::DataPlane plane(world, {0.0, 1});
  netsim::PoolDns dns(world);
  hitlist::PassiveCollector collector(world, plane, dns, {});
  hitlist::Corpus corpus(1 << 14);
  collector.run(corpus, 0, 40 * util::kDay);

  const Eui64Tracker tracker(corpus, world);
  const auto report = bad_apple_linkage(corpus, tracker);
  // With IoT EUI-64 propensities and multi-device homes, some households
  // must leak.
  EXPECT_GT(report.apples_with_cotenants, 0u);
  EXPECT_GT(report.linked_addresses, 0u);
  EXPECT_GE(report.linked_addresses, report.linked_privacy_addresses);
}

}  // namespace
}  // namespace v6::analysis
