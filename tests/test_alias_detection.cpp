#include "hitlist/alias_detection.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace v6::hitlist {
namespace {

class AliasDetectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    // Seed chosen so the world contains aliased customer sites (the
    // DetectsAliasedSlash64InsideSite case needs one).
    config.seed = 92;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    plane_ = new netsim::DataPlane(*world_, {0.0, 5});
  }
  static void TearDownTestSuite() {
    delete plane_;
    delete world_;
  }
  static AliasDetectorConfig config(std::uint32_t probes = 8) {
    return {world_->vantages().front().address, probes, probes, 123};
  }
  static sim::World* world_;
  static netsim::DataPlane* plane_;
};

sim::World* AliasDetectionTest::world_ = nullptr;
netsim::DataPlane* AliasDetectionTest::plane_ = nullptr;

TEST_F(AliasDetectionTest, DetectsFullyAliasedSlash48) {
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  AliasDetector detector(*plane_, config());
  EXPECT_TRUE(detector.is_aliased(prefixes[0], 1000));
}

TEST_F(AliasDetectionTest, ProbesCountInTheScanCounter) {
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  obs::Registry registry;
  AliasDetectorConfig counted = config();
  counted.metrics = &registry;
  AliasDetector detector(*plane_, counted);
  EXPECT_TRUE(detector.is_aliased(prefixes[0], 1000));
  EXPECT_EQ(detector.probes_sent(), 8u);  // all eight must answer
  EXPECT_EQ(registry.snapshot().counter_sum("v6_scan_probes_total"), 8u);
}

TEST_F(AliasDetectionTest, OrdinarySlash48IsNotAliased) {
  AliasDetector detector(*plane_, config());
  // The infra region of AS 0: routers answer at ::1 but random addresses
  // do not.
  const net::Ipv6Prefix p48(
      net::Ipv6Address::from_u64(world_->ases()[0].prefix_hi, 0), 48);
  EXPECT_FALSE(detector.is_aliased(p48, 1000));
}

TEST_F(AliasDetectionTest, UnroutedPrefixIsNotAliased) {
  AliasDetector detector(*plane_, config());
  EXPECT_FALSE(detector.is_aliased(*net::Ipv6Prefix::parse("2001:db8::/48"),
                                   1000));
}

TEST_F(AliasDetectionTest, DetectsAliasedSlash64InsideSite) {
  // Aliased customer sites answer on all four of their /64s.
  for (const auto& site : world_->sites()) {
    if (!site.aliased) continue;
    const auto hi = world_->site_prefix_hi(site.id, 1000) | 1;
    AliasDetector detector(*plane_, config());
    EXPECT_TRUE(detector.is_aliased(
        net::Ipv6Prefix(net::Ipv6Address::from_u64(hi, 0), 64), 1000));
    return;
  }
  FAIL() << "seed 92 is expected to contain an aliased site";
}

TEST_F(AliasDetectionTest, ThresholdBelowProbesToleratesLoss) {
  // At 15% per-direction loss, a probe answers with P = 0.85^2 = 0.72:
  // requiring all 8 of 8 almost always fails, 5 of 8 usually succeeds.
  const auto prefixes = world_->aliased_datacenter_prefixes();
  netsim::DataPlane lossy_a(*world_, {0.15, 3});
  AliasDetector strict(lossy_a,
                       {world_->vantages().front().address, 8, 8, 99});
  netsim::DataPlane lossy_b(*world_, {0.15, 3});
  AliasDetector tolerant(lossy_b,
                         {world_->vantages().front().address, 8, 5, 99});
  int strict_hits = 0, tolerant_hits = 0;
  for (int i = 0; i < 20; ++i) {
    if (strict.is_aliased(prefixes[0], 1000 + i)) ++strict_hits;
    if (tolerant.is_aliased(prefixes[0], 1000 + i)) ++tolerant_hits;
  }
  EXPECT_GT(tolerant_hits, strict_hits);
  EXPECT_GE(tolerant_hits, 12);
}

TEST_F(AliasDetectionTest, FilterAliasedPartitionsInput) {
  const auto aliased = world_->aliased_datacenter_prefixes();
  std::vector<net::Ipv6Prefix> mixed = {
      aliased[0],
      *net::Ipv6Prefix::parse("2001:db8::/48"),
  };
  AliasDetector detector(*plane_, config());
  const auto result = detector.filter_aliased(mixed, 1000);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], aliased[0]);
}

}  // namespace
}  // namespace v6::hitlist
