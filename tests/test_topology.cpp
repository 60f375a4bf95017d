#include "netsim/topology.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace v6::netsim {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 3;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    topo_ = new Topology(*world_);
  }
  static void TearDownTestSuite() {
    delete topo_;
    delete world_;
  }
  static sim::World* world_;
  static Topology* topo_;
};

sim::World* TopologyTest::world_ = nullptr;
Topology* TopologyTest::topo_ = nullptr;

TEST_F(TopologyTest, PathsAreDeterministic) {
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(100, 5000);
  const auto a = topo_->path(src, dst, 5000);
  const auto b = topo_->path(src, dst, 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].address, b[i].address);
  }
}

TEST_F(TopologyTest, PathsHaveReasonableLength) {
  const auto src = world_->vantages().front().address;
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    const auto path = topo_->path(src, world_->device_address(d, 777), 777);
    EXPECT_GE(path.size(), 1u);
    EXPECT_LE(path.size(), 8u);
  }
}

TEST_F(TopologyTest, SiteTargetsTraverseTheirCpe) {
  // Find a site device and confirm the last hop before it is its CPE.
  for (const auto& site : world_->sites()) {
    if (site.device_count == 0) continue;
    const auto target = world_->device_address(site.first_device, 999);
    const auto cpe = world_->device_address(site.cpe, 999);
    const auto path =
        topo_->path(world_->vantages().front().address, target, 999);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back().address, cpe);
    return;
  }
  FAIL() << "no site with client devices";
}

TEST_F(TopologyTest, BackboneIsTheFirstTransitAsOfEachCountry) {
  const auto ases = world_->ases();
  const auto n_countries =
      static_cast<std::uint16_t>(world_->countries().size());
  std::size_t with_backbone = 0;
  for (std::uint16_t c = 0; c < n_countries; ++c) {
    std::optional<std::uint32_t> first;
    for (std::uint32_t i = 0; i < ases.size() && !first; ++i) {
      if (ases[i].country_index == c &&
          ases[i].type == sim::AsType::kTransit) {
        first = i;
      }
    }
    EXPECT_EQ(topo_->backbone_of(c), first) << "country " << c;
    if (first) ++with_backbone;
  }
  EXPECT_GT(with_backbone, 0u);
  EXPECT_EQ(topo_->backbone_of(n_countries), std::nullopt);
}

TEST_F(TopologyTest, HopMatchesPathAtEveryIndex) {
  util::Rng rng(8);
  const auto src = world_->vantages().front().address;
  for (int i = 0; i < 100; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    const auto dst = world_->device_address(d, 321);
    const auto path = topo_->path(src, dst, 321);
    ASSERT_LE(path.size(), Topology::kMaxHops);
    for (std::size_t h = 0; h <= Topology::kMaxHops; ++h) {
      const auto hop = topo_->hop(src, dst, 321, h);
      ASSERT_EQ(hop.has_value(), h < path.size()) << h;
      if (hop) {
        EXPECT_EQ(hop->address, path[h].address);
        EXPECT_EQ(hop->responds, path[h].responds);
      }
    }
  }
}

TEST_F(TopologyTest, DestinationNeverAppearsAsHop) {
  util::Rng rng(6);
  const auto src = world_->vantages().front().address;
  for (int i = 0; i < 100; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    const auto dst = world_->device_address(d, 123);
    for (const auto& hop : topo_->path(src, dst, 123)) {
      EXPECT_NE(hop.address, dst);
    }
  }
}

TEST_F(TopologyTest, HopsAreRouterOrCpeAddresses) {
  util::Rng rng(8);
  const auto src = world_->vantages().front().address;
  for (int i = 0; i < 50; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    const auto dst = world_->device_address(d, 222);
    for (const auto& hop : topo_->path(src, dst, 222)) {
      const auto res = world_->resolve(hop.address, 222);
      EXPECT_TRUE(res.kind == sim::World::Resolution::Kind::kRouter ||
                  (res.kind == sim::World::Resolution::Kind::kDevice &&
                   world_->devices()[res.device].kind ==
                       sim::DeviceKind::kCpe))
          << hop.address.to_string();
    }
  }
}

TEST_F(TopologyTest, UnroutedDestinationStillCrossesSourceSide) {
  const auto src = world_->vantages().front().address;
  const auto path =
      topo_->path(src, *net::Ipv6Address::parse("3fff::1"), 10);
  // Egress hops exist even when the destination is off the map.
  EXPECT_GE(path.size(), 1u);
}

TEST_F(TopologyTest, SameSlash64IsOnLink) {
  const auto a = net::Ipv6Address::from_u64(0x20010db800000000ULL, 1);
  const auto b = net::Ipv6Address::from_u64(0x20010db800000000ULL, 2);
  EXPECT_TRUE(topo_->path(a, b, 0).empty());
}

}  // namespace
}  // namespace v6::netsim
