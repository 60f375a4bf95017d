#include <gtest/gtest.h>

#include "netsim/data_plane.h"
#include "scan/zmap6.h"
#include "util/rng.h"

namespace v6::netsim {
namespace {

class TcpPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 61;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    plane_ = new netsim::DataPlane(*world_, {0.0, 5});
  }
  static void TearDownTestSuite() {
    delete plane_;
    delete world_;
  }
  static net::Ipv6Address source() {
    return world_->vantages().front().address;
  }
  static sim::World* world_;
  static netsim::DataPlane* plane_;
};

sim::World* TcpPlaneTest::world_ = nullptr;
netsim::DataPlane* TcpPlaneTest::plane_ = nullptr;

// First unfirewalled server with/without a listener on `port`.
sim::DeviceId find_server(const sim::World& w, std::uint16_t port,
                          bool listening) {
  for (const auto& dev : w.devices()) {
    if (dev.kind != sim::DeviceKind::kServer || dev.firewalled) continue;
    if (w.serves_tcp(dev.id, port) == listening) return dev.id;
  }
  return sim::kNoDevice;
}

TEST_F(TcpPlaneTest, ListenerAnswersSynAck) {
  const auto d = find_server(*world_, 443, true);
  ASSERT_NE(d, sim::kNoDevice);
  const auto outcome = plane_->tcp_syn(source(), world_->server_address(d),
                                       443, 12345, 1000);
  EXPECT_EQ(outcome, netsim::DataPlane::SynOutcome::kSynAck);
}

TEST_F(TcpPlaneTest, ClosedPortAnswersRst) {
  const auto d = find_server(*world_, 443, false);
  ASSERT_NE(d, sim::kNoDevice);
  const auto outcome = plane_->tcp_syn(source(), world_->server_address(d),
                                       443, 12345, 1000);
  EXPECT_EQ(outcome, netsim::DataPlane::SynOutcome::kRst);
}

TEST_F(TcpPlaneTest, IcmpSilentHostsStillRst) {
  // A host that ignores echo must still answer TCP — the reason the
  // Hitlist scans multiple protocols.
  for (const auto& dev : world_->devices()) {
    if (dev.kind != sim::DeviceKind::kServer || dev.responds_icmp ||
        dev.firewalled) {
      continue;
    }
    const auto target = world_->server_address(dev.id);
    const auto echo = plane_->echo(source(), target, 1, 1, 1000);
    EXPECT_EQ(echo.kind, netsim::ProbeResult::Kind::kTimeout);
    const auto syn = plane_->tcp_syn(source(), target, 443, 9, 1000);
    EXPECT_NE(syn, netsim::DataPlane::SynOutcome::kTimeout);
    return;
  }
  GTEST_SKIP() << "no ICMP-silent unfirewalled server in this seed";
}

TEST_F(TcpPlaneTest, FirewalledServerSilentOnTcpToo) {
  for (const auto& dev : world_->devices()) {
    if (dev.kind != sim::DeviceKind::kServer || !dev.firewalled) continue;
    const auto outcome = plane_->tcp_syn(
        source(), world_->server_address(dev.id), 443, 9, 1000);
    EXPECT_EQ(outcome, netsim::DataPlane::SynOutcome::kTimeout);
    return;
  }
  GTEST_SKIP() << "no firewalled server in this seed";
}

TEST_F(TcpPlaneTest, RouterInterfacesRst) {
  const auto outcome =
      plane_->tcp_syn(source(), world_->router_address(0, 0, 1), 80, 9, 50);
  EXPECT_EQ(outcome, netsim::DataPlane::SynOutcome::kRst);
}

TEST_F(TcpPlaneTest, AliasedSpaceSynAcksEverything) {
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  util::Rng rng(3);
  const auto target = net::Ipv6Address::from_u64(
      prefixes[0].address().hi64() | 3, rng.next());
  EXPECT_EQ(plane_->tcp_syn(source(), target, 443, 9, 1000),
            netsim::DataPlane::SynOutcome::kSynAck);
}

TEST_F(TcpPlaneTest, UnroutedTargetTimesOut) {
  EXPECT_EQ(plane_->tcp_syn(source(),
                            *net::Ipv6Address::parse("2001:db8::1"), 443, 9,
                            1000),
            netsim::DataPlane::SynOutcome::kTimeout);
}

TEST_F(TcpPlaneTest, ZmapTcpProtocolCountsAnyAnswer) {
  const auto listener = find_server(*world_, 443, true);
  const auto closed = find_server(*world_, 443, false);
  scan::Zmap6Scanner tcp(*plane_, {source(), 100000, 0, 7,
                                   scan::ProbeProtocol::kTcpSyn443});
  EXPECT_TRUE(tcp.probe(world_->server_address(listener), 1000));
  EXPECT_TRUE(tcp.probe(world_->server_address(closed), 1000));
  EXPECT_FALSE(tcp.probe(*net::Ipv6Address::parse("2001:db8::1"), 1000));
}

TEST_F(TcpPlaneTest, ClientsHaveNoListeners) {
  int checked = 0;
  for (const auto& dev : world_->devices()) {
    if (dev.kind == sim::DeviceKind::kServer ||
        dev.kind == sim::DeviceKind::kCpe) {
      continue;
    }
    EXPECT_FALSE(world_->serves_tcp(dev.id, 80));
    EXPECT_FALSE(world_->serves_tcp(dev.id, 443));
    if (++checked > 200) break;
  }
}

}  // namespace
}  // namespace v6::netsim
