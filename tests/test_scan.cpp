#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "scan/backscanner.h"
#include "scan/target_gen.h"
#include "scan/yarrp.h"
#include "scan/zmap6.h"
#include "util/rng.h"

namespace v6::scan {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 77;
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

sim::World* ScanTest::world_ = nullptr;
netsim::DataPlane* ScanTest::plane_ = nullptr;

sim::DeviceId reachable_cpe(const sim::World& w, util::SimTime t) {
  for (const auto& dev : w.devices()) {
    if (dev.kind != sim::DeviceKind::kCpe || !dev.responds_icmp) continue;
    // Aliased sites answer everything; these tests need an ordinary one.
    if (dev.site != sim::kNoSite && w.sites()[dev.site].aliased) continue;
    const auto res = w.resolve(w.device_address(dev.id, t), t);
    if (res.kind == sim::World::Resolution::Kind::kDevice && !res.firewalled) {
      return dev.id;
    }
  }
  return sim::kNoDevice;
}

TEST_F(ScanTest, ZmapProbeHitsLiveTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 1});
  const auto d = reachable_cpe(*world_, 1000);
  ASSERT_NE(d, sim::kNoDevice);
  EXPECT_TRUE(zmap.probe(world_->device_address(d, 1000), 1000));
  EXPECT_EQ(zmap.probes_sent(), 1u);
}

TEST_F(ScanTest, ZmapProbeMissesDeadTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 1});
  EXPECT_FALSE(zmap.probe(*net::Ipv6Address::parse("2001:db8::1"), 1000));
}

TEST_F(ScanTest, ZmapScanReturnsRecordPerTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 2});
  const auto d = reachable_cpe(*world_, 1000);
  const std::vector<net::Ipv6Address> targets = {
      world_->device_address(d, 1000),
      *net::Ipv6Address::parse("2001:db8::1"),
  };
  const auto records = zmap.scan(targets, 1000);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].responded);
  EXPECT_FALSE(records[1].responded);
  EXPECT_EQ(records[0].target, targets[0]);
}

TEST_F(ScanTest, ZmapRetriesRecoverLostProbes) {
  // Distinct live targets: identical probes would share one loss verdict,
  // so retries are judged across many targets, each retry carrying its
  // attempt number in the sequence.
  std::vector<net::Ipv6Address> targets;
  for (const auto& dev : world_->devices()) {
    if (targets.size() == 50) break;
    if (dev.kind != sim::DeviceKind::kCpe || !dev.responds_icmp) continue;
    if (dev.site != sim::kNoSite && world_->sites()[dev.site].aliased) {
      continue;
    }
    const auto address = world_->device_address(dev.id, 1000);
    const auto res = world_->resolve(address, 1000);
    if (res.kind == sim::World::Resolution::Kind::kDevice &&
        !res.firewalled) {
      targets.push_back(address);
    }
  }
  ASSERT_EQ(targets.size(), 50u);
  netsim::DataPlane lossy(*world_, {0.4, 9});
  Zmap6Scanner no_retry(lossy, {source(), 100000, 0, 3});
  Zmap6Scanner with_retry(lossy, {source(), 100000, 3, 3});
  const auto once = no_retry.scan(targets, 1000);
  const auto retried = with_retry.scan(targets, 1000);
  int base = 0, recovered = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    base += once[i].responded;
    recovered += retried[i].responded;
    // The first round is the same probes, so it finds at least as much.
    if (once[i].responded) {
      EXPECT_TRUE(retried[i].responded) << i;
    }
  }
  EXPECT_GT(recovered, base);
  EXPECT_EQ(no_retry.probes_sent(), 50u);
  EXPECT_GT(with_retry.probes_sent(), 50u);
}

TEST_F(ScanTest, YarrpReconstructsPath) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto target = world_->device_address(d, 1000);
  const auto path = plane_->topology().path(source(), target, 1000);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 4});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].destination_reached);
  for (std::size_t h = 0; h < path.size(); ++h) {
    if (!path[h].responds) continue;
    ASSERT_TRUE(traces[0].hop_responded[h]) << "hop " << h;
    EXPECT_EQ(traces[0].hops[h], path[h].address);
  }
}

TEST_F(ScanTest, YarrpDiscoveredIncludesHopsAndDestination) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto target = world_->device_address(d, 1000);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 5});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  const auto found = YarrpTracer::discovered(traces);
  EXPECT_GE(found.size(), 2u);  // at least one hop + destination
  EXPECT_TRUE(std::find(found.begin(), found.end(), target) != found.end());
}

TEST_F(ScanTest, YarrpUnreachableTargetStillFindsRouters) {
  // A random address in a routed AS: the path answers, the target doesn't.
  const auto& as = world_->ases()[0];
  const auto target = net::Ipv6Address::from_u64(
      as.prefix_hi | (sim::kRegionSite << 28) | 0xdead00, 0x12345678);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 6});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  EXPECT_FALSE(traces[0].destination_reached);
  EXPECT_FALSE(YarrpTracer::discovered(traces).empty());
}

TEST_F(ScanTest, RoutedSlash48FractionScalesTargetCount) {
  const double full_count =
      static_cast<double>(world_->ases().size()) * 65536.0;
  const auto some = routed_slash48_targets(*world_, 0.05, 1);
  EXPECT_NEAR(static_cast<double>(some.size()), 0.05 * full_count,
              0.005 * full_count);
  // Every target is a ::1 and every target is unique.
  std::unordered_set<net::Ipv6Address> unique(some.begin(), some.end());
  EXPECT_EQ(unique.size(), some.size());
  for (std::size_t i = 0; i < some.size(); i += 1000) {
    EXPECT_EQ(some[i].lo64(), 1u);
  }
}

TEST_F(ScanTest, LowIidCandidates) {
  const net::Ipv6Prefix p64(net::Ipv6Address::from_u64(0xabc, 0), 64);
  const auto candidates = low_iid_candidates(std::span(&p64, 1));
  ASSERT_EQ(candidates.size(), 5u);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.hi64(), 0xabcULL);
    EXPECT_LE(c.lo64(), 0x100u);
  }
}

TEST_F(ScanTest, SubnetSweepCandidates) {
  const net::Ipv6Prefix p48(
      net::Ipv6Address::from_u64(0x20010db800010000ULL, 0), 48);
  const auto candidates = subnet_sweep_candidates(std::span(&p48, 1), 4);
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[3].hi64(), 0x20010db800010003ULL);
  EXPECT_EQ(candidates[3].lo64(), 1u);
}

TEST_F(ScanTest, BackscannerDedupsWithinInterval) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 1});
  const auto d = reachable_cpe(*world_, 1000);
  const auto client = world_->device_address(d, 1000);
  ntp::Observation obs{client, 1000, 0};
  scanner.observe(obs, source());
  scanner.observe(obs, source());  // same interval: ignored
  obs.time = 1000 + 11 * util::kMinute;  // next interval: probed again
  scanner.observe(obs, source());
  const auto report = scanner.finish();
  EXPECT_EQ(report.clients_probed, 2u);
  EXPECT_EQ(report.outcomes.size(), 2u);
  EXPECT_TRUE(report.outcomes[0].client_responded);
}

TEST_F(ScanTest, BackscannerFindsAliasedSlash64s) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 2});
  // Observe a "client" inside a fully aliased datacenter /64.
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto client =
      net::Ipv6Address::from_u64(prefixes[0].address().hi64() | 1, 0xabcdef);
  scanner.observe({client, 5000, 1}, source());
  const auto report = scanner.finish();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].random_responded);
  ASSERT_EQ(report.aliased_slash64s.size(), 1u);
  EXPECT_EQ(report.aliased_slash64s[0], net::slash64_of(client));
  EXPECT_EQ(report.responsive_random_addresses, 1u);
}

TEST_F(ScanTest, BackscannerRandomProbeMissesOrdinaryNetworks) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 3});
  const auto d = reachable_cpe(*world_, 1000);
  scanner.observe({world_->device_address(d, 1000), 1000, 0}, source());
  const auto report = scanner.finish();
  EXPECT_FALSE(report.outcomes[0].random_responded);
  EXPECT_TRUE(report.aliased_slash64s.empty());
}

TEST_F(ScanTest, BackscannerOrderIndependent) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto c1 = world_->device_address(d, 1000);
  const auto prefixes = world_->aliased_datacenter_prefixes();
  const auto c2 =
      net::Ipv6Address::from_u64(prefixes[0].address().hi64() | 2, 0x1111);

  Backscanner fwd(*plane_, {10 * util::kMinute, 0.0, 12, 4});
  fwd.observe({c1, 1000, 0}, source());
  fwd.observe({c2, 90000, 1}, source());
  const auto a = fwd.finish();

  Backscanner rev(*plane_, {10 * util::kMinute, 0.0, 12, 4});
  rev.observe({c2, 90000, 1}, source());
  rev.observe({c1, 1000, 0}, source());
  const auto b = rev.finish();

  EXPECT_EQ(a.clients_probed, b.clients_probed);
  EXPECT_EQ(a.clients_responded, b.clients_responded);
  EXPECT_EQ(a.aliased_slash64s, b.aliased_slash64s);
}

TEST_F(ScanTest, ShardedScansMatchSerial) {
  // Enough targets for several shards on a 3-worker pool, on a lossy
  // plane so retries and the loss verdicts are exercised.
  // Each device's address plus two neighbours in its /64.
  std::vector<net::Ipv6Address> targets;
  for (const auto& dev : world_->devices()) {
    const auto a = world_->device_address(dev.id, 5000);
    targets.push_back(a);
    targets.push_back(net::Ipv6Address::from_u64(a.hi64(), a.lo64() ^ 1));
    targets.push_back(net::Ipv6Address::from_u64(a.hi64(), 0x100));
  }
  ASSERT_GT(targets.size(), 2 * kMinProbesPerShard);
  util::ThreadPool pool(3);

  netsim::DataPlane serial_plane(*world_, {0.2, 6});
  netsim::DataPlane sharded_plane(*world_, {0.2, 6});
  Zmap6Scanner serial(serial_plane, {source(), 1000, 2, 8});
  Zmap6Scanner sharded(sharded_plane, {source(), 1000, 2, 8,
                                       ProbeProtocol::kIcmpv6Echo, nullptr,
                                       &pool});
  const auto a = serial.scan(targets, 5000);
  const auto b = sharded.scan(targets, 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].responded, b[i].responded) << i;
  }
  EXPECT_EQ(serial.probes_sent(), sharded.probes_sent());

  const std::span<const net::Ipv6Address> traced(targets.data(), 800);
  YarrpTracer serial_yarrp(serial_plane, {source(), 8, 50000, 9});
  YarrpTracer sharded_yarrp(sharded_plane,
                            {source(), 8, 50000, 9, nullptr, &pool});
  const auto ta = serial_yarrp.trace(traced, 6000);
  const auto tb = sharded_yarrp.trace(traced, 6000);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].hops, tb[i].hops) << i;
    EXPECT_EQ(ta[i].hop_responded, tb[i].hop_responded) << i;
    EXPECT_EQ(ta[i].destination_reached, tb[i].destination_reached) << i;
  }
  EXPECT_EQ(YarrpTracer::discovered(ta), YarrpTracer::discovered(tb, &pool));
  EXPECT_EQ(serial_plane.drops(), sharded_plane.drops());
  EXPECT_GT(serial_plane.drops(), 0u);
}

}  // namespace
}  // namespace v6::scan
