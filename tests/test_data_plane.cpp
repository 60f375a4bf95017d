#include "netsim/data_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "proto/udp.h"
#include "util/rng.h"

namespace v6::netsim {
namespace {

class DataPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 21;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static DataPlane lossless() { return DataPlane(*world_, {0.0, 1}); }

  static sim::World* world_;
};

sim::World* DataPlaneTest::world_ = nullptr;

// A reachable (non-firewalled, echo-answering) device, or kNoDevice.
sim::DeviceId find_reachable(const sim::World& w, util::SimTime t) {
  for (const auto& dev : w.devices()) {
    if (dev.kind != sim::DeviceKind::kCpe || !dev.responds_icmp) continue;
    const auto res = w.resolve(w.device_address(dev.id, t), t);
    if (res.kind == sim::World::Resolution::Kind::kDevice &&
        !res.firewalled) {
      return dev.id;
    }
  }
  return sim::kNoDevice;
}

sim::DeviceId find_firewalled(const sim::World& w, util::SimTime /*t*/) {
  for (const auto& dev : w.devices()) {
    if (dev.site == sim::kNoSite || dev.kind == sim::DeviceKind::kCpe) {
      continue;
    }
    if (!w.sites()[dev.site].firewalled || w.sites()[dev.site].aliased) {
      continue;
    }
    return dev.id;
  }
  return sim::kNoDevice;
}

TEST_F(DataPlaneTest, EchoToLiveDeviceGetsReply) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto target = world_->device_address(d, t);
  const auto result =
      plane.echo(world_->vantages().front().address, target, 7, 9, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
  EXPECT_EQ(result.responder, target);
  EXPECT_EQ(result.sequence, 9);
}

TEST_F(DataPlaneTest, EchoToFirewalledDeviceTimesOut) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_firewalled(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto target = world_->device_address(d, t);
  const auto result =
      plane.echo(world_->vantages().front().address, target, 7, 9, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
}

TEST_F(DataPlaneTest, EchoToNowhereTimesOut) {
  auto plane = lossless();
  const auto result =
      plane.echo(world_->vantages().front().address,
                 *net::Ipv6Address::parse("2001:db8::dead"), 1, 1, 50);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
}

TEST_F(DataPlaneTest, HopLimitedProbeElicitsTimeExceeded) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  const auto path = plane.topology().path(src, dst, t);
  ASSERT_FALSE(path.empty());
  const auto result = plane.hop_limited_echo(src, dst, 1, 3, 1, t);
  ASSERT_EQ(result.kind, ProbeResult::Kind::kTimeExceeded);
  EXPECT_EQ(result.responder, path.front().address);
}

TEST_F(DataPlaneTest, HopLimitBeyondPathReachesDestination) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  const auto path = plane.topology().path(src, dst, t);
  const auto result = plane.hop_limited_echo(
      src, dst, static_cast<std::uint8_t>(path.size() + 1), 3, 1, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
}

// Every hop limit, checked against the path: at loss 0, a probe with hop
// limit h gets Time Exceeded from path[h-1] when that hop answers, silence
// when it does not, and plain echo semantics once h passes the path's end.
TEST_F(DataPlaneTest, EveryHopLimitAgreesWithThePath) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  util::Rng rng(13);
  const auto v0 = world_->vantages().front().address;
  const auto v1 = world_->vantages().back().address;
  const auto unrouted = *net::Ipv6Address::parse("2001:db8::1");
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> pairs;
  for (int i = 0; i < 300; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    const auto dst = world_->device_address(d, t);
    const auto same64 = net::Ipv6Address::from_u64(dst.hi64(), rng.next());
    pairs.emplace_back(i % 2 == 0 ? v0 : v1, dst);
    pairs.emplace_back(same64, dst);      // on-link: no hops at all
    pairs.emplace_back(v0, same64);       // random IID (aliased sites answer)
    pairs.emplace_back(unrouted, dst);    // source outside every AS
    pairs.emplace_back(dst, world_->device_address(
                                static_cast<sim::DeviceId>(rng.bounded(
                                    world_->devices().size())),
                                t));      // device to device
  }
  const auto ases = world_->ases();
  for (std::uint32_t as = 0; as < ases.size(); ++as) {
    if (ases[as].router_count != 0) {
      pairs.emplace_back(v0, world_->router_address(as, 0, 1));
    }
  }
  for (const auto& p : world_->aliased_datacenter_prefixes()) {
    pairs.emplace_back(v0, net::Ipv6Address::from_u64(
                               p.address().hi64() | 7, rng.next()));
  }
  for (int i = 0; i < 20; ++i) {
    pairs.emplace_back(v0, net::Ipv6Address::from_u64(
                               0x20010db800000000ull | rng.bounded(1 << 16),
                               rng.next()));
  }

  std::uint64_t exceeded = 0, silent_hops = 0, replies = 0, unanswered = 0;
  std::uint64_t empty_paths = 0, unrouted_paths = 0, cpe_less_paths = 0;
  std::size_t longest = 0;
  std::uint16_t seq = 0;
  for (const auto& [src, dst] : pairs) {
    const auto path = plane.topology().path(src, dst, t);
    ASSERT_LE(path.size(), Topology::kMaxHops);
    longest = std::max(longest, path.size());
    if (path.empty()) ++empty_paths;
    if (!world_->as_index_of(dst)) ++unrouted_paths;
    if (world_->as_index_of(dst) && !world_->site_at(dst, t)) {
      ++cpe_less_paths;
    }
    const auto res = world_->resolve(dst, t);
    using Kind = sim::World::Resolution::Kind;
    const bool answers =
        (res.kind == Kind::kDevice && !res.firewalled && !res.icmp_silent) ||
        res.kind == Kind::kRouter || res.kind == Kind::kAlias;
    for (std::uint8_t h = 1; h <= 12; ++h) {
      ++seq;
      const auto got = plane.hop_limited_echo(src, dst, h, 3, seq, t);
      if (h <= path.size()) {
        const Hop& hop = path[h - 1];
        if (hop.responds) {
          ++exceeded;
          ASSERT_EQ(got.kind, ProbeResult::Kind::kTimeExceeded) << +h;
          EXPECT_EQ(got.responder, hop.address);
        } else {
          ++silent_hops;
          EXPECT_EQ(got.kind, ProbeResult::Kind::kTimeout) << +h;
        }
      } else if (answers) {
        ++replies;
        ASSERT_EQ(got.kind, ProbeResult::Kind::kEchoReply) << +h;
        EXPECT_EQ(got.responder, dst);
        EXPECT_EQ(got.sequence, seq);
      } else {
        ++unanswered;
        EXPECT_EQ(got.kind, ProbeResult::Kind::kTimeout) << +h;
      }
    }
  }
  // Every branch was exercised, the longest possible path included.
  EXPECT_EQ(longest, Topology::kMaxHops);
  EXPECT_GT(exceeded, 0u);
  EXPECT_GT(silent_hops, 0u);
  EXPECT_GT(replies, 0u);
  EXPECT_GT(unanswered, 0u);
  EXPECT_GT(empty_paths, 0u);
  EXPECT_GT(unrouted_paths, 0u);
  EXPECT_GT(cpe_less_paths, 0u);
  EXPECT_EQ(plane.drops(), 0u);
}

TEST_F(DataPlaneTest, FullLossDropsEverything) {
  DataPlane plane(*world_, {1.0, 1});
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto result = plane.echo(world_->vantages().front().address,
                                 world_->device_address(d, t), 1, 1, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
  EXPECT_GT(plane.drops(), 0u);
}

TEST_F(DataPlaneTest, LossRateIsRoughlyHonored) {
  DataPlane plane(*world_, {0.2, 2});
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto target = world_->device_address(d, t);
  const auto src = world_->vantages().front().address;
  int replies = 0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) {
    if (plane.echo(src, target, 1, static_cast<std::uint16_t>(i), t).kind ==
        ProbeResult::Kind::kEchoReply) {
      ++replies;
    }
  }
  // Two loss opportunities per exchange: P(reply) = 0.8^2 = 0.64.
  EXPECT_NEAR(static_cast<double>(replies) / kProbes, 0.64, 0.05);
}

// Distinct always-answering targets: random IIDs inside an aliased
// datacenter prefix, so every echo draws a request and an answer verdict.
std::vector<net::Ipv6Address> aliased_targets(const sim::World& w,
                                              std::size_t n) {
  const auto prefixes = w.aliased_datacenter_prefixes();
  std::vector<net::Ipv6Address> out;
  if (prefixes.empty()) return out;
  util::Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(net::Ipv6Address::from_u64(
        prefixes[0].address().hi64() | 7, rng.next()));
  }
  return out;
}

TEST_F(DataPlaneTest, SameProbeSameOutcomeWhateverRunsBetween) {
  const auto src = world_->vantages().front().address;
  const auto targets = aliased_targets(*world_, 200);
  ASSERT_EQ(targets.size(), 200u);
  DataPlane plane(*world_, {0.5, 4});
  std::vector<ProbeResult::Kind> first;
  for (const auto& dst : targets) {
    first.push_back(plane.echo(src, dst, 3, 4, 1000).kind);
  }
  // Unrelated traffic in between, then the same probes again.
  for (const auto& dst : targets) {
    plane.echo(src, dst, 3, 5, 1000);
    plane.tcp_syn(src, dst, 443, 9, 1001);
  }
  int replies = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(plane.echo(src, targets[i], 3, 4, 1000).kind, first[i]) << i;
    replies += first[i] == ProbeResult::Kind::kEchoReply;
  }
  // Neither all lost nor all answered: the verdicts are real draws.
  EXPECT_GT(replies, 0);
  EXPECT_LT(replies, 200);
}

TEST_F(DataPlaneTest, PermutedBatchGivesIdenticalOutcomes) {
  const auto src = world_->vantages().front().address;
  const auto targets = aliased_targets(*world_, 500);
  ASSERT_EQ(targets.size(), 500u);
  std::vector<std::size_t> order(targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(5);
  rng.shuffle(order);

  DataPlane forward(*world_, {0.3, 8});
  DataPlane permuted(*world_, {0.3, 8});
  std::vector<ProbeResult::Kind> a(targets.size()), b(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    a[i] = forward.hop_limited_echo(src, targets[i], 64, 1,
                                    static_cast<std::uint16_t>(i), 2000)
               .kind;
  }
  for (const std::size_t i : order) {
    b[i] = permuted.hop_limited_echo(src, targets[i], 64, 1,
                                     static_cast<std::uint16_t>(i), 2000)
               .kind;
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(forward.drops(), permuted.drops());
  EXPECT_GT(forward.drops(), 0u);
}

TEST_F(DataPlaneTest, DropFrequencyWithinBinomialBounds) {
  // Unrouted destinations answer nothing, so each probe is exactly one
  // loss draw (its request).
  constexpr double kLoss = 0.1;
  constexpr int kProbes = 100000;
  DataPlane plane(*world_, {kLoss, 12});
  const auto src = world_->vantages().front().address;
  for (int i = 0; i < kProbes; ++i) {
    plane.echo(src, net::Ipv6Address::from_u64(0x20010db800000000ULL, i), 1,
               1, 500);
  }
  const double mean = kProbes * kLoss;
  const double sd = std::sqrt(kProbes * kLoss * (1.0 - kLoss));
  EXPECT_NEAR(static_cast<double>(plane.drops()), mean, 5.0 * sd);
}

TEST_F(DataPlaneTest, RetryAttemptsDrawIndependently) {
  // ZMap6 puts the attempt number in the sequence. Two attempts at the
  // same target and second must fail together only as often as two
  // independent draws would: (1 - (1 - p)^2)^2, not 1 - (1 - p)^2.
  constexpr double kLoss = 0.3;
  constexpr int kTargets = 20000;
  const auto src = world_->vantages().front().address;
  const auto targets = aliased_targets(*world_, kTargets);
  ASSERT_EQ(targets.size(), static_cast<std::size_t>(kTargets));
  DataPlane plane(*world_, {kLoss, 13});
  int both_silent = 0;
  for (const auto& dst : targets) {
    const bool first =
        plane.echo(src, dst, 1, 100, 700).kind == ProbeResult::Kind::kTimeout;
    const bool second =
        plane.echo(src, dst, 1, 101, 700).kind == ProbeResult::Kind::kTimeout;
    both_silent += first && second;
  }
  const double q = 1.0 - (1.0 - kLoss) * (1.0 - kLoss);
  const double p = q * q;
  const double sd = std::sqrt(kTargets * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(both_silent), kTargets * p, 5.0 * sd);
}

TEST_F(DataPlaneTest, UdpServiceRoundTrip) {
  auto plane = lossless();
  const auto server = world_->vantages().front().address;
  const UdpService echo_service =
      [&server](const net::Ipv6Address&, std::uint16_t src_port,
                const std::vector<std::uint8_t>& payload, util::SimTime)
      -> std::optional<std::vector<std::uint8_t>> {
    EXPECT_EQ(src_port, 40000);
    auto echo = payload;
    echo.push_back(0x99);
    return echo;
  };
  const auto client = world_->device_address(0, 0);
  const auto response = plane.send_udp(client, 40000, server, proto::kNtpPort,
                                       7, {1, 2, 3}, 0, echo_service);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->size(), 4u);
  EXPECT_EQ(response->back(), 0x99);
}

// An empty service: nothing listens, so nothing answers.
TEST_F(DataPlaneTest, UdpToUnboundPortIsSilent) {
  auto plane = lossless();
  const auto client = world_->device_address(0, 0);
  EXPECT_FALSE(plane.send_udp(client, 40000,
                              world_->vantages().front().address, 9999, 7,
                              {1}, 0, {}));
}

TEST_F(DataPlaneTest, UdpServiceMayDecline) {
  auto plane = lossless();
  const auto server = world_->vantages().front().address;
  const UdpService declining =
      [](const net::Ipv6Address&, std::uint16_t,
         const std::vector<std::uint8_t>&, util::SimTime)
      -> std::optional<std::vector<std::uint8_t>> { return std::nullopt; };
  EXPECT_FALSE(plane.send_udp(world_->device_address(0, 0), 40000, server,
                              proto::kNtpPort, 7, {1}, 0, declining));
}

// A UDP exchange's fate is keyed on its identity (addresses, ports,
// second, nonce): the payload bytes never move it, each nonce draws anew,
// send_udp() acts on exactly udp_fate()'s verdict, and only send_udp()
// counts the drops.
TEST_F(DataPlaneTest, UdpVerdictIgnoresPayloadAndDiffersPerNonce) {
  DataPlane plane(*world_, {0.5, 21});
  const auto server = world_->vantages().front().address;
  const auto client = world_->device_address(0, 0);
  const UdpService echo_service =
      [](const net::Ipv6Address&, std::uint16_t,
         const std::vector<std::uint8_t>& payload, util::SimTime)
      -> std::optional<std::vector<std::uint8_t>> { return payload; };
  constexpr std::uint32_t kNonces = 400;
  std::uint32_t request_lost = 0, answer_lost = 0, answered = 0;
  std::uint64_t expected_drops = 0;
  for (std::uint32_t nonce = 0; nonce < kNonces; ++nonce) {
    const DataPlane::UdpFate fate =
        plane.udp_fate(client, 50000, server, proto::kNtpPort, nonce, 900);
    request_lost += fate.request_lost;
    answer_lost += fate.answer_lost;
    expected_drops += fate.request_lost ? 1 : fate.answer_lost ? 1 : 0;
    for (const std::vector<std::uint8_t>& payload :
         {std::vector<std::uint8_t>{1}, std::vector<std::uint8_t>(48, 0xab)}) {
      const auto response =
          plane.send_udp(client, 50000, server, proto::kNtpPort, nonce,
                         payload, 900, echo_service);
      EXPECT_EQ(response.has_value(), !fate.request_lost && !fate.answer_lost)
          << nonce;
      if (response) {
        EXPECT_EQ(*response, payload);
      }
    }
    answered += !fate.request_lost && !fate.answer_lost;
  }
  // Two payloads per nonce, the same fate each time.
  EXPECT_EQ(plane.drops(), 2 * expected_drops);
  // Each nonce's two legs are fresh draws at p = 0.5.
  EXPECT_GT(request_lost, kNonces / 4);
  EXPECT_LT(request_lost, 3 * kNonces / 4);
  EXPECT_GT(answer_lost, kNonces / 4);
  EXPECT_LT(answer_lost, 3 * kNonces / 4);
  EXPECT_GT(answered, 0u);
  EXPECT_LT(answered, kNonces / 2);

  // Asking the verdict counts nothing.
  const std::uint64_t drops = plane.drops();
  for (std::uint32_t nonce = 0; nonce < kNonces; ++nonce) {
    plane.udp_fate(client, 50000, server, proto::kNtpPort, nonce, 900);
  }
  EXPECT_EQ(plane.drops(), drops);
}

TEST_F(DataPlaneTest, RouterIcmpRateLimiting) {
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);

  netsim::DataPlaneConfig limited{0.0, 1, 5};  // 5 errors/router/second
  DataPlane plane(*world_, limited);
  int exceeded = 0;
  for (int i = 0; i < 40; ++i) {
    if (plane.hop_limited_echo(src, dst, 1, 1,
                               static_cast<std::uint16_t>(i), t)
            .kind == ProbeResult::Kind::kTimeExceeded) {
      ++exceeded;
    }
  }
  EXPECT_EQ(exceeded, 5);
  EXPECT_EQ(plane.rate_limited(), 35u);

  // The budget resets the next second...
  EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1, 99, t + 1).kind,
            ProbeResult::Kind::kTimeExceeded);
  // ...and destination replies are never policed.
  EXPECT_EQ(plane.echo(src, dst, 1, 7, t + 1).kind,
            ProbeResult::Kind::kEchoReply);
}

TEST_F(DataPlaneTest, RateLimitDisabledByDefault) {
  auto plane = lossless();
  const util::SimTime t = 2000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(plane
                  .hop_limited_echo(src, dst, 1, 1,
                                    static_cast<std::uint16_t>(i), t)
                  .kind,
              ProbeResult::Kind::kTimeExceeded);
  }
  EXPECT_EQ(plane.rate_limited(), 0u);
}

TEST_F(DataPlaneTest, IcmpBudgetSurvivesBackwardProbeTimes) {
  // Interleaved backscan intervals revisit earlier seconds: a probe at
  // t+1 followed by more probes at t must still honor the budget already
  // charged at t. The old clear-on-any-time-change reset wiped it.
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);

  netsim::DataPlaneConfig limited{0.0, 1, 5};  // 5 errors/router/second
  DataPlane plane(*world_, limited);
  // Exhaust second t...
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1,
                                     static_cast<std::uint16_t>(i), t)
                  .kind,
              ProbeResult::Kind::kTimeExceeded);
  }
  // ...advance the clock...
  EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1, 50, t + 1).kind,
            ProbeResult::Kind::kTimeExceeded);
  // ...then revisit second t: its budget is spent, every probe is policed.
  const auto limited_before = plane.rate_limited();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1,
                                     static_cast<std::uint16_t>(60 + i), t)
                  .kind,
              ProbeResult::Kind::kTimeout);
  }
  EXPECT_EQ(plane.rate_limited(), limited_before + 10);
  // Second t+1 still has 4 of its 5 left.
  int exceeded = 0;
  for (int i = 0; i < 10; ++i) {
    if (plane.hop_limited_echo(src, dst, 1, 1,
                               static_cast<std::uint16_t>(80 + i), t + 1)
            .kind == ProbeResult::Kind::kTimeExceeded) {
      ++exceeded;
    }
  }
  EXPECT_EQ(exceeded, 4);
}

TEST_F(DataPlaneTest, FaultScheduleSwallowsUdpToCrashedVantage) {
  auto plane = lossless();
  const auto& vantage = world_->vantages().front();
  const UdpService service =
      [](const net::Ipv6Address&, std::uint16_t,
         const std::vector<std::uint8_t>&, util::SimTime)
      -> std::optional<std::vector<std::uint8_t>> {
    return std::vector<std::uint8_t>{42};
  };
  FaultSchedule faults(world_->vantages());
  faults.add_window(vantage.id, 1000, 2000);
  plane.set_faults(&faults);

  const auto client = world_->device_address(0, 0);
  const auto send = [&](util::SimTime t) {
    return plane.send_udp(client, 40000, vantage.address, proto::kNtpPort, 7,
                          {1}, t, service);
  };
  EXPECT_TRUE(send(500));
  EXPECT_FALSE(send(1500));
  EXPECT_EQ(plane.fault_drops(), 1u);
  EXPECT_TRUE(send(3000));
  // Other destinations are never faulted.
  plane.set_faults(nullptr);
  EXPECT_TRUE(send(1500));
}

TEST_F(DataPlaneTest, AliasRegionsAnswerEcho) {
  auto plane = lossless();
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  util::Rng rng(3);
  const auto target = net::Ipv6Address::from_u64(
      prefixes[0].address().hi64() | 7, rng.next());
  const auto result =
      plane.echo(world_->vantages().front().address, target, 1, 1, 1000);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
}

}  // namespace
}  // namespace v6::netsim
