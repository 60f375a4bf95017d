#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "netsim/pool_dns.h"
#include "ntp/client_schedule.h"
#include "ntp/server.h"
#include "proto/ntp_packet.h"
#include "proto/udp.h"

namespace v6::ntp {
namespace {

sim::VantagePoint test_vantage() {
  sim::VantagePoint v;
  v.id = 3;
  v.country = *geo::CountryCode::parse("DE");
  v.address = *net::Ipv6Address::parse("2a00:5::1");
  return v;
}

TEST(NtpServer, AnswersValidClientRequest) {
  const auto vantage = test_vantage();
  std::vector<Observation> observations;
  NtpServer server(vantage, [&](const Observation& o) {
    observations.push_back(o);
  });

  const auto client = *net::Ipv6Address::parse("2a00:1:2000::5");
  const auto request = proto::make_client_request(5000, 0xfeed);
  const auto response_bytes = server.handle(client, request.encode(), 5000);
  ASSERT_TRUE(response_bytes);

  const auto response = proto::NtpPacket::decode(*response_bytes);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->mode, proto::NtpMode::kServer);
  EXPECT_EQ(response->stratum, 2);  // stratum-2 vantage servers
  EXPECT_EQ(response->origin_time, request.transmit_time);

  ASSERT_EQ(observations.size(), 1u);
  EXPECT_EQ(observations[0].client, client);
  EXPECT_EQ(observations[0].time, 5000);
  EXPECT_EQ(observations[0].vantage, 3);
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(NtpServer, IgnoresNonClientModes) {
  NtpServer server(test_vantage(), {});
  auto packet = proto::make_client_request(0, 0);
  packet.mode = proto::NtpMode::kServer;
  EXPECT_FALSE(server.handle(*net::Ipv6Address::parse("::5"),
                             packet.encode(), 0));
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(NtpServer, IgnoresGarbagePayload) {
  NtpServer server(test_vantage(), {});
  EXPECT_FALSE(
      server.handle(*net::Ipv6Address::parse("::5"), {1, 2, 3}, 0));
}

TEST(NtpServer, RecordFeedsSinkDirectly) {
  int count = 0;
  NtpServer server(test_vantage(),
                   [&](const Observation&) { ++count; });
  server.record(*net::Ipv6Address::parse("::6"), 100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(server.requests_served(), 1u);
}

sim::Device pool_device(util::SimDuration interval, double online) {
  sim::Device dev;
  dev.seed = 4242;
  dev.ntp.uses_pool = true;
  dev.ntp.poll_interval = interval;
  dev.ntp.online_fraction = online;
  return dev;
}

TEST(ClientSchedule, RespectsWindow) {
  const auto dev = pool_device(util::kHour, 1.0);
  ClientSchedule schedule(dev, 1000, 1000 + util::kDay);
  schedule.for_each([&](util::SimTime t) {
    EXPECT_GE(t, 1000);
    EXPECT_LT(t, 1000 + util::kDay);
  });
}

TEST(ClientSchedule, CountMatchesEnumeration) {
  const auto dev = pool_device(util::kHour, 0.7);
  ClientSchedule schedule(dev, 0, util::kWeek);
  std::uint64_t n = 0;
  schedule.for_each([&](util::SimTime) { ++n; });
  EXPECT_EQ(n, schedule.count());
}

TEST(ClientSchedule, PollRateTracksInterval) {
  const auto dev = pool_device(6 * util::kHour, 1.0);
  ClientSchedule schedule(dev, 0, 30 * util::kDay);
  // ~4 polls/day with +-50% jitter around the interval.
  EXPECT_NEAR(static_cast<double>(schedule.count()), 120.0, 30.0);
}

TEST(ClientSchedule, OnlineFractionScalesPolls) {
  const auto full = pool_device(util::kHour, 1.0);
  const auto half = pool_device(util::kHour, 0.5);
  const auto n_full = ClientSchedule(full, 0, util::kWeek).count();
  const auto n_half = ClientSchedule(half, 0, util::kWeek).count();
  EXPECT_NEAR(static_cast<double>(n_half) / static_cast<double>(n_full), 0.5,
              0.1);
}

TEST(ClientSchedule, NonPoolDeviceNeverPolls) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.ntp.uses_pool = false;
  EXPECT_EQ(ClientSchedule(dev, 0, util::kWeek).count(), 0u);
}

TEST(ClientSchedule, DeterministicPerDevice) {
  const auto dev = pool_device(3 * util::kHour, 0.8);
  std::vector<util::SimTime> a, b;
  ClientSchedule(dev, 0, util::kWeek).for_each([&](util::SimTime t) {
    a.push_back(t);
  });
  ClientSchedule(dev, 0, util::kWeek).for_each([&](util::SimTime t) {
    b.push_back(t);
  });
  EXPECT_EQ(a, b);
}

TEST(ClientSchedule, ClampsToDeviceActivityWindow) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.active_start = 2 * util::kDay;
  dev.active_end = 3 * util::kDay;
  ClientSchedule schedule(dev, 0, util::kWeek);
  std::uint64_t n = 0;
  schedule.for_each([&](util::SimTime t) {
    EXPECT_GE(t, 2 * util::kDay);
    EXPECT_LT(t, 3 * util::kDay);
    ++n;
  });
  EXPECT_GT(n, 10u);   // roughly one poll per hour for a day
  EXPECT_LT(n, 40u);
}

TEST(ClientSchedule, DeadDeviceNeverPolls) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.active_start = 0;
  dev.active_end = util::kDay;
  // Window entirely after the device retired.
  EXPECT_EQ(ClientSchedule(dev, 2 * util::kDay, util::kWeek).count(), 0u);
}

TEST(ClientSchedule, DifferentSeedsDifferentPhases) {
  auto a = pool_device(util::kHour, 1.0);
  auto b = pool_device(util::kHour, 1.0);
  b.seed = 4243;
  std::vector<util::SimTime> ta, tb;
  ClientSchedule(a, 0, util::kDay).for_each([&](util::SimTime t) {
    ta.push_back(t);
  });
  ClientSchedule(b, 0, util::kDay).for_each([&](util::SimTime t) {
    tb.push_back(t);
  });
  EXPECT_NE(ta, tb);
}

// Slot k lies in [phase + k·I, phase + (k+1)·I), so consecutive slots are
// strictly ordered and never further apart than two intervals.
TEST(ClientSchedule, SlotGapsStayInsideTwoIntervals) {
  for (const util::SimDuration interval :
       {util::SimDuration{1}, util::SimDuration{2}, 15 * util::kMinute,
        6 * util::kHour}) {
    auto dev = pool_device(interval, 1.0);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      dev.seed = util::mix64(seed);
      const ClientSchedule schedule(dev, 0, util::kWeek);
      for (std::uint64_t k = 0; k < 2000; ++k) {
        const util::SimDuration gap =
            schedule.slot_time(k + 1) - schedule.slot_time(k);
        ASSERT_GT(gap, 0) << "interval " << interval << " slot " << k;
        ASSERT_LT(gap, 2 * interval) << "interval " << interval;
      }
    }
  }
}

TEST(ClientSchedule, OnlineCountIsAdditiveAndMatchesEnumeration) {
  const auto dev = pool_device(40 * util::kMinute, 0.63);
  const ClientSchedule schedule(dev, 5000, 5000 + 3 * util::kWeek);
  std::vector<util::SimTime> polls;
  schedule.for_each([&](util::SimTime t) { polls.push_back(t); });
  ASSERT_EQ(polls.size(), schedule.count());
  const auto enumerated = [&](util::SimTime a, util::SimTime b) {
    return static_cast<std::uint64_t>(std::count_if(
        polls.begin(), polls.end(),
        [&](util::SimTime t) { return t >= a && t < b; }));
  };
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    // Instants before, inside and past the window.
    util::SimTime cut[3];
    for (util::SimTime& t : cut) {
      t = static_cast<util::SimTime>(rng.bounded(4 * util::kWeek));
    }
    std::sort(std::begin(cut), std::end(cut));
    const auto [a, b, c] = cut;
    ASSERT_EQ(schedule.online_count(a, b) + schedule.online_count(b, c),
              schedule.online_count(a, c));
    ASSERT_EQ(schedule.online_count(a, b), enumerated(a, b));
    ASSERT_EQ(schedule.online_count(c, a), 0u);  // an empty range
  }
  EXPECT_EQ(schedule.online_count(0, 52 * util::kWeek), schedule.count());
}

TEST(ClientSchedule, OnlineFractionZeroAndOne) {
  const auto never = pool_device(util::kHour, 0.0);
  const ClientSchedule silent(never, 0, util::kWeek);
  EXPECT_EQ(silent.count(), 0u);
  EXPECT_EQ(silent.online_count(0, util::kWeek), 0u);
  ClientSchedule::Cursor cursor;
  EXPECT_FALSE(silent.next(cursor));

  // Always online: every slot in the window polls, in slot order.
  const auto always = pool_device(util::kHour, 1.0);
  const ClientSchedule full(always, 0, util::kWeek);
  ASSERT_GT(full.count(), 0u);
  std::uint64_t j = 0;
  full.for_each([&](util::SimTime t) {
    EXPECT_EQ(t, full.slot_time(j));
    EXPECT_EQ(t, full.poll_time(j));
    ++j;
  });
  EXPECT_EQ(j, full.count());
  EXPECT_GE(full.slot_time(j), util::kWeek);  // the first slot past the end
}

// A fleet of devices with mixed intervals, online fractions and bursts.
std::vector<sim::Device> fleet(std::size_t n) {
  std::vector<sim::Device> devices;
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    auto dev = pool_device(
        static_cast<util::SimDuration>(rng.range(15, 720)) * util::kMinute,
        rng.uniform(0.2, 0.95));
    dev.seed = rng.next();
    dev.ntp.burst = static_cast<std::uint8_t>(1 + rng.bounded(8));
    devices.push_back(dev);
  }
  return devices;
}

// Capture is a keyed geometric skip over a device's polls, so over a
// fleet the captured share of slots is online fraction times vantage
// share.
TEST(ClientSchedule, FleetCaptureFractionTracksOnlineTimesShare) {
  sim::WorldConfig config;
  config.total_sites = 50;
  const sim::World world = sim::World::generate(config);
  constexpr double kShare = 0.03;
  const netsim::PoolDns dns(world, 0.0, kShare);
  constexpr util::SimDuration kWindow = 30 * util::kDay;
  double slots = 0.0;
  double expected = 0.0;  // captures expected: sum of f·p per slot
  std::uint64_t captured = 0;
  std::uint64_t key = 0;
  for (auto dev : fleet(10000)) {
    const ClientSchedule schedule(dev, 0, kWindow);
    for (std::uint64_t j = dns.next_capture(++key, 0); j < schedule.count();
         j = dns.next_capture(key, j + 1)) {
      ++captured;
    }
    const double f = dev.ntp.online_fraction;
    dev.ntp.online_fraction = 1.0;
    const auto n = static_cast<double>(ClientSchedule(dev, 0, kWindow).count());
    slots += n;
    expected += n * f * kShare;
  }
  const double q = expected / slots;
  const double sigma = std::sqrt(slots * q * (1 - q));
  EXPECT_NEAR(static_cast<double>(captured), expected, 4 * sigma);
}

// The lattice keeps the renewal process's poll volume: a device polls
// burst·f·window/I packets in expectation.
TEST(ClientSchedule, FleetPollVolumeMatchesBurstTimesRate) {
  constexpr util::SimDuration kWindow = 60 * util::kDay;
  double polls = 0.0;
  double expected = 0.0;
  for (const auto& dev : fleet(10000)) {
    polls += static_cast<double>(dev.ntp.burst) *
             static_cast<double>(ClientSchedule(dev, 0, kWindow).count());
    expected += dev.ntp.burst * dev.ntp.online_fraction *
                static_cast<double>(kWindow) /
                static_cast<double>(dev.ntp.poll_interval);
  }
  EXPECT_NEAR(polls / expected, 1.0, 0.005);
}

}  // namespace
}  // namespace v6::ntp
