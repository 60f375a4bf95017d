#include "netsim/pool_dns.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.h"

namespace v6::netsim {
namespace {

class PoolDnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 31;
    config.total_sites = 500;
    config.geodb_error_rate = 0.0;  // exact steering for these tests
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }
  static sim::World* world_;
};

sim::World* PoolDnsTest::world_ = nullptr;

// Address of some device in the given country, if any.
std::optional<net::Ipv6Address> address_in_country(const sim::World& w,
                                                   std::string_view code) {
  for (const auto& dev : w.devices()) {
    if (w.country_of_as(dev.as_index).to_string() == code) {
      return w.device_address(dev.id, 1000);
    }
  }
  return std::nullopt;
}

TEST_F(PoolDnsTest, InCountryClientsSteerToInCountryVantage) {
  const PoolDns dns(*world_, /*global_fraction=*/0.0);
  util::Rng rng(1);
  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  for (int i = 0; i < 50; ++i) {
    const auto* vantage = dns.resolve(*client, rng, 1000);
    ASSERT_NE(vantage, nullptr);
    EXPECT_EQ(vantage->country.to_string(), "DE");
  }
}

TEST_F(PoolDnsTest, RoundRobinRotatesAmongServers) {
  const PoolDns dns(*world_, 0.0);
  util::Rng rng(2);
  const auto client = address_in_country(*world_, "US");
  ASSERT_TRUE(client);
  std::unordered_set<std::uint8_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(dns.resolve(*client, rng, 1000)->id);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six US vantages get traffic
}

TEST_F(PoolDnsTest, NoVantageCountryFallsBackToNearest) {
  const PoolDns dns(*world_, 0.0);
  // France has no vantage; nearest vantage country should be European.
  const auto& candidates =
      dns.candidates(*geo::CountryCode::parse("FR"));
  ASSERT_FALSE(candidates.empty());
  const auto code = candidates.front()->country.to_string();
  EXPECT_TRUE(code == "DE" || code == "NL" || code == "GB" || code == "ES")
      << code;
}

TEST_F(PoolDnsTest, GlobalFractionHitsRemoteVantages) {
  const PoolDns dns(*world_, 0.5);
  util::Rng rng(3);
  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  std::unordered_set<std::string> countries;
  for (int i = 0; i < 300; ++i) {
    countries.insert(dns.resolve(*client, rng, 1000)->country.to_string());
  }
  EXPECT_GT(countries.size(), 5u);
}

TEST_F(PoolDnsTest, ZeroVantageShareSeesNothing) {
  const PoolDns dns(*world_, 0.0, /*vantage_share=*/0.0);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(dns.next_capture(key, key * 7), PoolDns::kNoCapture);
  }
}

// Walks the capture chain over queries [0, n): from 0, then one past each
// capture.
std::uint64_t captures_below(const PoolDns& dns, std::uint64_t key,
                             std::uint64_t n) {
  std::uint64_t captured = 0;
  for (std::uint64_t j = dns.next_capture(key, 0); j < n;
       j = dns.next_capture(key, j + 1)) {
    ++captured;
  }
  return captured;
}

TEST_F(PoolDnsTest, PartialVantageShareSamples) {
  const PoolDns dns(*world_, 0.0, /*vantage_share=*/0.25);
  constexpr std::uint64_t kQueries = 4000;
  const std::uint64_t captured = captures_below(dns, 6, kQueries);
  EXPECT_NEAR(static_cast<double>(captured) / kQueries, 0.25, 0.03);
}

// Capture is a keyed geometric skip: a pure function of (key, from) that
// never touches a client's Rng, so the collector can jump from one
// captured query to the next. Shares 0 and 1 and an empty pool need no
// hash at all.
TEST_F(PoolDnsTest, NextCaptureIsAKeyedGeometricSkip) {
  const PoolDns always(*world_, 0.0, 1.0);
  for (std::uint64_t from = 0; from < 50; ++from) {
    EXPECT_EQ(always.next_capture(from * 31, from), from);
  }

  constexpr double kShare = 0.03;
  const PoolDns dns(*world_, 0.0, kShare);
  double gap_sum = 0.0;
  std::uint64_t gaps = 0;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::uint64_t from = key % 17;
    const std::uint64_t next = dns.next_capture(key, from);
    ASSERT_GE(next, from);
    ASSERT_NE(next, PoolDns::kNoCapture);
    // Keyed: the same (key, from) always lands on the same query.
    ASSERT_EQ(dns.next_capture(key, from), next);
    gap_sum += static_cast<double>(next - from);
    ++gaps;
  }
  // Geometric law: mean skip (1 - p) / p = 32.3 at p = 0.03, standard
  // deviation sqrt(1 - p) / p = 32.8, so the mean of 2000 lies within
  // 4 sigma (2.9) of it.
  EXPECT_NEAR(gap_sum / static_cast<double>(gaps), (1 - kShare) / kShare,
              3.0);
  // Different keys give different chains.
  EXPECT_NE(dns.next_capture(1, 0) + 1000 * dns.next_capture(2, 0),
            dns.next_capture(3, 0) + 1000 * dns.next_capture(4, 0));

  // A world with no countries has no vantage: nothing is captured.
  sim::WorldConfig config;
  config.country_count = 0;
  const sim::World empty = sim::World::generate(config);
  ASSERT_TRUE(empty.vantages().empty());
  const PoolDns none(empty, 0.0, 0.5);
  EXPECT_EQ(none.next_capture(7, 0), PoolDns::kNoCapture);
}

TEST_F(PoolDnsTest, UnroutedClientStillGetsAServer) {
  const PoolDns dns(*world_, 0.0);
  util::Rng rng(4);
  const auto* vantage =
      dns.resolve(*net::Ipv6Address::parse("2001:db8::1"), rng, 1000);
  EXPECT_NE(vantage, nullptr);
}

TEST_F(PoolDnsTest, HealthMonitorSteersAroundDownedVantage) {
  PoolDns dns(*world_, 0.0);
  FaultSchedule faults(world_->vantages());
  const auto client = address_in_country(*world_, "US");
  ASSERT_TRUE(client);
  const auto& us = dns.candidates(*geo::CountryCode::parse("US"));
  ASSERT_EQ(us.size(), 6u);
  const std::uint8_t downed = us.front()->id;
  faults.add_window(downed, 1000, 5000);
  const util::SimDuration delay = 600;
  dns.set_health_monitor(&faults, delay);

  util::Rng rng(9);
  const auto ids_at = [&](util::SimTime t, int* steered_count) {
    std::unordered_set<std::uint8_t> seen;
    for (int i = 0; i < 300; ++i) {
      bool steered = false;
      const auto* v = dns.resolve(*client, rng, t, &steered);
      EXPECT_NE(v, nullptr) << "t=" << t;
      if (v == nullptr) continue;
      seen.insert(v->id);
      if (steered_count && steered) ++*steered_count;
    }
    return seen;
  };

  // Before the monitor notices the crash, the downed vantage still
  // receives its share and no poll is marked as steered away.
  int steered = 0;
  auto seen = ids_at(1200, &steered);
  EXPECT_TRUE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(steered, 0);

  // Once the detection delay elapses the downed vantage leaves rotation:
  // its polls redistribute across the surviving five candidates, and every
  // answer is flagged as steered.
  steered = 0;
  seen = ids_at(2000, &steered);
  EXPECT_FALSE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(steered, 300);

  // The monitor lags recovery by the same delay...
  seen = ids_at(5000 + delay - 1, nullptr);
  EXPECT_FALSE(seen.contains(downed));

  // ...then the server rejoins rotation.
  steered = 0;
  seen = ids_at(5000 + delay, &steered);
  EXPECT_TRUE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(steered, 0);
}

TEST_F(PoolDnsTest, AllCandidatesDownFallsBackToHealthyWorldwide) {
  PoolDns dns(*world_, 0.0);
  FaultSchedule faults(world_->vantages());
  const auto& us = dns.candidates(*geo::CountryCode::parse("US"));
  std::unordered_set<std::uint8_t> us_ids;
  for (const auto* v : us) {
    us_ids.insert(v->id);
    faults.add_window(v->id, 0, 100'000);
  }
  dns.set_health_monitor(&faults, 0);

  const auto client = address_in_country(*world_, "US");
  util::Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    bool steered = false;
    const auto* v = dns.resolve(*client, rng, 50'000, &steered);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(us_ids.contains(v->id));
    EXPECT_TRUE(steered);
  }

  // With *every* vantage down the pool still answers (unfiltered list):
  // the real pool never returns an empty response while it has servers.
  for (const auto& v : world_->vantages()) {
    if (!us_ids.contains(v.id)) faults.add_window(v.id, 0, 100'000);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(dns.resolve(*client, rng, 50'000, nullptr), nullptr);
  }
}

TEST_F(PoolDnsTest, ZeroFaultMonitorMatchesNoMonitorBitForBit) {
  PoolDns dns(*world_, 0.25, 0.8);
  FaultSchedule faults(world_->vantages());  // zero faults
  dns.set_health_monitor(&faults, 600);
  const PoolDns unmonitored(*world_, 0.25, 0.8);

  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  util::Rng a(12);
  util::Rng b(12);
  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<util::SimTime>(i * 64);
    bool steered = false;
    const auto* with_health = dns.resolve(*client, a, t, &steered);
    const auto* without = unmonitored.resolve(*client, b, t);
    EXPECT_EQ(with_health, without);
    EXPECT_FALSE(steered);
  }
  EXPECT_EQ(a.next(), b.next());  // identical draw counts
}

}  // namespace
}  // namespace v6::netsim
