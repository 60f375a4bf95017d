#include "analysis/rotation.h"

#include <gtest/gtest.h>

#include "hitlist/passive_collector.h"
#include "net/eui64.h"
#include "netsim/pool_dns.h"

namespace v6::analysis {
namespace {

class RotationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 83;
    config.total_sites = 300;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static std::uint64_t slash64(std::uint32_t as_index, std::uint64_t n) {
    return world_->ases()[as_index].prefix_hi | (2ULL << 28) | (n << 8) | 1;
  }

  static sim::World* world_;
};

sim::World* RotationTest::world_ = nullptr;

TEST_F(RotationTest, RecoversDailyRenumberingFromTracers) {
  hitlist::Corpus corpus;
  // 12 EUI-64 devices in AS 0, each renumbered daily for 20 days.
  for (std::uint32_t device = 0; device < 12; ++device) {
    const auto mac = net::MacAddress::from_u64(0x0c47c9100000ULL + device);
    for (std::uint64_t day = 0; day < 20; ++day) {
      corpus.add(net::eui64_address(slash64(0, device * 100 + day), mac),
                 static_cast<util::SimTime>(day) * util::kDay + 500);
    }
  }
  const Eui64Tracker tracker(corpus, *world_);
  const auto estimates = infer_rotation_periods(tracker, *world_);
  ASSERT_FALSE(estimates.empty());
  const auto& top = estimates.front();
  EXPECT_EQ(top.as_index, 0u);
  EXPECT_NEAR(static_cast<double>(top.estimated_period),
              static_cast<double>(util::kDay), 0.05 * util::kDay);
  EXPECT_GE(top.samples, 200u);
}

TEST_F(RotationTest, WeeklyAndDailyProvidersSeparate) {
  hitlist::Corpus corpus;
  for (std::uint32_t device = 0; device < 10; ++device) {
    const auto daily = net::MacAddress::from_u64(0x0c47c9200000ULL + device);
    const auto weekly = net::MacAddress::from_u64(0x0c47c9300000ULL + device);
    for (std::uint64_t k = 0; k < 10; ++k) {
      corpus.add(net::eui64_address(slash64(0, device * 50 + k), daily),
                 static_cast<util::SimTime>(k) * util::kDay);
      corpus.add(net::eui64_address(slash64(1, device * 50 + k), weekly),
                 static_cast<util::SimTime>(k) * util::kWeek);
    }
  }
  const Eui64Tracker tracker(corpus, *world_);
  const auto estimates = infer_rotation_periods(tracker, *world_);
  util::SimDuration as0 = 0, as1 = 0;
  for (const auto& estimate : estimates) {
    if (estimate.as_index == 0) as0 = estimate.estimated_period;
    if (estimate.as_index == 1) as1 = estimate.estimated_period;
  }
  EXPECT_NEAR(static_cast<double>(as0), static_cast<double>(util::kDay),
              0.05 * util::kDay);
  EXPECT_NEAR(static_cast<double>(as1), static_cast<double>(util::kWeek),
              0.05 * util::kWeek);
}

TEST_F(RotationTest, CrossAsMovesDoNotPollute) {
  hitlist::Corpus corpus;
  // One device bouncing between two ASes hourly: no same-AS transition.
  const auto mac = net::MacAddress::from_u64(0x0c47c9400000ULL);
  for (std::uint64_t k = 0; k < 40; ++k) {
    corpus.add(net::eui64_address(slash64(k % 2, k), mac),
               static_cast<util::SimTime>(k) * util::kHour);
  }
  const Eui64Tracker tracker(corpus, *world_);
  EXPECT_TRUE(infer_rotation_periods(tracker, *world_).empty());
}

TEST_F(RotationTest, TooFewSamplesNotEstimated) {
  hitlist::Corpus corpus;
  const auto mac = net::MacAddress::from_u64(0x0c47c9500000ULL);
  corpus.add(net::eui64_address(slash64(0, 1), mac), 0);
  corpus.add(net::eui64_address(slash64(0, 2), mac), util::kDay);
  const Eui64Tracker tracker(corpus, *world_);
  EXPECT_TRUE(infer_rotation_periods(tracker, *world_).empty());
}

TEST_F(RotationTest, EndToEndAgainstWorldGroundTruth) {
  // Full-pipeline sanity: collect a corpus from a rotating world and check
  // that every confident estimate for a daily-rotation AS lands near one
  // day. (Uses a private world so the suite's static one stays pristine.)
  sim::WorldConfig config;
  config.seed = 84;
  config.total_sites = 900;
  config.study_duration = 30 * util::kDay;
  const auto world = sim::World::generate(config);
  netsim::DataPlane plane(world, {0.0, 1});
  netsim::PoolDns dns(world);
  hitlist::PassiveCollector collector(world, plane, dns, {});
  hitlist::Corpus corpus(1 << 14);
  collector.run(corpus, 0, 30 * util::kDay);

  const Eui64Tracker tracker(corpus, world);
  int daily_checked = 0;
  for (const auto& estimate : infer_rotation_periods(tracker, world)) {
    if (estimate.true_period != util::kDay || estimate.samples < 30) continue;
    // Mobile carriers renumber on attachment churn (hours), which is what
    // the tracer honestly measures there; delegation-policy inference is a
    // fixed-line concept.
    if (world.ases()[estimate.as_index].type != sim::AsType::kIspBroadband) {
      continue;
    }
    ++daily_checked;
    EXPECT_NEAR(static_cast<double>(estimate.estimated_period),
                static_cast<double>(util::kDay), 0.5 * util::kDay)
        << "AS" << estimate.asn;
  }
  if (daily_checked == 0) {
    GTEST_SKIP() << "no confidently-sampled daily-rotation AS in this seed";
  }
}

}  // namespace
}  // namespace v6::analysis
