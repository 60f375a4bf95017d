#include "analysis/eui64_tracking.h"

#include <gtest/gtest.h>

#include <memory>

#include "analysis/dataset_compare.h"
#include "hitlist/tiered_corpus.h"
#include "net/eui64.h"
#include "util/rng.h"

namespace v6::analysis {
namespace {

// Builds a tiny world and hand-crafts EUI-64 journeys inside its address
// space so AS/country attribution works, then checks the §5.2 classifier.
class Eui64TrackingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 64;
    config.total_sites = 300;
    world_ = new sim::World(sim::World::generate(config));

    // Two ASes in one country, one in another.
    as_a_ = as_b_ = as_c_ = ~0u;
    for (std::uint32_t i = 0; i < world_->ases().size(); ++i) {
      const auto& as = world_->ases()[i];
      if (as_a_ == ~0u) {
        as_a_ = i;
        continue;
      }
      if (as_b_ == ~0u &&
          as.country_index == world_->ases()[as_a_].country_index) {
        as_b_ = i;
        continue;
      }
      if (as_c_ == ~0u &&
          as.country_index != world_->ases()[as_a_].country_index) {
        as_c_ = i;
      }
    }
    ASSERT_NE(as_b_, ~0u);
    ASSERT_NE(as_c_, ~0u);
  }
  static void TearDownTestSuite() { delete world_; }

  // /64 network half number `n` inside the given AS.
  static std::uint64_t prefix(std::uint32_t as_index, std::uint64_t n) {
    return world_->ases()[as_index].prefix_hi | (2ULL << 28) | (n << 8) | 1;
  }

  static net::MacAddress mac(std::uint32_t suffix) {
    return net::MacAddress::from_u64(0x0c47c9000000ULL | suffix);
  }

  static sim::World* world_;
  static std::uint32_t as_a_, as_b_, as_c_;
};

sim::World* Eui64TrackingTest::world_ = nullptr;
std::uint32_t Eui64TrackingTest::as_a_ = 0;
std::uint32_t Eui64TrackingTest::as_b_ = 0;
std::uint32_t Eui64TrackingTest::as_c_ = 0;

TEST_F(Eui64TrackingTest, FullJourneyTaxonomy) {
  hitlist::Corpus corpus;
  const auto day = util::kDay;

  // MAC 1: never leaves its /64 -> not trackable.
  corpus.add(net::eui64_address(prefix(as_a_, 1), mac(1)), 0);
  corpus.add(net::eui64_address(prefix(as_a_, 1), mac(1)), 30 * day);

  // MAC 2: three /64s, one AS, 2 transitions -> mostly static.
  for (std::uint64_t p = 0; p < 3; ++p) {
    corpus.add(net::eui64_address(prefix(as_a_, 10 + p), mac(2)),
               static_cast<util::SimTime>(p) * day);
  }

  // MAC 3: fifteen /64s in one AS -> prefix reassignment.
  for (std::uint64_t p = 0; p < 15; ++p) {
    corpus.add(net::eui64_address(prefix(as_a_, 100 + p), mac(3)),
               static_cast<util::SimTime>(p) * day);
  }

  // MAC 4: two ASes, same country, 2 transitions -> changing providers.
  corpus.add(net::eui64_address(prefix(as_a_, 200), mac(4)), 0);
  corpus.add(net::eui64_address(prefix(as_a_, 201), mac(4)), day);
  corpus.add(net::eui64_address(prefix(as_b_, 202), mac(4)), 40 * day);

  // MAC 5: two ASes, same country, many transitions -> user movement.
  for (std::uint64_t p = 0; p < 14; ++p) {
    const auto as = p % 2 ? as_a_ : as_b_;
    corpus.add(net::eui64_address(prefix(as, 300 + p), mac(5)),
               static_cast<util::SimTime>(p) * day);
  }

  // MAC 6: two countries -> MAC reuse.
  corpus.add(net::eui64_address(prefix(as_a_, 400), mac(6)), 0);
  corpus.add(net::eui64_address(prefix(as_c_, 401), mac(6)), day);

  // Plus a non-EUI-64 address that must be ignored.
  corpus.add(net::Ipv6Address::from_u64(prefix(as_a_, 500), 0xdeadbeef), 0);

  const Eui64Tracker tracker(corpus, *world_);
  EXPECT_EQ(tracker.unique_macs(), 6u);
  EXPECT_EQ(tracker.corpus_addresses(), corpus.size());
  EXPECT_EQ(tracker.eui64_addresses(), corpus.size() - 1);
  EXPECT_EQ(tracker.trackable_macs(), 5u);

  std::array<TrackingClass, 7> by_mac{};
  for (const auto& track : tracker.tracks()) {
    const auto suffix = track.mac.suffix();
    ASSERT_GE(suffix, 1u);
    ASSERT_LE(suffix, 6u);
    by_mac[suffix] = Eui64Tracker::classify(track);
  }
  EXPECT_EQ(by_mac[1], TrackingClass::kNotTrackable);
  EXPECT_EQ(by_mac[2], TrackingClass::kMostlyStatic);
  EXPECT_EQ(by_mac[3], TrackingClass::kPrefixReassignment);
  EXPECT_EQ(by_mac[4], TrackingClass::kChangingProviders);
  EXPECT_EQ(by_mac[5], TrackingClass::kUserMovement);
  EXPECT_EQ(by_mac[6], TrackingClass::kMacReuse);
}

TEST_F(Eui64TrackingTest, TrackAggregatesAreExact) {
  hitlist::Corpus corpus;
  corpus.add(net::eui64_address(prefix(as_a_, 1), mac(9)), 100);
  corpus.add(net::eui64_address(prefix(as_a_, 2), mac(9)), 200);
  corpus.add(net::eui64_address(prefix(as_b_, 3), mac(9)), 300);
  const Eui64Tracker tracker(corpus, *world_);
  ASSERT_EQ(tracker.tracks().size(), 1u);
  const auto& track = tracker.tracks()[0];
  EXPECT_EQ(track.slash64s, 3u);
  EXPECT_EQ(track.ases, 2u);
  EXPECT_EQ(track.countries, 1u);
  EXPECT_EQ(track.transitions, 2u);
  EXPECT_EQ(track.first_seen, 100u);
  EXPECT_EQ(track.last_seen, 300u);
  EXPECT_EQ(track.lifetime(), 200);
}

TEST_F(Eui64TrackingTest, TimelineIsFirstSeenOrdered) {
  hitlist::Corpus corpus;
  corpus.add(net::eui64_address(prefix(as_a_, 5), mac(7)), 500);
  corpus.add(net::eui64_address(prefix(as_a_, 4), mac(7)), 100);
  corpus.add(net::eui64_address(prefix(as_a_, 6), mac(7)), 900);
  const Eui64Tracker tracker(corpus, *world_);
  const auto timeline = tracker.timeline(mac(7));
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].first_seen, 100u);
  EXPECT_EQ(timeline[2].first_seen, 900u);
  EXPECT_TRUE(tracker.timeline(mac(0xdead)).empty());
}

TEST_F(Eui64TrackingTest, ExpectedRandomMatchesScalesWithCorpus) {
  hitlist::Corpus corpus;
  for (std::uint64_t i = 0; i < (1 << 17); ++i) {
    corpus.add(net::Ipv6Address::from_u64(prefix(as_a_, 1), 0x100000 + i), 0);
  }
  const Eui64Tracker tracker(corpus, *world_);
  EXPECT_EQ(tracker.expected_random_matches(), corpus.size() >> 16);
}

TEST_F(Eui64TrackingTest, ExemplarsCoverPresentClasses) {
  hitlist::Corpus corpus;
  for (std::uint64_t p = 0; p < 15; ++p) {
    corpus.add(net::eui64_address(prefix(as_a_, 600 + p), mac(8)),
               static_cast<util::SimTime>(p) * util::kDay);
  }
  const Eui64Tracker tracker(corpus, *world_);
  const auto exemplars = tracker.exemplars();
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_EQ(exemplars[0].first, TrackingClass::kPrefixReassignment);
  EXPECT_EQ(exemplars[0].second, mac(8));
}

TEST_F(Eui64TrackingTest, ClassCountsSumToMacs) {
  hitlist::Corpus corpus;
  corpus.add(net::eui64_address(prefix(as_a_, 1), mac(1)), 0);
  corpus.add(net::eui64_address(prefix(as_a_, 2), mac(2)), 0);
  corpus.add(net::eui64_address(prefix(as_a_, 3), mac(2)), 1);
  const Eui64Tracker tracker(corpus, *world_);
  std::uint64_t classified = 0;
  for (const auto& [cls, count] : tracker.class_counts()) {
    EXPECT_NE(cls, TrackingClass::kNotTrackable);
    classified += count;
  }
  EXPECT_EQ(classified, tracker.trackable_macs());
}

// The tracker and the /48 release stream a ScanSource, so the tiered
// corpus is read as it lies on disk. Built from a multi-run source they
// must equal the same calls on its collapse(), record sequence and all.
TEST_F(Eui64TrackingTest, StreamedTieredSourceEqualsCollapse) {
  hitlist::SpillConfig config;
  config.memory_budget_bytes = 1;
  config.block_records = 8;
  hitlist::TieredCorpus runs(config);
  util::Rng rng(17);
  const std::uint32_t ases[] = {as_a_, as_b_, as_c_};
  for (int shard = 0; shard < 5; ++shard) {
    hitlist::Corpus part(16);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t hi = prefix(ases[rng.bounded(3)], rng.bounded(40));
      const auto t = static_cast<util::SimTime>(rng.bounded(90 * util::kDay));
      if (rng.bounded(2) == 0) {
        part.add(net::eui64_address(
                     hi, mac(static_cast<std::uint32_t>(rng.bounded(12)))),
                 t);
      } else {
        part.add(net::Ipv6Address::from_u64(hi, rng.next()), t);
      }
    }
    runs.spill(std::move(part));
  }
  ASSERT_GT(runs.run_count(), 1u);
  const hitlist::Corpus collapsed = runs.collapse();
  const ScanSource source = make_source(runs);

  const Eui64Tracker streamed(source, *world_);
  const Eui64Tracker in_memory(collapsed, *world_);
  EXPECT_EQ(streamed.corpus_addresses(), collapsed.size());
  EXPECT_EQ(streamed.eui64_addresses(), in_memory.eui64_addresses());
  ASSERT_EQ(streamed.tracks().size(), in_memory.tracks().size());
  for (std::size_t i = 0; i < streamed.tracks().size(); ++i) {
    const MacTrack& a = streamed.tracks()[i];
    const MacTrack& b = in_memory.tracks()[i];
    EXPECT_EQ(a.mac, b.mac) << "track " << i;
    EXPECT_EQ(a.slash64s, b.slash64s) << "track " << i;
    EXPECT_EQ(a.ases, b.ases) << "track " << i;
    EXPECT_EQ(a.countries, b.countries) << "track " << i;
    EXPECT_EQ(a.transitions, b.transitions) << "track " << i;
    EXPECT_EQ(a.first_seen, b.first_seen) << "track " << i;
    EXPECT_EQ(a.last_seen, b.last_seen) << "track " << i;
  }
  EXPECT_EQ(streamed.class_counts(), in_memory.class_counts());
  EXPECT_GT(streamed.trackable_macs(), 0u);

  const auto got = streamed.timeline(mac(3));
  const auto want = in_memory.timeline(mac(3));
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(got.size(), 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first_seen, want[i].first_seen) << "sighting " << i;
    EXPECT_EQ(got[i].slash64_hi, want[i].slash64_hi) << "sighting " << i;
    EXPECT_EQ(got[i].asn, want[i].asn) << "sighting " << i;
    EXPECT_EQ(got[i].country, want[i].country) << "sighting " << i;
  }

  const auto rows = aggregate_to_slash48(source);
  EXPECT_EQ(rows, aggregate_to_slash48(collapsed));
  EXPECT_GT(rows.size(), 1u);
}

}  // namespace
}  // namespace v6::analysis
