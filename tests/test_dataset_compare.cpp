#include "analysis/dataset_compare.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hitlist/tiered_corpus.h"
#include "util/rng.h"

namespace v6::analysis {
namespace {

class DatasetCompareTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 33;
    config.total_sites = 300;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static net::Ipv6Address in_as(std::uint32_t as_index, std::uint64_t n,
                                std::uint64_t iid) {
    return net::Ipv6Address::from_u64(
        world_->ases()[as_index].prefix_hi | (2ULL << 28) | (n << 8), iid);
  }

  static sim::World* world_;
};

sim::World* DatasetCompareTest::world_ = nullptr;

TEST_F(DatasetCompareTest, CountsAddressesAsnsAndSlash48s) {
  hitlist::Corpus corpus;
  corpus.add(in_as(0, 0x100, 1), 0);   // /48 A
  corpus.add(in_as(0, 0x101, 2), 0);   // same /48 A (slots 0x100,0x101
                                       // share /48 when >> 8 bits equal)
  corpus.add(in_as(1, 0x100, 3), 0);   // other AS
  const auto summary = summarize_dataset("test", corpus, *world_);
  EXPECT_EQ(summary.addresses, 3u);
  EXPECT_EQ(summary.asns, 2u);
  // slots 0x100 and 0x101 differ in the low 8 bits of the slot, which sit
  // below the /48 boundary -> same /48.
  EXPECT_EQ(summary.slash48s, 2u);
  EXPECT_DOUBLE_EQ(summary.addrs_per_slash48, 1.5);
  EXPECT_EQ(summary.common_addresses, 0u);
}

TEST_F(DatasetCompareTest, IntersectionColumns) {
  hitlist::Corpus base, other;
  base.add(in_as(0, 1, 1), 0);
  base.add(in_as(0, 2, 2), 0);
  base.add(in_as(1, 1, 3), 0);
  other.add(in_as(0, 1, 1), 5);    // shared address
  other.add(in_as(0, 0x900, 9), 5);  // same AS, new /48
  other.add(in_as(2, 1, 9), 5);    // AS not in base
  const ScanSource source = base;
  const auto summary = summarize_dataset("other", other, *world_, &source);
  EXPECT_EQ(summary.common_addresses, 1u);
  EXPECT_EQ(summary.common_asns, 1u);
  EXPECT_GE(summary.common_slash48s, 1u);
}

TEST_F(DatasetCompareTest, AsTypeFractionsSumToOne) {
  hitlist::Corpus corpus;
  for (std::uint32_t ai = 0; ai < world_->ases().size(); ai += 3) {
    corpus.add(in_as(ai, 1, 0xabc), 0);
  }
  const auto fractions = as_type_fractions(corpus, *world_);
  double sum = 0;
  for (const auto& [type, fraction] : fractions) sum += fraction;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(DatasetCompareTest, PhoneProviderFractionReflectsMix) {
  hitlist::Corpus corpus;
  std::uint32_t mobile_as = 0, fixed_as = 0;
  for (std::uint32_t ai = 0; ai < world_->ases().size(); ++ai) {
    if (world_->ases()[ai].type == sim::AsType::kIspMobile) mobile_as = ai;
    if (world_->ases()[ai].type == sim::AsType::kIspBroadband) fixed_as = ai;
  }
  for (std::uint64_t i = 0; i < 30; ++i) corpus.add(in_as(mobile_as, i, 1), 0);
  for (std::uint64_t i = 0; i < 70; ++i) corpus.add(in_as(fixed_as, i, 1), 0);
  for (const auto& [type, fraction] : as_type_fractions(corpus, *world_)) {
    if (type == sim::AsType::kIspMobile) {
      EXPECT_NEAR(fraction, 0.3, 1e-9);
    }
    if (type == sim::AsType::kIspBroadband) {
      EXPECT_NEAR(fraction, 0.7, 1e-9);
    }
  }
}

TEST_F(DatasetCompareTest, EmptyCorpusSummary) {
  hitlist::Corpus corpus;
  const auto summary = summarize_dataset("empty", corpus, *world_);
  EXPECT_EQ(summary.addresses, 0u);
  EXPECT_DOUBLE_EQ(summary.addrs_per_slash48, 0.0);
}

// Table 1's base is the NTP corpus, which may be out of core. A summary
// against a multi-run TieredCorpus base must equal the summary against
// the same records in memory, in every column and at any thread count.
TEST_F(DatasetCompareTest, TieredBaseEqualsInMemoryBase) {
  hitlist::SpillConfig spill;
  spill.memory_budget_bytes = 1;
  spill.block_records = 8;
  hitlist::TieredCorpus runs(spill);
  hitlist::Corpus base;
  hitlist::Corpus other;
  util::Rng rng(5);
  const auto draw = [&] {
    return in_as(static_cast<std::uint32_t>(rng.bounded(12)),
                 rng.bounded(0x400), rng.bounded(64));
  };
  for (int shard = 0; shard < 4; ++shard) {
    hitlist::Corpus part(16);
    for (int i = 0; i < 250; ++i) {
      const auto address = draw();
      const auto t = static_cast<util::SimTime>(i);
      part.add(address, t);
      base.add(address, t);
      if (i % 5 == 0) other.add(address, t);  // common with the base
    }
    runs.spill(std::move(part));
  }
  for (int i = 0; i < 400; ++i) other.add(draw(), 0);
  ASSERT_GT(runs.run_count(), 1u);

  const ScanSource tiered = make_source(runs);
  const ScanSource in_memory = base;
  for (const unsigned threads : {1u, 3u}) {
    AnalysisConfig config;
    config.threads = threads;
    const auto want =
        summarize_dataset("other", other, *world_, &in_memory, config);
    const auto got = summarize_dataset("other", other, *world_, &tiered,
                                       config);
    EXPECT_EQ(got.addresses, want.addresses);
    EXPECT_EQ(got.asns, want.asns);
    EXPECT_EQ(got.slash48s, want.slash48s);
    EXPECT_EQ(got.addrs_per_slash48, want.addrs_per_slash48);
    EXPECT_EQ(got.common_addresses, want.common_addresses);
    EXPECT_EQ(got.common_asns, want.common_asns);
    EXPECT_EQ(got.common_slash48s, want.common_slash48s);
    EXPECT_GT(got.common_addresses, 0u);
    EXPECT_LT(got.common_addresses, got.addresses);
  }
}

// The common columns probe the summarized dataset, so it must have
// contains(): a tiered dataset against a base is refused, not miscounted.
TEST_F(DatasetCompareTest, BaseWithoutDatasetMembershipThrows) {
  hitlist::SpillConfig spill;
  spill.memory_budget_bytes = 1;
  hitlist::TieredCorpus runs(spill);
  hitlist::Corpus part;
  part.add(in_as(0, 1, 1), 0);
  runs.spill(std::move(part));
  hitlist::Corpus base;
  base.add(in_as(0, 1, 1), 0);
  const ScanSource base_source = base;
  EXPECT_THROW(summarize_dataset("tiered", make_source(runs), *world_,
                                 &base_source),
               std::invalid_argument);
  EXPECT_NO_THROW(summarize_dataset("tiered", make_source(runs), *world_));
}

}  // namespace
}  // namespace v6::analysis
