#include "hitlist/campaigns.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>

#include "core/study.h"
#include "hitlist/corpus_io.h"

namespace v6::hitlist {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 101;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    plane_ = new netsim::DataPlane(*world_, {0.005, 5});

    HitlistCampaignConfig hl;
    hl.start = 5 * util::kDay;
    hl.duration = 6 * util::kWeek;
    hitlist_ = new HitlistResult(run_hitlist_campaign(*world_, *plane_, hl));

    // A fresh plane, as the determinism test below uses (loss verdicts
    // are per probe, so sharing the Hitlist's plane would change nothing
    // but the drop count).
    netsim::DataPlane caida_plane(*world_, {0.005, 5});
    CaidaCampaignConfig ca;
    ca.start = 5 * util::kDay;
    ca.duration = 14 * util::kDay;
    ca.slash48_fraction = 0.01;
    caida_ = new CaidaResult(run_caida_campaign(*world_, caida_plane, ca));
  }
  static void TearDownTestSuite() {
    delete caida_;
    delete hitlist_;
    delete plane_;
    delete world_;
  }
  static sim::World* world_;
  static netsim::DataPlane* plane_;
  static HitlistResult* hitlist_;
  static CaidaResult* caida_;
};

sim::World* CampaignTest::world_ = nullptr;
netsim::DataPlane* CampaignTest::plane_ = nullptr;
HitlistResult* CampaignTest::hitlist_ = nullptr;
CaidaResult* CampaignTest::caida_ = nullptr;

TEST_F(CampaignTest, HitlistDiscoversAddresses) {
  EXPECT_GT(hitlist_->corpus.size(), 500u);
  EXPECT_GT(hitlist_->probes_sent, hitlist_->corpus.size());
  EXPECT_EQ(hitlist_->snapshots, 6u);
}

TEST_F(CampaignTest, HitlistPublishesNoAliasedAddresses) {
  std::uint64_t inside_aliased = 0;
  for (const auto& rec : hitlist_->corpus.records()) {
    for (const auto& p : hitlist_->aliased_prefixes) {
      if (p.contains(rec.address)) ++inside_aliased;
    }
  }
  EXPECT_EQ(inside_aliased, 0u);
}

TEST_F(CampaignTest, HitlistDetectsDatacenterAliases) {
  // Every ground-truth fully-aliased datacenter /48 should be covered by
  // some published aliased prefix.
  std::uint64_t covered = 0, total = 0;
  for (const auto& truth : world_->aliased_datacenter_prefixes()) {
    ++total;
    for (const auto& p : hitlist_->aliased_prefixes) {
      if (p.contains(truth) || truth.contains(p)) {
        ++covered;
        break;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(covered, total * 8 / 10);
}

TEST_F(CampaignTest, HitlistSkewsTowardInfrastructure) {
  // The Hitlist should be much heavier in low-IID structure than a client
  // corpus: most addresses are routers/servers/CPE.
  std::uint64_t low_iid = 0;
  for (const auto& rec : hitlist_->corpus.records()) {
    if (rec.address.iid() <= 0xffff) ++low_iid;
  }
  EXPECT_GT(low_iid, hitlist_->corpus.size() / 4);
}

TEST_F(CampaignTest, CaidaDiscoversRouters) {
  EXPECT_GT(caida_->corpus.size(), 200u);
  EXPECT_GT(caida_->traces, 10000u);
  EXPECT_GT(caida_->probes_sent, caida_->traces);
}

TEST_F(CampaignTest, CaidaDensityIsOnePerSlash48) {
  // Table 1: the routed-/48 campaign averages ~1 address per /48.
  std::unordered_set<std::uint64_t> s48s;
  for (const auto& rec : caida_->corpus.records()) {
    s48s.insert(rec.address.hi64() >> 16);
  }
  const double density = static_cast<double>(caida_->corpus.size()) /
                         static_cast<double>(s48s.size());
  EXPECT_LT(density, 3.0);
}

TEST_F(CampaignTest, CaidaIsMostlyLowEntropyInfrastructure) {
  std::uint64_t low_iid = 0;
  for (const auto& rec : caida_->corpus.records()) {
    if (rec.address.iid() <= 0xffff) ++low_iid;
  }
  EXPECT_GT(low_iid, caida_->corpus.size() * 7 / 10);
}

TEST_F(CampaignTest, CampaignsAreDeterministicGivenSeeds) {
  netsim::DataPlane plane(*world_, {0.005, 5});
  CaidaCampaignConfig ca;
  ca.start = 5 * util::kDay;
  ca.duration = 14 * util::kDay;
  ca.slash48_fraction = 0.01;
  const auto again = run_caida_campaign(*world_, plane, ca);
  EXPECT_EQ(again.corpus.size(), caida_->corpus.size());
  EXPECT_EQ(again.probes_sent, caida_->probes_sent);
}

// Campaign identity gate: one small seeded Study (campaigns and backscan,
// no collection or analysis), with every probe-driven output folded into
// FNV-1a digests pinned below. Any change to the probe path — topology
// walk, loss verdicts, ICMP budget charges — that moves a single corpus
// byte, prefix, trace hop or drop count fails here. The values are those
// of the serial run (campaign threads = 1) under probe-identity loss
// verdicts; BitIdenticalAcrossThreads holds every thread count to it.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Folds `v` into `h` as eight little-endian bytes.
void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, const net::Ipv6Address& a) {
  fold(h, a.hi64());
  fold(h, a.lo64());
}

void fold(std::uint64_t& h, const net::Ipv6Prefix& p) {
  fold(h, p.address());
  fold(h, static_cast<std::uint64_t>(p.length()));
}

std::uint64_t corpus_digest(const Corpus& corpus) {
  std::ostringstream out;
  save_corpus(out, corpus);
  return fnv1a(std::move(out).str());
}

struct CampaignDigests {
  std::uint64_t hitlist_corpus = 0;
  std::uint64_t aliased_prefixes = 0;
  std::uint64_t caida_corpus = 0;
  std::uint64_t backscan = 0;
  std::uint64_t drops = 0;
  std::uint64_t rate_limited = 0;
};

core::StudyConfig gate_config(std::uint32_t router_icmp_rate_limit,
                              unsigned campaign_threads) {
  core::StudyConfig config;
  config.world.seed = 29;
  config.world.total_sites = 600;
  config.world.study_duration = 30 * util::kDay;
  config.plane.router_icmp_rate_limit = router_icmp_rate_limit;
  config.backscan_start = 35 * util::kDay;
  config.backscan_duration = 2 * util::kDay;
  config.hitlist_campaign.start = 2 * util::kDay;
  config.hitlist_campaign.duration = 3 * util::kWeek;
  config.caida_campaign.start = 2 * util::kDay;
  config.caida_campaign.duration = 10 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.01;
  config.hitlist_campaign.threads = campaign_threads;
  config.caida_campaign.threads = campaign_threads;
  return config;
}

// The gate study: a 600-site world, campaigns and backscan only.
CampaignDigests run_gate_study(std::uint32_t router_icmp_rate_limit,
                               unsigned campaign_threads = 1) {
  core::Study study(gate_config(router_icmp_rate_limit, campaign_threads));
  core::RunOptions options;
  options.collect = false;
  options.analysis = false;
  const core::StudyResults& r = study.run(std::move(options));

  CampaignDigests d;
  d.hitlist_corpus = corpus_digest(r.hitlist.corpus);
  d.aliased_prefixes = kFnvOffset;
  for (const auto& p : r.hitlist.aliased_prefixes) fold(d.aliased_prefixes, p);
  d.caida_corpus = corpus_digest(r.caida.corpus);
  d.backscan = kFnvOffset;
  for (const auto& p : r.backscan.aliased_slash64s) fold(d.backscan, p);
  for (const auto& a : r.backscan.trace_discovered) fold(d.backscan, a);
  for (const auto& o : r.backscan.outcomes) {
    fold(d.backscan, o.client);
    fold(d.backscan, o.random_target);
    fold(d.backscan, (std::uint64_t{o.vantage} << 2) |
                         (std::uint64_t{o.client_responded} << 1) |
                         std::uint64_t{o.random_responded});
  }
  fold(d.backscan, r.backscan.responsive_random_addresses);
  fold(d.backscan, r.backscan.clients_probed);
  fold(d.backscan, r.backscan.clients_responded);
  fold(d.backscan, r.backscan.random_probed);
  d.drops = study.plane().drops();
  d.rate_limited = study.plane().rate_limited();
  return d;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_same(const CampaignDigests& got, const CampaignDigests& want) {
  EXPECT_EQ(hex(got.hitlist_corpus), hex(want.hitlist_corpus));
  EXPECT_EQ(hex(got.aliased_prefixes), hex(want.aliased_prefixes));
  EXPECT_EQ(hex(got.caida_corpus), hex(want.caida_corpus));
  EXPECT_EQ(hex(got.backscan), hex(want.backscan));
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.rate_limited, want.rate_limited);
}

TEST(CampaignIdentity, PinnedDigestsWithoutRateLimit) {
  const CampaignDigests got = run_gate_study(0);
  expect_same(got, {0x26fc7684d5f0173b, 0x9aa1f3f0db33001e,
                    0xc5cb19a570a4bdbb, 0x927504bbfdd8d57d, 27278, 0});
}

TEST(CampaignIdentity, PinnedDigestsUnderRateLimit) {
  const CampaignDigests got = run_gate_study(3);
  expect_same(got, {0x26fc7684d5f0173b, 0x9aa1f3f0db33001e,
                    0xc5cb19a570a4bdbb, 0x927504bbfdd8d57d, 20518, 687858});
}

TEST(CampaignIdentity, BitIdenticalAcrossThreads) {
  for (const std::uint32_t limit : {0u, 3u}) {
    const CampaignDigests serial = run_gate_study(limit, 1);
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("router_icmp_rate_limit=" + std::to_string(limit) +
                   " threads=" + std::to_string(threads));
      expect_same(run_gate_study(limit, threads), serial);
    }
  }
}

TEST(CampaignIdentity, ProbeTotalsMatchTheScanCounters) {
  // Every scan probe counts once in v6_scan_probes_total and once in its
  // stage's total; the Hitlist total includes alias-detection probes.
  core::Study study(gate_config(0, 2));
  core::RunOptions options;
  options.collect = false;
  options.analysis = false;
  const core::StudyResults& r = study.run(std::move(options));
  const std::uint64_t counted =
      study.metrics_registry().snapshot().counter_sum("v6_scan_probes_total");
  EXPECT_GT(r.backscan.probes_sent, 0u);
  EXPECT_EQ(counted, r.hitlist.probes_sent + r.caida.probes_sent +
                         r.backscan.probes_sent);
}

}  // namespace
}  // namespace v6::hitlist
