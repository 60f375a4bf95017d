#include "hitlist/passive_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/scan_source.h"
#include "hitlist/corpus_io.h"
#include "hitlist/tiered_corpus.h"
#include "netsim/fault_schedule.h"
#include "obs/timeline.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"

namespace v6::hitlist {
namespace {

class PassiveCollectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 55;
    config.total_sites = 300;
    config.study_duration = 14 * util::kDay;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }
  static sim::World* world_;
};

sim::World* PassiveCollectorTest::world_ = nullptr;

// Collects over a data plane with transit loss `loss`.
Corpus collect(const sim::World& world, double loss,
               const CollectorConfig& config, util::SimTime start,
               util::SimTime end, const ObservationHook& hook = {}) {
  netsim::DataPlane plane(world, {loss, 1});
  netsim::PoolDns dns(world);
  PassiveCollector collector(world, plane, dns, config);
  Corpus corpus(1 << 12);
  collector.run(corpus, start, end, hook);
  return corpus;
}

void expect_identical_corpora(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_observations(), b.total_observations());
  for (const auto& rec : a.records()) {
    const auto* other = b.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->first_seen, rec.first_seen);
    EXPECT_EQ(other->last_seen, rec.last_seen);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->vantage_mask, rec.vantage_mask);
  }
}

TEST_F(PassiveCollectorTest, CollectsObservations) {
  const auto corpus =
      collect(*world_, 0.0, {}, 0, 7 * util::kDay);
  EXPECT_GT(corpus.size(), 1000u);
  EXPECT_GE(corpus.total_observations(), corpus.size());
}

TEST_F(PassiveCollectorTest, FastAndWirePathsAreBitIdenticalAtZeroLoss) {
  // With loss disabled the two execution paths consume identical RNG
  // streams (two draws per poll attempt), so not just the address set but
  // every record field must agree.
  const auto fast =
      collect(*world_, 0.0, {}, 0, 3 * util::kDay);
  const auto wire =
      collect(*world_, 0.0, {.wire_fidelity = true}, 0, 3 * util::kDay);
  expect_identical_corpora(fast, wire);
}

// Under loss both paths take the plane's one verdict per attempt, keyed on
// the poll's identity, so they lose the same polls: corpus and counters
// agree at any loss rate and collector thread count. Only the wire path
// counts its drops in the plane.
TEST_F(PassiveCollectorTest, FastAndWirePathsAreBitIdenticalUnderLoss) {
  for (const double loss : {0.01, 0.4}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "loss=" << loss
                                      << " threads=" << threads);
      netsim::DataPlane plane(*world_, {loss, 1});
      netsim::PoolDns dns(*world_);
      CollectorConfig config;
      config.threads = threads;
      config.retry_limit = 1;
      PassiveCollector fast(*world_, plane, dns, config);
      Corpus fast_corpus(1 << 12);
      fast.run(fast_corpus, 0, 2 * util::kDay);
      EXPECT_EQ(plane.drops(), 0u);

      config.wire_fidelity = true;
      PassiveCollector wire(*world_, plane, dns, config);
      Corpus wire_corpus(1 << 12);
      wire.run(wire_corpus, 0, 2 * util::kDay);
      EXPECT_GT(plane.drops(), 0u);

      std::ostringstream fast_bytes, wire_bytes;
      save_corpus(fast_bytes, fast_corpus);
      save_corpus(wire_bytes, wire_corpus);
      EXPECT_EQ(fast_bytes.str(), wire_bytes.str());
      EXPECT_EQ(fast.polls_attempted(), wire.polls_attempted());
      EXPECT_EQ(fast.polls_answered(), wire.polls_answered());
      EXPECT_LT(fast.polls_answered(), fast.polls_attempted());
      ASSERT_EQ(fast.vantage_health().size(), wire.vantage_health().size());
      for (std::size_t v = 0; v < fast.vantage_health().size(); ++v) {
        EXPECT_EQ(fast.vantage_health()[v].answered,
                  wire.vantage_health()[v].answered) << v;
        EXPECT_EQ(fast.vantage_health()[v].retries,
                  wire.vantage_health()[v].retries) << v;
      }
    }
  }
}

TEST_F(PassiveCollectorTest, RetriesRecoverPollsLostToTransit) {
  // RFC 5905-style persistence: at heavy loss a client that re-sends
  // unanswered polls hears back strictly more often than a fire-once one,
  // and at zero loss retries change nothing.
  CollectorConfig fire_once;
  CollectorConfig persistent = fire_once;
  persistent.retry_limit = 3;

  netsim::DataPlane plane(*world_, {0.4, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector once(*world_, plane, dns, fire_once);
  Corpus once_corpus(1 << 12);
  once.run(once_corpus, 0, 2 * util::kDay);
  PassiveCollector retrying(*world_, plane, dns, persistent);
  Corpus retry_corpus(1 << 12);
  retrying.run(retry_corpus, 0, 2 * util::kDay);

  ASSERT_GT(once.polls_attempted(), 0u);
  // Fire-once at 40% loss answers ~36% of polls; 3 retries lift the
  // per-poll answer odds to ~84%.
  EXPECT_GT(static_cast<double>(retrying.polls_answered()),
            1.5 * static_cast<double>(once.polls_answered()));
  EXPECT_GT(retry_corpus.total_observations(),
            once_corpus.total_observations());

  CollectorConfig lossless_retry;
  lossless_retry.retry_limit = 3;
  const auto with = collect(*world_, 0.0, lossless_retry, 0, util::kDay);
  const auto without = collect(*world_, 0.0, {}, 0, util::kDay);
  expect_identical_corpora(with, without);
}

TEST_F(PassiveCollectorTest, WirePathValidatesServerResponses) {
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {.wire_fidelity = true});
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, util::kDay);
  EXPECT_GT(collector.polls_attempted(), 0u);
  // Lossless wire path: every poll that reached a server got a valid,
  // origin-matching answer.
  EXPECT_EQ(collector.polls_answered(), collector.polls_attempted());
}

TEST_F(PassiveCollectorTest, LossReducesObservations) {
  const auto lossless =
      collect(*world_, 0.0, {}, 0, 3 * util::kDay);
  const auto lossy =
      collect(*world_, 0.3, {}, 0, 3 * util::kDay);
  EXPECT_LT(lossy.total_observations(),
            lossless.total_observations() * 0.8);
}

TEST_F(PassiveCollectorTest, HookSeesEveryObservation) {
  std::uint64_t hook_calls = 0;
  std::set<std::uint8_t> vantages;
  const auto corpus = collect(*world_, 0.0, {}, 0, 2 * util::kDay,
      [&](const ntp::Observation& obs, const net::Ipv6Address& vantage) {
        ++hook_calls;
        vantages.insert(obs.vantage);
        EXPECT_FALSE(vantage.is_unspecified());
      });
  EXPECT_EQ(hook_calls, corpus.total_observations());
  EXPECT_GT(vantages.size(), 10u);  // geo steering spreads across servers
}

TEST_F(PassiveCollectorTest, OnlyPoolDevicesAppear) {
  const auto corpus =
      collect(*world_, 0.0, {}, 0, 2 * util::kDay);
  // Every observed address must resolve to a pool-using device (or be an
  // ephemeral address of one at observation time). Spot-check via count:
  // non-pool devices never enter the schedule, so polls == observations.
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {});
  Corpus again(1 << 12);
  collector.run(again, 0, 2 * util::kDay);
  EXPECT_EQ(collector.polls_attempted(), again.total_observations());
}

TEST_F(PassiveCollectorTest, BurstsYieldMultipleSightingsPerSync) {
  // Find a bursting pool device and verify its address records carry
  // multiple observations seconds apart.
  const auto corpus = collect(*world_, 0.0, {}, 0, util::kDay);
  bool found_burst_record = false;
  for (const auto& rec : corpus.records()) {
    if (rec.count >= 4 && rec.lifetime() <= 30) found_burst_record = true;
  }
  EXPECT_TRUE(found_burst_record)
      << "expected at least one iburst-style record (>=4 sightings within "
         "seconds)";
}

TEST_F(PassiveCollectorTest, PollCountsCountBurstPackets) {
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {});
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, util::kDay);
  // Bursting devices send several packets per sync, so attempted polls
  // exceed unique sync events but equal total observations (no loss).
  EXPECT_EQ(collector.polls_attempted(), corpus.total_observations());
}

TEST_F(PassiveCollectorTest, ShardedCollectionIsBitIdenticalToSerial) {
  // The tentpole guarantee: threads=N merges to the same corpus as the
  // exact legacy threads=1 path — same size, total_observations, and
  // per-record fields — because per-device streams are order-independent
  // and Corpus aggregates are commutative.
  CollectorConfig serial;
  serial.threads = 1;
  const auto base = collect(*world_, 0.01, serial, 0, 5 * util::kDay);
  for (const unsigned threads : {2u, 4u, 7u}) {
    CollectorConfig sharded_config = serial;
    sharded_config.threads = threads;
    const auto sharded =
        collect(*world_, 0.01, sharded_config, 0, 5 * util::kDay);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical_corpora(base, sharded);
  }
}

TEST_F(PassiveCollectorTest, ShardedCountersSumToSerialCounters) {
  netsim::DataPlane plane(*world_, {0.01, 1});
  netsim::PoolDns dns(*world_);
  CollectorConfig config;
  config.threads = 1;
  PassiveCollector serial(*world_, plane, dns, config);
  Corpus serial_corpus(1 << 12);
  serial.run(serial_corpus, 0, 4 * util::kDay);

  config.threads = 4;
  PassiveCollector sharded(*world_, plane, dns, config);
  Corpus sharded_corpus(1 << 12);
  sharded.run(sharded_corpus, 0, 4 * util::kDay);

  EXPECT_EQ(sharded.polls_attempted(), serial.polls_attempted());
  EXPECT_EQ(sharded.polls_answered(), serial.polls_answered());
}

TEST_F(PassiveCollectorTest, ShardedHookDeliveryIsSerializedAndComplete) {
  // Hooks under threads>1 are serialized by the collector, so an
  // unsynchronized hook body must still see every observation exactly
  // once (the count matches the corpus total).
  CollectorConfig config;
  config.threads = 4;
  std::uint64_t hook_calls = 0;
  std::set<std::uint8_t> vantages;
  const auto corpus = collect(
      *world_, 0.0, config, 0, 2 * util::kDay,
      [&](const ntp::Observation& obs, const net::Ipv6Address& vantage) {
        ++hook_calls;
        vantages.insert(obs.vantage);
        EXPECT_FALSE(vantage.is_unspecified());
      });
  EXPECT_EQ(hook_calls, corpus.total_observations());
  EXPECT_GT(vantages.size(), 10u);
}

TEST_F(PassiveCollectorTest, WireFidelityShardsBitIdenticallyUnderThreadKnob) {
  // Each shard delivers its wire polls to its own servers, and the plane's
  // verdicts are pure hashes, so the threads knob shards the wire path
  // like the fast path: threads=8 and threads=1 produce identical corpora,
  // lossless and lossy.
  CollectorConfig one{.wire_fidelity = true};
  one.threads = 1;
  CollectorConfig eight = one;
  eight.threads = 8;
  for (const double loss : {0.0, 0.2}) {
    SCOPED_TRACE(testing::Message() << "loss=" << loss);
    const auto a = collect(*world_, loss, one, 0, util::kDay);
    const auto b = collect(*world_, loss, eight, 0, util::kDay);
    expect_identical_corpora(a, b);
  }
}

TEST_F(PassiveCollectorTest, DeterministicAcrossRuns) {
  const auto a = collect(*world_, 0.01, {}, 0, 2 * util::kDay);
  const auto b = collect(*world_, 0.01, {}, 0, 2 * util::kDay);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_observations(), b.total_observations());
}

TEST_F(PassiveCollectorTest, WindowBoundsRespected) {
  const auto corpus =
      collect(*world_, 0.0, {}, util::kDay, 2 * util::kDay);
  for (const auto& rec : corpus.records()) {
    EXPECT_GE(rec.first_seen, static_cast<std::uint32_t>(util::kDay));
    EXPECT_LT(rec.last_seen, static_cast<std::uint32_t>(2 * util::kDay));
  }
}

// The distributed-collection partition property: collectors over the
// disjoint device ranges util::shard_range cuts merge bit-identically to
// one full-range run — every record field, every counter — even though
// they share one data plane and pool DNS and run in sequence. Each range
// is the vantage subset one distributed worker collects.
TEST_F(PassiveCollectorTest, VantageSubsetPartitionReassembles) {
  CollectorConfig base;
  base.retry_limit = 2;
  const util::SimTime start = 0;
  const util::SimTime end = 5 * util::kDay;

  netsim::DataPlane plane(*world_, {0.01, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector reference_collector(*world_, plane, dns, base);
  Corpus reference(1 << 12);
  reference_collector.run(reference, start, end);

  const std::size_t device_count = world_->devices().size();
  for (const std::size_t ranges : {2u, 3u, 7u}) {
    Corpus merged(1 << 12);
    std::uint64_t polls = 0, answered = 0;
    std::vector<VantageHealthStats> health;
    for (std::size_t r = 0; r < ranges; ++r) {
      CollectorConfig cfg = base;
      const util::ShardRange devices =
          util::shard_range(device_count, r, ranges);
      cfg.device_begin = devices.begin;
      cfg.device_end = devices.end;
      PassiveCollector collector(*world_, plane, dns, cfg);
      Corpus part(1 << 12);
      collector.run(part, start, end);
      merged.merge(part);
      polls += collector.polls_attempted();
      answered += collector.polls_answered();
      add_vantage_health(health, collector.vantage_health());
    }
    merged.canonicalize();
    expect_identical_corpora(merged, reference);
    EXPECT_EQ(polls, reference_collector.polls_attempted()) << ranges;
    EXPECT_EQ(answered, reference_collector.polls_answered()) << ranges;
    const auto& expected = reference_collector.vantage_health();
    ASSERT_EQ(health.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_EQ(health[v].polls, expected[v].polls) << v;
      EXPECT_EQ(health[v].answered, expected[v].answered) << v;
      EXPECT_EQ(health[v].retries, expected[v].retries) << v;
      EXPECT_EQ(health[v].steered_polls, expected[v].steered_polls) << v;
    }
  }
}

// A range past the world's end, or an inverted one, collects nothing.
TEST_F(PassiveCollectorTest, EmptyDeviceRangeCollectsNothing) {
  netsim::DataPlane plane(*world_, {0.01, 1});
  netsim::PoolDns dns(*world_);
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{world_->devices().size(),
                                            world_->devices().size() + 5},
        {7, 3}}) {
    CollectorConfig cfg;
    cfg.device_begin = begin;
    cfg.device_end = end;
    PassiveCollector collector(*world_, plane, dns, cfg);
    Corpus corpus(1 << 4);
    collector.run(corpus, 0, util::kDay);
    EXPECT_EQ(corpus.size(), 0u);
    EXPECT_EQ(collector.polls_attempted(), 0u);
  }
}

// A vantage that never answers (loss 1) and retry_backoff = 0: every
// captured packet is re-sent retry_limit times at the same instant. From
// attempt 63 on, 2^attempt no longer fits the signed offset type; the
// offset saturates instead of overflowing (the sanitizer job runs this),
// and a backoff whose first re-send falls past the window sends none.
TEST_F(PassiveCollectorTest, RetryBackoffSaturatesPastSixtyFourRetries) {
  const auto run = [&](std::uint32_t retry_limit, util::SimDuration backoff) {
    CollectorConfig config;
    config.retry_limit = retry_limit;
    config.retry_backoff = backoff;
    netsim::DataPlane plane(*world_, {1.0, 1});
    netsim::PoolDns dns(*world_, 0.10, 0.2);
    PassiveCollector collector(*world_, plane, dns, config);
    Corpus corpus(1 << 4);
    collector.run(corpus, 0, util::kDay);
    EXPECT_EQ(corpus.size(), 0u);
    EXPECT_EQ(collector.polls_answered(), 0u);
    return collector.vantage_health();
  };
  std::uint64_t resent = 0;
  for (const VantageHealthStats& v : run(100, 0)) {
    // Each captured packet: the original plus 100 re-sends.
    EXPECT_EQ(v.polls % 101, 0u);
    EXPECT_EQ(v.retries, v.polls / 101 * 100);
    resent += v.retries;
  }
  EXPECT_GT(resent, 0u);
  for (const VantageHealthStats& v : run(100, util::SimDuration{1} << 40)) {
    EXPECT_EQ(v.retries, 0u);
  }
}

// ---------------------------------------------------------------------------
// Identity gate for the collector hot path. Every output a collection run
// produces is pinned: the saved-corpus bytes, the poll counters, the
// per-vantage health stats, the pool-DNS resolution count and each epoch
// snapshot's digest. Optimisations of the per-event loop or of the epoch
// union must leave all of them unchanged at every collector thread count.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a over every VantageHealthStats field, vantage by vantage.
std::uint64_t vantage_health_digest(
    const std::vector<VantageHealthStats>& health) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const VantageHealthStats& v : health) {
    for (const std::uint64_t field :
         {v.polls, v.answered, v.lost_to_fault, v.retries, v.steered_polls}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (field >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

// One checkpoint handed to the sink: its cursor plus the FNV-1a of the
// saved bytes of a canonicalized copy of its corpus (the sink's own
// layout is insertion order, which is not part of the contract).
struct CheckpointPin {
  util::SimTime resume_from = 0;
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::uint64_t vantage_health = 0;
  std::uint64_t content = 0;
};

std::string describe(const CheckpointPin& c) {
  return "t=" + std::to_string(c.resume_from) +
         " polls=" + std::to_string(c.polls_attempted) +
         " answered=" + std::to_string(c.polls_answered) +
         " health=" + hex(c.vantage_health) + " content=" + hex(c.content);
}

struct CollectorDigests {
  std::uint64_t corpus = 0;  // FNV-1a of the saved corpus bytes
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::uint64_t vantage_health = 0;  // vantage_health_digest()
  std::uint64_t pool_resolutions = 0;
  std::vector<std::uint64_t> epochs;  // Snapshot::digest() per epoch
  // Checkpointed config only: every checkpoint, and each timeline
  // window's (records_total, dedup_hits_total) deltas.
  std::vector<CheckpointPin> checkpoints = {};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {};
};

// kCheckpointed runs the defaults in memory with a 3-day checkpoint sink
// and a 2-day timeline sampler on top of the epochs: three barrier grids
// that interleave, so some barriers serve one consumer and some several.
// kTieredCheckpointed adds the same two grids to kTiered, so checkpoints
// and record counts are taken while part of the corpus is spilled.
enum class GateConfig {
  kDefaults,
  kFaulted,
  kTiered,
  kCheckpointed,
  kTieredCheckpointed
};

// A 600-site, 30-day world with epochs every 7 days. The pool DNS keeps
// most sync events away from the vantages, as in the study.
CollectorDigests run_collector_gate(GateConfig which, unsigned threads) {
  sim::WorldConfig world_config;
  world_config.seed = 41;
  world_config.total_sites = 600;
  world_config.study_duration = 30 * util::kDay;
  const bool tiered = which == GateConfig::kTiered ||
                      which == GateConfig::kTieredCheckpointed;
  const bool checkpointed = which == GateConfig::kCheckpointed ||
                            which == GateConfig::kTieredCheckpointed;
  if (which == GateConfig::kFaulted) world_config.outage_count = 6;
  const sim::World world = sim::World::generate(world_config);

  CollectorConfig config;
  config.threads = threads;
  config.epoch_interval = 7 * util::kDay;
  netsim::DataPlane plane(world, {0.01, 1});
  // The study's capture share, except for the tiered config, which needs
  // a corpus large enough to spill at some barriers and not at others.
  netsim::PoolDns dns(world, 0.25, tiered ? 0.5 : 0.03);
  obs::Registry registry;
  dns.set_metrics(&registry);
  std::unique_ptr<netsim::FaultSchedule> faults;
  if (which == GateConfig::kFaulted) {
    netsim::FaultPlanConfig plan;
    plan.outages_per_vantage = 2.0;
    plan.flaps_per_vantage = 4.0;
    faults = std::make_unique<netsim::FaultSchedule>(
        world.vantages(), plan, 0, world_config.study_duration);
    plane.set_faults(faults.get());
    dns.set_health_monitor(faults.get(), 15 * util::kMinute);
    config.retry_limit = 2;
  }

  CollectorDigests d;
  config.epoch_sink = [&d](util::SimTime t, const Corpus& u) {
    d.epochs.push_back(
        serve::Snapshot::build(analysis::make_source(u), d.epochs.size() + 1,
                               t)
            ->digest());
  };
  std::unique_ptr<obs::TimelineSampler> sampler;
  CheckpointSink sink;
  if (checkpointed) {
    sampler = std::make_unique<obs::TimelineSampler>(registry,
                                                     2 * util::kDay, 0);
    config.metrics = &registry;
    config.sampler = sampler.get();
    config.checkpoint_interval = 3 * util::kDay;
    sink = [&d](const CheckpointState& state, const Corpus& snapshot) {
      Corpus canonical(std::max<std::size_t>(snapshot.size(), 1));
      canonical.merge(snapshot);
      canonical.canonicalize();
      std::ostringstream bytes;
      save_corpus(bytes, canonical);
      d.checkpoints.push_back({state.resume_from, state.polls_attempted,
                               state.polls_answered,
                               vantage_health_digest(state.vantage_health),
                               fnv1a(std::move(bytes).str())});
    };
  }
  PassiveCollector collector(world, plane, dns, config);
  std::ostringstream saved;
  if (tiered) {
    // Each shard table starts at 160 KiB, so 180 KiB per thread spills
    // at some daily barriers and not at others: epochs see both spilled
    // runs and a live table.
    SpillConfig spill;
    spill.memory_budget_bytes = threads * (180 << 10);
    spill.block_records = 256;
    TieredCorpus runs(spill);
    collector.run(runs, 0, world_config.study_duration, {}, sink);
    EXPECT_GT(runs.stats().spills, 1u);
    EXPECT_LT(runs.stats().spills, 30u);
    runs.save(saved);
  } else {
    Corpus corpus(1 << 12);
    collector.run(corpus, 0, world_config.study_duration, {}, sink);
    save_corpus(saved, corpus);
  }
  if (sampler != nullptr) {
    // The window-end sample is the caller's; it covers the final flush.
    sampler->sample(world_config.study_duration, "collect");
    const auto delta = [](const obs::WindowRecord& w, std::string_view name) {
      for (const obs::WindowCounter& c : w.counters) {
        if (c.name == name) return c.delta;
      }
      return std::uint64_t{0};
    };
    for (const obs::WindowRecord& w : sampler->timeline()) {
      d.windows.emplace_back(delta(w, "v6_collector_records_total"),
                             delta(w, "v6_collector_dedup_hits_total"));
    }
  }
  d.corpus = fnv1a(std::move(saved).str());
  d.polls_attempted = collector.polls_attempted();
  d.polls_answered = collector.polls_answered();
  if (which == GateConfig::kFaulted) {
    // The plan must actually swallow polls, steer and trigger retries.
    std::uint64_t lost = 0, steered = 0, retries = 0;
    for (const VantageHealthStats& v : collector.vantage_health()) {
      lost += v.lost_to_fault;
      steered += v.steered_polls;
      retries += v.retries;
    }
    EXPECT_GT(lost, 0u);
    EXPECT_GT(steered, 0u);
    EXPECT_GT(retries, 0u);
  }
  d.vantage_health = vantage_health_digest(collector.vantage_health());
  d.pool_resolutions =
      registry.snapshot().counter_sum("v6_pool_resolutions_total");
  return d;
}

void expect_pinned(const CollectorDigests& got, const CollectorDigests& want) {
  EXPECT_EQ(hex(got.corpus), hex(want.corpus));
  EXPECT_EQ(got.polls_attempted, want.polls_attempted);
  EXPECT_EQ(got.polls_answered, want.polls_answered);
  EXPECT_EQ(hex(got.vantage_health), hex(want.vantage_health));
  EXPECT_EQ(got.pool_resolutions, want.pool_resolutions);
  std::vector<std::string> got_epochs, want_epochs;
  for (const std::uint64_t e : got.epochs) got_epochs.push_back(hex(e));
  for (const std::uint64_t e : want.epochs) want_epochs.push_back(hex(e));
  EXPECT_EQ(got_epochs, want_epochs);
  std::vector<std::string> got_checkpoints, want_checkpoints;
  for (const CheckpointPin& c : got.checkpoints) {
    got_checkpoints.push_back(describe(c));
  }
  for (const CheckpointPin& c : want.checkpoints) {
    want_checkpoints.push_back(describe(c));
  }
  EXPECT_EQ(got_checkpoints, want_checkpoints);
  EXPECT_EQ(got.windows, want.windows);
}

// The pinned digests of each gate config; every row must hold at any
// collector thread count.
const std::vector<std::pair<GateConfig, CollectorDigests>>& pinned_digests() {
  static const std::vector<std::pair<GateConfig, CollectorDigests>> pins = {
      {GateConfig::kDefaults,
       {0xe0a6be4b0f90a6ca, 835752, 25113, 0xf11beedc73006fda, 6949,
        {0x174f2302a200296a, 0xa34e5f8ab09b4da8, 0xa77654377aa1011c,
         0x536461e66610cda2}}},
      {GateConfig::kFaulted,
       {0x11ea438ffd87e728, 834628, 25510, 0x3c72721bd4dcfdea, 6928,
        {0x23b7097031b960da, 0xb103d8408a317c0d, 0x58aa609ba958c060,
         0x9016a7581127d9d8}}},
      {GateConfig::kTiered,
       {0x4637b2ed1f58601b, 835752, 409395, 0x2f6c8e2b907d6d8c, 114467,
        {0x82cb98397613e3d7, 0x7cf7e59bf1cd9c80, 0x188fc1e2e8d6893c,
         0x3c10e488ed737719}}},
      // The same corpus, counters and epochs as kDefaults: checkpoints and
      // sampling only add barriers.
      {GateConfig::kCheckpointed,
       {0xe0a6be4b0f90a6ca, 835752, 25113, 0xf11beedc73006fda, 6949,
        {0x174f2302a200296a, 0xa34e5f8ab09b4da8, 0xa77654377aa1011c,
         0x536461e66610cda2},
        {{259200, 80896, 2288, 0x80a7b918272155e8, 0x5d3ad84aef3ecb4f},
         {518400, 162388, 4885, 0x1f3232134a12c539, 0x3721954de650d672},
         {777600, 244418, 7120, 0x006a409425741a6d, 0xf20617731b078856},
         {1036800, 327232, 9621, 0x1bb6f496d060c1bf, 0xbf3e910ecdcc4604},
         {1296000, 410531, 12235, 0xb3b8f2edf9123e58, 0xaf870b2c81abbbb8},
         {1555200, 494152, 14706, 0x718503121dba2df2, 0x1e69ae70c5983f12},
         {1814400, 578225, 17212, 0xb8655b762bdff9ce, 0x33f93a6716d8abbc},
         {2073600, 663436, 19911, 0x0a023ca3541c7bbe, 0xb80bd96d458ba695},
         {2332800, 750269, 22496, 0xffa24327522809f6, 0xa4032f75d98f65e2}},
        {{200, 1325}, {127, 1464}, {111, 1713}, {102, 1377}, {109, 1473},
         {113, 1604}, {116, 1674}, {122, 1568}, {118, 1525}, {119, 1476},
         {133, 1641}, {133, 1757}, {119, 1559}, {133, 1660}, {156, 1615}}}},
      // The same corpus, counters and epochs as kTiered.
      {GateConfig::kTieredCheckpointed,
       {0x4637b2ed1f58601b, 835752, 409395, 0x2f6c8e2b907d6d8c, 114467,
        {0x82cb98397613e3d7, 0x7cf7e59bf1cd9c80, 0x188fc1e2e8d6893c,
         0x3c10e488ed737719},
        {{259200, 80896, 39422, 0x098e4aeaf9768e32, 0x75d6d5c61f1fbb56},
         {518400, 162388, 79481, 0x4ba8a883b3fac8e3, 0x0a67a44423342ea5},
         {777600, 244418, 119337, 0x8a099844ebaa0aeb, 0x0d778fe9fb81a87d},
         {1036800, 327232, 159913, 0xbc23cc75a02fd6f6, 0x5a6f0be1c88d001f},
         {1296000, 410531, 200701, 0x8450ea140704e4a3, 0x35b0c55f5afc8c9f},
         {1555200, 494152, 242061, 0x21da9f995de3d77e, 0x2ebe8c762eea6b5b},
         {1814400, 578225, 282842, 0x9aa60438e4782af1, 0x0f4870402ec2169f},
         {2073600, 663436, 324739, 0xda68617a01d0d092, 0x8785d6a37ae86c98},
         {2332800, 750269, 367637, 0xd62067e3b12ae037, 0x0e31228697ff67e8}},
        {{1091, 25577}, {880, 25962}, {943, 25812}, {1004, 25779},
         {1053, 25946}, {1006, 26457}, {1043, 26583}, {1056, 26702},
         {1134, 26457}, {1123, 26196}, {1156, 26827}, {1156, 27077},
         {1211, 27679}, {1148, 27324}, {1194, 26998}}}},
  };
  return pins;
}

const CollectorDigests& pinned(GateConfig which) {
  for (const auto& [config, digests] : pinned_digests()) {
    if (config == which) return digests;
  }
  throw std::logic_error("no pin for this gate config");
}

TEST(CollectorIdentity, PinnedDigests) {
  for (const auto& [which, want] : pinned_digests()) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "config=" << static_cast<int>(which)
                                      << " threads=" << threads);
      expect_pinned(run_collector_gate(which, threads), want);
    }
  }
}

// Three shards sort four parts (the running union and three shard tables)
// on a three-worker pool and collapse ranges that do not divide evenly
// among the workers; the barrier work on the pool must leave the corpus,
// counters and epochs where they are.
TEST(CollectorIdentity, TieredMatchesPinsAtThreeThreads) {
  expect_pinned(run_collector_gate(GateConfig::kTiered, 3),
                pinned(GateConfig::kTiered));
}

}  // namespace
}  // namespace v6::hitlist
