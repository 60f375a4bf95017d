#include "hitlist/passive_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
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
       {0x69c6214ad48d6996, 833827, 24932, 0x349881c0e13e50e2, 6904,
        {0x249eb1f631654cfe, 0x153366a3f9cd4fa6, 0xb0650240b3acc0dc,
         0xc2ea0687c37056f9}}},
      {GateConfig::kFaulted,
       {0xd7c4213f4cc6d3b9, 832688, 25330, 0x3ae718f8893e477e, 6884,
        {0x5cf3147f371b261c, 0x7203d1cd0a38807a, 0xa00d2d009bd751c5,
         0x87983f841eb2f84e}}},
      {GateConfig::kTiered,
       {0xc4988ba0707299e1, 833827, 409299, 0x3f006ae04aa27c0d, 114165,
        {0xfe89203980013e56, 0xec6b26b5aa03ed86, 0x76e16be0be0ac7c1,
         0xe49597d73bd6c99a}}},
      // The same corpus, counters and epochs as kDefaults: checkpoints and
      // sampling only add barriers.
      {GateConfig::kCheckpointed,
       {0x69c6214ad48d6996, 833827, 24932, 0x349881c0e13e50e2, 6904,
        {0x249eb1f631654cfe, 0x153366a3f9cd4fa6, 0xb0650240b3acc0dc,
         0xc2ea0687c37056f9},
        {{259200, 80025, 2200, 0x22cb4d9ab03018c7, 0x0c43d6c854678d6a},
         {518400, 161338, 4778, 0xe24b8c267c2251fe, 0xde359ca208dc8be0},
         {777600, 243219, 7056, 0xfb89cb6f8f864a97, 0xd247c567e550f4f8},
         {1036800, 325749, 9219, 0x8c6906940326c639, 0xd6f6946c4c4b9f47},
         {1296000, 408950, 11744, 0x3979d64e5501fd02, 0xdf032fce701250a2},
         {1555200, 492361, 14409, 0x6dd975cb1dd99d18, 0x6a748dfef8ae3514},
         {1814400, 576441, 16990, 0x35859a54cfefad09, 0x425a4ffbd894712a},
         {2073600, 661928, 19622, 0xe7e93b478ad66557, 0x2842ce07af5df297},
         {2332800, 748124, 22229, 0x6b411fc895a661ab, 0x07c59654f5a8c97b}},
        {{220, 1253}, {103, 1530}, {118, 1596}, {116, 1440}, {100, 1359},
         {128, 1338}, {125, 1667}, {125, 1529}, {132, 1680}, {145, 1491},
         {115, 1695}, {126, 1689}, {145, 1707}, {127, 1611}, {136, 1639}}}},
      // The same corpus, counters and epochs as kTiered.
      {GateConfig::kTieredCheckpointed,
       {0xc4988ba0707299e1, 833827, 409299, 0x3f006ae04aa27c0d, 114165,
        {0xfe89203980013e56, 0xec6b26b5aa03ed86, 0x76e16be0be0ac7c1,
         0xe49597d73bd6c99a},
        {{259200, 80025, 39053, 0xc80bb567e8b829f4, 0x71d9c15559d71820},
         {518400, 161338, 79101, 0x2aeae99c47b99ae6, 0x0957ebb6311352d3},
         {777600, 243219, 119290, 0x8c66fce8aba5b252, 0xd1eecac9181e4048},
         {1036800, 325749, 159707, 0x55e51fc1b7cceb7a, 0x50a7abf36d5a8a17},
         {1296000, 408950, 200381, 0xdd343920ed5b3761, 0xec04c992e36caa15},
         {1555200, 492361, 241269, 0x3fdce6b0eba45b80, 0x6e1172cb288ca310},
         {1814400, 576441, 282804, 0x720f0822a25f1087, 0xf8a49cd69404f9c4},
         {2073600, 661928, 324967, 0x9f83094f014f9c41, 0xb43e0740d66ca634},
         {2332800, 748124, 367358, 0xa03e09415b387e44, 0xdb53308574fa3ddc}},
        {{1070, 25012}, {938, 26003}, {922, 25956}, {997, 25990},
         {1010, 25964}, {1060, 26442}, {1033, 26514}, {1092, 25980},
         {1119, 26686}, {1107, 26502}, {1165, 27113}, {1172, 27477},
         {1182, 27439}, {1232, 27236}, {1195, 26878}}}},
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

// ---------------------------------------------------------------------------
// Grid independence: every count at a merge barrier is a pure function of
// the barrier's time, whichever grids put a barrier there. A collector
// that drew a chunk's uncaptured polls as one sample per chunk (say, a
// Binomial over the gap between two captures) would give a different
// total wherever a boundary splits that gap.

struct GridCounts {
  std::uint64_t polls = 0;
  std::uint64_t answered = 0;
  std::uint64_t health = 0;  // vantage_health_digest()
  std::size_t records = 0;
  std::uint64_t observations = 0;
  bool operator==(const GridCounts&) const = default;
};

// Collects [17 d, 30 d) of `world` under a checkpoint grid (0: none) and
// returns the counts at every checkpoint plus, under kWindowEnd, the run's
// totals.
constexpr util::SimTime kWindowEnd = 30 * util::kDay;
std::map<util::SimTime, GridCounts> collect_on_grid(
    const sim::World& world, util::SimDuration grid, bool tiered) {
  CollectorConfig config;
  config.threads = 2;
  config.retry_limit = 2;
  config.checkpoint_interval = grid;
  netsim::DataPlane plane(world, {0.01, 1});
  netsim::PoolDns dns(world, 0.25, 0.2);
  std::map<util::SimTime, GridCounts> at;
  const CheckpointSink sink = [&at](const CheckpointState& state,
                                    const Corpus& corpus) {
    at[state.resume_from] = {state.polls_attempted, state.polls_answered,
                             vantage_health_digest(state.vantage_health),
                             corpus.size(), corpus.total_observations()};
  };
  PassiveCollector collector(world, plane, dns, config);
  Corpus corpus(1 << 12);
  if (tiered) {
    SpillConfig spill;
    spill.memory_budget_bytes = 64 << 10;
    spill.block_records = 256;
    TieredCorpus runs(spill);
    collector.run(runs, 17 * util::kDay, kWindowEnd, {}, sink);
    EXPECT_GT(runs.stats().spills, 1u);
    corpus = runs.collapse();
  } else {
    collector.run(corpus, 17 * util::kDay, kWindowEnd, {}, sink);
  }
  at[kWindowEnd] = {collector.polls_attempted(), collector.polls_answered(),
                    vantage_health_digest(collector.vantage_health()),
                    corpus.size(), corpus.total_observations()};
  return at;
}

TEST(CollectorGrid, CountsAtSharedBoundariesIgnoreTheCheckpointGrid) {
  sim::WorldConfig world_config;
  world_config.seed = 58;
  world_config.total_sites = 300;
  // Outages start between day 20 and day 23 and last three days: inside
  // the collection window, across several boundaries.
  world_config.study_duration = 36 * util::kDay;
  std::uint64_t dark_polls = 0;
  for (const std::size_t outages : {std::size_t{0}, std::size_t{12}}) {
    world_config.outage_count = outages;
    const sim::World world = sim::World::generate(world_config);
    for (const bool tiered : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "outages=" << outages << " tiered=" << tiered);
      const auto plain = collect_on_grid(world, 0, tiered);
      ASSERT_EQ(plain.size(), 1u);
      std::vector<std::map<util::SimTime, GridCounts>> grids;
      for (const util::SimDuration days : {1, 2, 3}) {
        grids.push_back(collect_on_grid(world, days * util::kDay, tiered));
        EXPECT_EQ(grids.back().size(), 13u / days + (13 % days != 0));
      }
      for (const auto& one : grids) {
        EXPECT_EQ(one.at(kWindowEnd), plain.at(kWindowEnd));
        for (const auto& other : grids) {
          for (const auto& [t, counts] : one) {
            if (const auto it = other.find(t); it != other.end()) {
              EXPECT_EQ(counts, it->second) << "boundary " << t;
            }
          }
        }
      }
      // Days 6 and 12 of the window lie on both the 2- and 3-day grids.
      EXPECT_TRUE(grids[1].contains(23 * util::kDay));
      EXPECT_TRUE(grids[2].contains(29 * util::kDay));
      if (!tiered) {
        dark_polls = outages == 0 ? plain.at(kWindowEnd).polls
                                  : dark_polls - plain.at(kWindowEnd).polls;
      }
    }
  }
  // The outages silenced some polls (the two worlds differ only there).
  EXPECT_GT(dark_polls, 0u);
  EXPECT_LT(dark_polls, std::uint64_t{1} << 62);
}

}  // namespace
}  // namespace v6::hitlist
