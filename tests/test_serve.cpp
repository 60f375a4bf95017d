// The serving layer: epoch snapshots, the RCU-style swap, and the
// per-epoch determinism contract (answers are a pure function of the
// published snapshot at any reader/ingest thread count).
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/eui64_tracking.h"
#include "analysis/scan_source.h"
#include "core/study.h"
#include "hitlist/tiered_corpus.h"
#include "net/entropy.h"
#include "net/eui64.h"
#include "obs/cluster.h"
#include "obs/exposition.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace v6::serve {
namespace {

core::StudyConfig small_config(std::uint64_t seed = 7) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.total_sites = 250;
  config.pool_capture_share = 1.0;
  config.world.study_duration = 20 * util::kDay;
  return config;
}

core::RunOptions serve_options(util::SimDuration epoch_interval,
                               std::size_t retain = 64) {
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.serve.enabled = true;
  options.serve.epoch_interval = epoch_interval;
  options.serve.retain_epochs = retain;
  return options;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> epoch_digests(
    const QueryService& service) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& snap : service.retained()) {
    out.emplace_back(snap->epoch(), snap->digest());
  }
  return out;
}

TEST(ServeSnapshot, AnswersHandBuiltCorpus) {
  hitlist::Corpus corpus(64);
  const std::uint64_t net64 = 0x2001'0db8'0001'0002ull;
  const net::MacAddress mac = net::MacAddress::from_u64(0xf00220aabbccull);
  // Three addresses in one /64: a structured IID, a high-entropy IID, and
  // an EUI-64 one; plus a lone address in a different /48.
  const net::Ipv6Address structured = net::Ipv6Address::from_u64(net64, 0x1);
  const net::Ipv6Address random =
      net::Ipv6Address::from_u64(net64, 0x9c37'b1e5'52fa'8d64ull);
  const net::Ipv6Address eui = net::eui64_address(net64, mac);
  const net::Ipv6Address elsewhere =
      net::Ipv6Address::from_u64(0x2001'0db9'0000'0000ull, 0x1);
  corpus.add(structured, 100, 1);
  corpus.add(structured, 900, 2);
  corpus.add(random, 200, 1);
  corpus.add(eui, 300, 1);
  corpus.add(elsewhere, 400, 3);
  corpus.canonicalize();

  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 1000);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->as_of(), 1000);
  EXPECT_EQ(snap->records(), 4u);
  EXPECT_EQ(snap->observations(), 5u);

  const auto rec = snap->find(structured);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->count, 2u);
  EXPECT_EQ(rec->first_seen, 100u);
  EXPECT_EQ(rec->last_seen, 900u);
  EXPECT_FALSE(snap->contains(net::Ipv6Address::from_u64(net64, 0x2)));

  // The three /64-sharing addresses land in one /48; `elsewhere` in its
  // own.
  EXPECT_EQ(snap->slash48_density(structured), 3u);
  EXPECT_EQ(snap->slash48_density(elsewhere), 1u);
  EXPECT_EQ(snap->slash48_count(), 2u);

  const std::optional<Slash64Summary> sum = snap->slash64(random);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->addresses, 3u);
  EXPECT_EQ(sum->low + sum->medium + sum->high, 3u);
  EXPECT_GE(sum->low, 1u);   // the structured IID
  EXPECT_GE(sum->high, 1u);  // the random IID
  EXPECT_EQ(sum->eui64, 1u);
  EXPECT_FALSE(snap->slash64(net::Ipv6Address::from_u64(0x42, 0x1)));

  const OuiRisk* risk = snap->oui_risk(mac.oui());
  ASSERT_NE(risk, nullptr);
  EXPECT_EQ(risk->eui64_addresses, 1u);
  EXPECT_EQ(risk->unique_macs, 1u);
  EXPECT_EQ(risk->trackable_macs, 0u);  // one /64 only: below the §5.2 gate
  EXPECT_EQ(risk->mac_slash64_pairs, 1u);
  EXPECT_EQ(snap->oui_risk(net::Oui(0x123456)), nullptr);
}

TEST(ServeSnapshot, TrackableMacCrossesSlash64Gate) {
  hitlist::Corpus corpus(16);
  const net::MacAddress mac = net::MacAddress::from_u64(0xf00220010203ull);
  corpus.add(net::eui64_address(0xaaaa'0000'0000'0001ull, mac), 10, 1);
  corpus.add(net::eui64_address(0xbbbb'0000'0000'0001ull, mac), 20, 1);
  corpus.canonicalize();
  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 100);
  const OuiRisk* risk = snap->oui_risk(mac.oui());
  ASSERT_NE(risk, nullptr);
  EXPECT_EQ(risk->unique_macs, 1u);
  EXPECT_EQ(risk->trackable_macs, 1u);  // >= 2 distinct /64s
  EXPECT_EQ(risk->mac_slash64_pairs, 2u);
  EXPECT_EQ(risk->eui64_addresses, 2u);
}

TEST(ServeSnapshot, OuiTotalsMatchEui64Tracker) {
  core::Study study(small_config());
  study.run(serve_options(0));
  const hitlist::Corpus& ntp = study.results().ntp;
  const auto snap = Snapshot::build(analysis::make_source(ntp), 1, 0);

  // The tracker is the §5 reference implementation; the snapshot's
  // per-OUI rows must sum to its totals exactly.
  analysis::Eui64Tracker tracker(ntp, study.world());
  std::uint64_t eui64_addresses = 0, unique_macs = 0, trackable = 0;
  ASSERT_GT(snap->oui_count(), 0u);
  // Sum every OUI row by probing each distinct OUI through the query API.
  // (Rows are not directly iterable — answer-surface only — so rebuild
  // the key set from the corpus.)
  std::vector<std::uint32_t> ouis;
  for (const auto& rec : ntp.records()) {
    if (const auto mac = net::mac_from_eui64(rec.address.iid())) {
      ouis.push_back(mac->oui().value());
    }
  }
  std::sort(ouis.begin(), ouis.end());
  ouis.erase(std::unique(ouis.begin(), ouis.end()), ouis.end());
  EXPECT_EQ(ouis.size(), snap->oui_count());
  for (const std::uint32_t oui : ouis) {
    const OuiRisk* risk = snap->oui_risk(net::Oui(oui));
    ASSERT_NE(risk, nullptr);
    eui64_addresses += risk->eui64_addresses;
    unique_macs += risk->unique_macs;
    trackable += risk->trackable_macs;
  }
  EXPECT_EQ(eui64_addresses, tracker.eui64_addresses());
  EXPECT_EQ(unique_macs, tracker.unique_macs());
  EXPECT_EQ(trackable, tracker.trackable_macs());
}

// ---------------------------------------------------------------------------
// The two-level layout against a brute-force fold of the same records.

// Records shaped to hit every layout edge: a dense /48 of 300 /64s (shard
// seams fall inside it), one /64 of 500 addresses (a row longer than a
// shard at 8 threads), single-record /64s, the all-ones /64 (whose key is
// the sentinel row's), and EUI-64 IIDs of two OUIs whose MACs recur
// across /64s.
hitlist::Corpus edge_corpus() {
  hitlist::Corpus corpus(1 << 12);
  util::Rng rng(97);
  const auto add = [&](std::uint64_t hi, std::uint64_t lo) {
    const auto t = static_cast<util::SimTime>(rng.bounded(1'000'000));
    const auto vantage = static_cast<std::uint32_t>(rng.bounded(27));
    const net::Ipv6Address address = net::Ipv6Address::from_u64(hi, lo);
    corpus.add(address, t, vantage);
    if (rng.chance(0.3)) corpus.add(address, t + 50, (vantage + 1) % 27);
  };
  const auto eui = [](std::uint64_t i) {
    const std::uint64_t oui = i % 2 == 0 ? 0x001b63 : 0xf00220;
    return net::eui64_iid_from_mac(
        net::MacAddress::from_u64((oui << 24) | (i % 40)));
  };
  const std::uint64_t dense48 = 0x2001'0db8'00aa'0000ull;
  for (std::uint64_t s = 0; s < 300; ++s) {
    for (std::uint64_t k = 0; k < 1 + s % 4; ++k) {
      add(dense48 | s, (s + k) % 3 == 0 ? eui(s + k) : rng.next());
    }
  }
  // Low-, medium- and high-entropy IIDs interleave along the long row,
  // so every shard's part of it holds all three bands.
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t top = k << 52;
    add(0x2001'0db8'00bb'0001ull, k % 3 == 0   ? top | 0x1
                                  : k % 3 == 1 ? top | (rng.next() >> 40)
                                               : top | (rng.next() >> 12));
  }
  for (std::uint64_t k = 0; k < 200; ++k) {
    add(rng.next(), k % 7 == 0 ? eui(k) : rng.next());
  }
  const std::uint64_t ones = ~std::uint64_t{0};
  add(ones, ones);
  add(ones, eui(7));
  add(ones, 0x1);
  add(ones, rng.next());
  add(0xffff'ffff'ffff'0000ull, 0x1);  // the all-ones /48's other /64
  corpus.canonicalize();
  return corpus;
}

// A ScanSource over `records` whose domain is record positions, streamed
// in ragged blocks of 1, 2, ..., 7 records.
analysis::ScanSource ragged_source(
    std::span<const hitlist::AddressRecord> records) {
  analysis::ScanSource src;
  src.span = records.size();
  src.records = records.size();
  src.visit_blocks = [records](std::size_t begin, std::size_t end,
                               const analysis::ScanSource::BlockFn& fn) {
    std::size_t step = 1;
    for (std::size_t i = begin; i < end; i += step, step = step % 7 + 1) {
      fn(records.subspan(i, std::min(end, i + step) - i));
    }
  };
  return src;
}

// The same records as out-of-core runs: three spills of 16-record blocks.
std::unique_ptr<hitlist::TieredCorpus> tiered_copy(
    std::span<const hitlist::AddressRecord> records) {
  hitlist::SpillConfig config;
  config.memory_budget_bytes = 1;
  config.block_records = 16;
  auto runs = std::make_unique<hitlist::TieredCorpus>(config);
  for (std::size_t part = 0; part < 3; ++part) {
    hitlist::Corpus shard(16);
    for (std::size_t i = part; i < records.size(); i += 3) {
      shard.add_record(records[i]);
    }
    runs->spill(std::move(shard));
  }
  return runs;
}

// Every answer folded straight from the record list, keyed by ordered
// maps: no offsets, no rows, no shards.
struct BruteForce {
  std::vector<hitlist::AddressRecord> records;
  std::uint64_t observations = 0;
  std::map<std::uint64_t, std::uint64_t> slash48;
  std::map<std::uint64_t, Slash64Summary> slash64;
  std::map<std::uint32_t, OuiRisk> oui;

  explicit BruteForce(std::span<const hitlist::AddressRecord> recs)
      : records(recs.begin(), recs.end()) {
    std::map<std::uint64_t, std::set<std::uint64_t>> mac_slash64s;
    for (const hitlist::AddressRecord& rec : records) {
      const std::uint64_t hi = rec.address.hi64();
      observations += rec.count;
      ++slash48[hi >> 16];
      Slash64Summary& sum = slash64[hi];
      ++sum.addresses;
      switch (net::entropy_band(net::iid_entropy(rec.address.iid()))) {
        case net::EntropyBand::kLow: ++sum.low; break;
        case net::EntropyBand::kMedium: ++sum.medium; break;
        case net::EntropyBand::kHigh: ++sum.high; break;
      }
      if (const auto mac = net::mac_from_eui64(rec.address.iid())) {
        ++sum.eui64;
        ++oui[mac->oui().value()].eui64_addresses;
        mac_slash64s[mac->to_u64()].insert(hi);
      }
    }
    for (const auto& [mac, slash64s] : mac_slash64s) {
      OuiRisk& risk = oui[static_cast<std::uint32_t>(mac >> 24)];
      ++risk.unique_macs;
      if (slash64s.size() >= 2) ++risk.trackable_macs;
      risk.mac_slash64_pairs += slash64s.size();
    }
  }

  // The answer digest as the flat per-family tables define it: every
  // record, then the /48, /64 and OUI answers in key order.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto fnv = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    };
    fnv(records.size());
    for (const hitlist::AddressRecord& rec : records) {
      fnv(rec.address.hi64());
      fnv(rec.address.lo64());
      fnv((static_cast<std::uint64_t>(rec.first_seen) << 32) | rec.last_seen);
      fnv((static_cast<std::uint64_t>(rec.count) << 32) | rec.vantage_mask);
    }
    for (const auto& [key, count] : slash48) {
      fnv(key);
      fnv(count);
    }
    for (const auto& [hi, sum] : slash64) {
      fnv(hi);
      fnv(sum.low);
      fnv(sum.medium);
      fnv(sum.high);
      fnv(sum.eui64);
    }
    for (const auto& [key, risk] : oui) {
      fnv(key);
      fnv(risk.unique_macs);
      fnv(risk.trackable_macs);
      fnv(risk.mac_slash64_pairs);
      fnv(risk.eui64_addresses);
    }
    return h;
  }
};

// Every query family, on every key the records hold and on misses next
// to them, answers as the brute-force fold does.
void expect_answers_match(const Snapshot& snap, const BruteForce& want) {
  EXPECT_EQ(snap.records(), want.records.size());
  EXPECT_EQ(snap.observations(), want.observations);
  EXPECT_EQ(snap.slash48_count(), want.slash48.size());
  EXPECT_EQ(snap.slash64_count(), want.slash64.size());
  EXPECT_EQ(snap.oui_count(), want.oui.size());
  EXPECT_EQ(snap.digest(), want.digest());

  std::set<net::Ipv6Address> known;
  for (const hitlist::AddressRecord& rec : want.records) {
    known.insert(rec.address);
    const auto got = snap.find(rec.address);
    ASSERT_TRUE(got.has_value()) << rec.address.to_string();
    EXPECT_EQ(got->address, rec.address);
    EXPECT_EQ(got->first_seen, rec.first_seen);
    EXPECT_EQ(got->last_seen, rec.last_seen);
    EXPECT_EQ(got->count, rec.count);
    EXPECT_EQ(got->vantage_mask, rec.vantage_mask);
  }
  const std::uint64_t ones = ~std::uint64_t{0};
  std::vector<net::Ipv6Address> misses = {
      net::Ipv6Address::from_u64(0, 0), net::Ipv6Address::from_u64(ones, ones),
      net::Ipv6Address::from_u64(ones, 0)};
  for (const hitlist::AddressRecord& rec : want.records) {
    const std::uint64_t hi = rec.address.hi64(), lo = rec.address.lo64();
    misses.push_back(net::Ipv6Address::from_u64(hi, lo + 1));
    misses.push_back(net::Ipv6Address::from_u64(hi + 1, lo));
    misses.push_back(net::Ipv6Address::from_u64(hi - 1, lo));
    misses.push_back(net::Ipv6Address::from_u64(hi + (1 << 16), lo));
  }
  for (const net::Ipv6Address& probe : misses) {
    EXPECT_EQ(snap.contains(probe), known.count(probe) == 1)
        << probe.to_string();
  }

  // /48 and /64 answers on every key and on both neighbours of each.
  std::vector<std::uint64_t> his = {0, 1, ones - 1, ones};
  for (const auto& [hi, sum] : want.slash64) {
    his.insert(his.end(), {hi - 1, hi, hi + 1, hi + (1 << 16)});
  }
  for (const std::uint64_t hi : his) {
    const net::Ipv6Address probe = net::Ipv6Address::from_u64(hi, 0x1);
    const auto it48 = want.slash48.find(hi >> 16);
    EXPECT_EQ(snap.slash48_density(probe),
              it48 == want.slash48.end() ? 0 : it48->second)
        << std::hex << hi;
    const auto it64 = want.slash64.find(hi);
    const std::optional<Slash64Summary> got = snap.slash64(probe);
    if (it64 == want.slash64.end()) {
      EXPECT_FALSE(got.has_value()) << std::hex << hi;
    } else {
      ASSERT_TRUE(got.has_value()) << std::hex << hi;
      EXPECT_EQ(*got, it64->second) << std::hex << hi;
      EXPECT_EQ(got->addresses, got->low + got->medium + got->high);
    }
  }

  for (const auto& [oui, risk] : want.oui) {
    const OuiRisk* got = snap.oui_risk(net::Oui(oui));
    ASSERT_NE(got, nullptr) << std::hex << oui;
    EXPECT_EQ(*got, risk) << std::hex << oui;
  }
  EXPECT_EQ(snap.oui_risk(net::Oui(0x123456)), nullptr);
}

TEST(ServeSnapshot, EdgeCorpusFixturesAreWhereTheyClaim) {
  const hitlist::Corpus corpus = edge_corpus();
  const auto records = corpus.records();
  const BruteForce want(records);
  const std::uint64_t ones = ~std::uint64_t{0};
  EXPECT_EQ(want.slash64.at(ones).addresses, 4u);
  EXPECT_EQ(want.slash48.at(ones >> 16), 5u);
  EXPECT_TRUE(std::any_of(
      want.slash64.begin(), want.slash64.end(),
      [](const auto& kv) { return kv.second.addresses == 1; }));
  const Slash64Summary& long_row = want.slash64.at(0x2001'0db8'00bb'0001ull);
  EXPECT_GT(long_row.low, 50u);
  EXPECT_GT(long_row.medium, 50u);
  EXPECT_GT(long_row.high, 50u);
  // At 8 ragged shards, some seam splits a /64 row and some seam falls
  // inside a /48 that spans it.
  bool split64 = false, split48 = false;
  for (std::size_t s = 1; s < 8; ++s) {
    const std::size_t b = util::shard_range(records.size(), s, 8).begin;
    const std::uint64_t before = records[b - 1].address.hi64();
    const std::uint64_t after = records[b].address.hi64();
    split64 = split64 || before == after;
    split48 = split48 || (before != after && before >> 16 == after >> 16);
  }
  EXPECT_TRUE(split64);
  EXPECT_TRUE(split48);
  // Some MAC recurs across /64s (the §5.2 gate has something to pass).
  std::uint64_t trackable = 0;
  for (const auto& [oui, risk] : want.oui) trackable += risk.trackable_macs;
  EXPECT_GT(trackable, 0u);
}

TEST(ServeSnapshot, AnswersMatchBruteForceAtEveryBuildThreadCount) {
  const hitlist::Corpus corpus = edge_corpus();
  const BruteForce want(corpus.records());
  const auto runs = tiered_copy(corpus.records());
  const analysis::ScanSource sources[] = {
      analysis::make_source(corpus), ragged_source(corpus.records()),
      analysis::make_source(*runs)};
  for (const analysis::ScanSource& src : sources) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(threads);
      const auto snap = Snapshot::build(src, 1, 0, threads);
      expect_answers_match(*snap, want);
    }
  }
}

TEST(ServeSnapshot, EmptySourceAnswersNothing) {
  hitlist::Corpus corpus(16);
  corpus.canonicalize();
  const BruteForce want(corpus.records());
  for (const unsigned threads : {1u, 8u}) {
    const auto snap =
        Snapshot::build(analysis::make_source(corpus), 1, 0, threads);
    expect_answers_match(*snap, want);
  }
}

TEST(ServeSnapshot, CorpusAndTieredSourcesAgree) {
  // The same collection through the in-memory corpus and the out-of-core
  // tiered backend serves the brute-force answers at every build thread
  // count.
  core::StudyConfig plain = small_config(11);
  core::Study in_memory(plain);
  in_memory.run(serve_options(0));

  core::StudyConfig spilled = small_config(11);
  spilled.spill.memory_budget_bytes = 1 << 15;
  core::Study tiered(spilled);
  tiered.run(serve_options(0));
  ASSERT_NE(tiered.results().ntp_runs, nullptr);
  ASSERT_GT(tiered.results().ntp_runs->run_count(), 1u);

  const BruteForce want(in_memory.results().ntp.records());
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    expect_answers_match(
        *Snapshot::build(analysis::make_source(in_memory.results().ntp), 1, 0,
                         threads),
        want);
    expect_answers_match(
        *Snapshot::build(analysis::make_source(*tiered.results().ntp_runs), 1,
                         0, threads),
        want);
  }
}

// TSan tier: the lazy digest's first call is raced from 8 readers; every
// reader sees the one folded value.
TEST(ServeSnapshot, FirstDigestCallRacedFromEightReaders) {
  const hitlist::Corpus corpus = edge_corpus();
  const std::uint64_t want = BruteForce(corpus.records()).digest();
  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 0, 2);
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> seen(8, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) {
      }
      seen[r] = snap->digest();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const std::uint64_t d : seen) EXPECT_EQ(d, want);
}

TEST(ServeSnapshot, MemoryIsTwentyFourBytesPerRecordAndRow) {
  const hitlist::Corpus corpus = edge_corpus();
  const BruteForce want(corpus.records());
  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 0, 3);
  EXPECT_EQ(snap->memory_bytes(),
            24 * (want.records.size() + want.slash64.size() + 1) +
                40 * want.oui.size());
}

TEST(QueryServiceTest, RetentionBoundsSnapshots) {
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();
  const analysis::ScanSource src = analysis::make_source(corpus);

  QueryService service(/*retain_epochs=*/3);
  for (int i = 0; i < 5; ++i) {
    service.publish(src, (i + 1) * 100);
  }
  EXPECT_EQ(service.epochs_published(), 5u);
  const auto retained = service.retained();
  ASSERT_EQ(retained.size(), 3u);
  EXPECT_EQ(retained.front()->epoch(), 3u);
  EXPECT_EQ(retained.back()->epoch(), 5u);
  EXPECT_EQ(service.current()->epoch(), 5u);

  // A reader pinning an evicted epoch keeps it alive on its own.
  const auto pinned = retained.front();
  service.set_retain_epochs(1);
  EXPECT_EQ(service.retained().size(), 1u);
  EXPECT_EQ(pinned->epoch(), 3u);
}

TEST(QueryServiceTest, CountersReachRegistry) {
  obs::Registry registry;
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();

  QueryService service;
  service.set_metrics(&registry);
  service.publish(analysis::make_source(corpus), 100);
  service.point(net::Ipv6Address::from_u64(0x1, 0x1));
  service.point(net::Ipv6Address::from_u64(0x1, 0x2));
  service.slash48_density(net::Ipv6Address::from_u64(0x1, 0x1));
  service.count_queries(QueryKind::kOuiRisk, 7);

  std::uint64_t point = 0, density = 0, oui = 0, epochs = 0;
  double epoch_gauge = 0, records_gauge = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name == "v6_serve_queries_total") {
      for (const auto& [k, v] : sample.labels) {
        if (k != "kind") continue;
        if (v == "point") point = sample.counter_value;
        if (v == "density48") density = sample.counter_value;
        if (v == "oui") oui = sample.counter_value;
      }
    }
    if (sample.name == "v6_serve_epochs_published_total") {
      epochs = sample.counter_value;
    }
    if (sample.name == "v6_serve_epoch") epoch_gauge = sample.gauge_value;
    if (sample.name == "v6_serve_snapshot_records") {
      records_gauge = sample.gauge_value;
    }
  }
  EXPECT_EQ(point, 2u);
  EXPECT_EQ(density, 1u);
  EXPECT_EQ(oui, 7u);
  EXPECT_EQ(epochs, 1u);
  EXPECT_EQ(epoch_gauge, 1.0);
  EXPECT_EQ(records_gauge, 1.0);
}

TEST(QueryServiceTest, LatencyHistogramsRecordWallClockPerKind) {
  obs::Registry registry;
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();

  QueryService service;
  service.set_metrics(&registry);
  service.publish(analysis::make_source(corpus), 100);
  service.point(net::Ipv6Address::from_u64(0x1, 0x1));
  service.point(net::Ipv6Address::from_u64(0x1, 0x2));
  service.slash48_density(net::Ipv6Address::from_u64(0x1, 0x1));
  service.slash64_entropy(net::Ipv6Address::from_u64(0x1, 0x1));
  service.oui_risk(net::Oui(0x001122));

  // One v6_serve_latency_us histogram per queried kind, each internally
  // consistent: the bucket counts sum to `count` (every observation lands
  // in some bucket), and the observation count equals the query count.
  // The observed values are wall-clock and carry no determinism promise.
  std::uint64_t families_seen = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name != "v6_serve_latency_us") continue;
    ++families_seen;
    ASSERT_EQ(sample.labels.size(), 1u);
    EXPECT_EQ(sample.labels[0].first, "kind");
    const std::string& kind = sample.labels[0].second;
    const std::uint64_t expected = kind == "point" ? 2u : 1u;
    EXPECT_EQ(sample.histogram.count, expected) << kind;
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t c : sample.histogram.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, sample.histogram.count) << kind;
    EXPECT_EQ(sample.histogram.bounds, serve_latency_buckets_us()) << kind;
    EXPECT_GE(sample.histogram.sum, 0.0) << kind;
  }
  EXPECT_EQ(families_seen, kQueryKinds);

  // The rendered exposition passes the linter's histogram-consistency
  // checks, and the percentile estimator produces values for every kind.
  const std::string prom =
      obs::render(registry.snapshot(), obs::ExpositionFormat::kPrometheus);
  EXPECT_FALSE(obs::lint_prometheus(prom).has_value());
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name != "v6_serve_latency_us") continue;
    const obs::HistogramSummary summary =
        obs::summarize_histogram(sample.histogram);
    EXPECT_GT(summary.count, 0u);
    EXPECT_TRUE(summary.p50.has_value());
    EXPECT_TRUE(summary.p99.has_value());
  }
}

TEST(QueryServiceTest, StudyPublishesEpochsOnTheGrid) {
  core::Study study(small_config());
  QueryService& service = study.query_service();
  study.run(serve_options(6 * util::kDay));
  // 20-day window, 6-day grid: interior epochs at days 6, 12, 18 plus the
  // final window-end epoch.
  EXPECT_EQ(service.epochs_published(), 4u);
  const auto retained = service.retained();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_EQ(retained[0]->as_of(), 6 * util::kDay);
  EXPECT_EQ(retained[3]->as_of(), 20 * util::kDay);
  EXPECT_EQ(retained[3]->records(), study.ntp_size());
  // Epochs only grow and the final one covers the full corpus.
  for (std::size_t i = 1; i < retained.size(); ++i) {
    EXPECT_GE(retained[i]->records(), retained[i - 1]->records());
    EXPECT_GT(retained[i]->epoch(), retained[i - 1]->epoch());
  }
  // The query counters feed the registry the timeline sampler folds, so a
  // pinned-epoch reader tallies appear under v6_serve_queries_total.
  service.count_queries(QueryKind::kPoint, 3);
}

TEST(QueryServiceTest, EpochsBitIdenticalAcrossIngestThreadCounts) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (const unsigned threads : {1u, 4u}) {
    core::StudyConfig config = small_config(23);
    config.collector.threads = threads;
    core::Study study(config);
    study.run(serve_options(5 * util::kDay));
    runs.push_back(epoch_digests(study.query_service()));
    ASSERT_GE(runs.back().size(), 4u);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(QueryServiceTest, EpochsBitIdenticalAcrossBuildThreadCounts) {
  // Study builds its snapshots on config.analysis.threads shards.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (const unsigned threads : {1u, 3u}) {
    core::StudyConfig config = small_config(23);
    config.analysis.threads = threads;
    core::Study study(config);
    study.run(serve_options(5 * util::kDay));
    runs.push_back(epoch_digests(study.query_service()));
    ASSERT_GE(runs.back().size(), 4u);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(QueryServiceTest, EpochsBitIdenticalAcrossSpillBudgets) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1} << 15}) {
    core::StudyConfig config = small_config(29);
    config.spill.memory_budget_bytes = budget;
    core::Study study(config);
    study.run(serve_options(5 * util::kDay));
    runs.push_back(epoch_digests(study.query_service()));
    ASSERT_GE(runs.back().size(), 4u);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// TSan tier: concurrent readers hammer the service while a background
// thread runs live ingest. Covered by the sanitizer CI jobs (test name
// matches the QueryService regex); in a plain build it still asserts the
// determinism contract — per-epoch answers identical at every reader
// thread count.
TEST(QueryServiceTest, ConcurrentReadersSeeConsistentEpochs) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_run;
  for (const unsigned reader_threads : {1u, 2u, 4u}) {
    core::StudyConfig config = small_config(31);
    config.collector.threads = 2;
    core::Study study(config);
    QueryService& service = study.query_service();

    std::atomic<bool> done{false};
    std::thread ingest([&] {
      study.run(serve_options(4 * util::kDay));
      done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    std::vector<std::uint64_t> answered(reader_threads, 0);
    for (unsigned r = 0; r < reader_threads; ++r) {
      readers.emplace_back([&, r] {
        const net::Ipv6Address probe =
            net::Ipv6Address::from_u64(0x2000'0000'0000'0000ull + r, 0x1);
        std::uint64_t local = 0;
        while (!done.load(std::memory_order_acquire)) {
          // The epoch-pinned read path: one atomic load, then any number
          // of queries against the frozen snapshot.
          if (const auto snap = service.current()) {
            local += snap->contains(probe) ? 1 : 0;
            local += snap->slash48_density(probe);
            const auto sum = snap->slash64(probe);
            local += sum ? sum->addresses : 0;
            service.count_queries(QueryKind::kPoint);
            service.count_queries(QueryKind::kDensity48);
            service.count_queries(QueryKind::kEntropy64);
            // Digest stability: the snapshot never mutates under us.
            if (snap->digest() == 0) local += 1;
          }
          local += service.slash48_density(probe);
        }
        answered[r] = local;
      });
    }
    ingest.join();
    for (auto& t : readers) t.join();
    per_run.push_back(epoch_digests(service));
    ASSERT_GE(per_run.back().size(), 5u);
  }
  // Bit-identity across reader thread counts: the readers raced three
  // different schedules against the same ingest; the published epochs
  // must not care.
  EXPECT_EQ(per_run[0], per_run[1]);
  EXPECT_EQ(per_run[0], per_run[2]);
}

}  // namespace
}  // namespace v6::serve
