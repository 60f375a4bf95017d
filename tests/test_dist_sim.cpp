// The distributed-collection invariant, exercised through the in-process
// SimCluster: at ANY worker count, under ANY injected kill/stall plan,
// the merged corpus is byte-identical to the single-process run and no
// observation is lost or double-counted. Plus the Study-level plumbing:
// full-pipeline equality (analysis floats compared bit-for-bit), export
// lints, composition with spill and resume, and the fail-loudly guard.
// Last, the real Coordinator and Workers on threads over a run directory.
#include "dist/sim_cluster.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/study.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "hitlist/checkpoint_io.h"
#include "hitlist/corpus_io.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"

namespace v6::dist {
namespace {

core::StudyConfig small_config(std::uint64_t seed = 19) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.total_sites = 150;
  config.pool_capture_share = 1.0;
  config.world.study_duration = 14 * util::kDay;
  config.backscan_start = 16 * util::kDay;
  config.backscan_duration = util::kDay;
  config.hitlist_campaign.start = util::kDay;
  config.hitlist_campaign.duration = util::kWeek;
  config.caida_campaign.start = util::kDay;
  config.caida_campaign.duration = 5 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.005;
  return config;
}

std::string corpus_bytes(const hitlist::Corpus& corpus) {
  std::ostringstream out(std::ios::binary);
  hitlist::save_corpus(out, corpus);
  return std::move(out).str();
}

// One Study owns the simulation stack; the reference corpus comes from
// its (sharded, single-process) collect; every cluster variant runs over
// the same world/plane/dns.
class DistIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new core::Study(small_config());
    study_->run({.campaigns = false, .backscan = false, .analysis = false});
    reference_ = new std::string(corpus_bytes(study_->results().ntp));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete reference_;
  }

  static DistReport run_cluster(const DistConfig& config,
                                hitlist::Corpus& out,
                                netsim::WorkerFaultSchedule* plan = nullptr) {
    SimCluster cluster(study_->world(), study_->plane(), study_->pool_dns(),
                       study_->config().collector, config, plan);
    const util::SimTime start = study_->config().world.study_start;
    return cluster.run(out, start,
                       start + study_->config().world.study_duration);
  }

  static core::Study* study_;
  static std::string* reference_;
};

core::Study* DistIdentityTest::study_ = nullptr;
std::string* DistIdentityTest::reference_ = nullptr;

// The acceptance matrix: workers {1, 2, 4} x forced kills {0, 1, 2}.
TEST_F(DistIdentityTest, WorkerAndKillMatrixIsByteIdentical) {
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    for (const std::uint32_t kills : {0u, 1u, 2u}) {
      DistConfig config;
      config.workers = workers;
      config.forced_kills = kills;
      config.chunk_interval = 3 * util::kDay;
      hitlist::Corpus merged(1);
      const DistReport report = run_cluster(config, merged);
      EXPECT_EQ(corpus_bytes(merged), *reference_)
          << workers << " workers, " << kills << " kills";
      EXPECT_EQ(report.worker_deaths, std::min(kills, workers))
          << workers << " workers, " << kills << " kills";
      EXPECT_EQ(report.polls_attempted, study_->results().polls_attempted);
      EXPECT_EQ(report.polls_answered, study_->results().polls_answered);
      // Everything said on the wire passes the dependency-free linter.
      EXPECT_FALSE(lint_dist_frames(std::string_view(
                       reinterpret_cast<const char*>(report.frame_log.data()),
                       report.frame_log.size()))
                       .has_value())
          << workers << " workers, " << kills << " kills";
    }
  }
}

// Kill-at-every-chunk-boundary matrix: a worker dying exactly at (and
// just after) each chunk boundary must never lose or double-count — the
// recovery lease replays from the last durable upload.
TEST_F(DistIdentityTest, KillAtEveryChunkBoundaryIsByteIdentical) {
  const util::SimDuration chunk = 3 * util::kDay;
  const util::SimTime start = study_->config().world.study_start;
  const util::SimTime end =
      start + study_->config().world.study_duration;
  for (util::SimTime boundary = start + chunk; boundary < end;
       boundary += chunk) {
    for (const util::SimDuration offset : {0, 3600}) {
      DistConfig config;
      config.workers = 2;
      config.chunk_interval = chunk;
      netsim::WorkerFaultSchedule plan(config.workers);
      plan.set_kill(0, boundary + offset);
      hitlist::Corpus merged(1);
      const DistReport report = run_cluster(config, merged, &plan);
      EXPECT_EQ(corpus_bytes(merged), *reference_)
          << "kill at " << boundary << "+" << offset;
      EXPECT_EQ(report.worker_deaths, 1u);
      EXPECT_GE(report.reassignments, 1u);
    }
  }
}

// Device-range partition sanity: per-vantage health splits across
// ranges and adds up to the single-process totals exactly.
TEST_F(DistIdentityTest, VantageHealthReassembles) {
  DistConfig config;
  config.workers = 4;
  hitlist::Corpus merged(1);
  const DistReport report = run_cluster(config, merged);
  const auto& reference = study_->results().vantage_health;
  ASSERT_EQ(report.vantage_health.size(), reference.size());
  for (std::size_t v = 0; v < reference.size(); ++v) {
    EXPECT_EQ(report.vantage_health[v].polls, reference[v].polls) << v;
    EXPECT_EQ(report.vantage_health[v].answered, reference[v].answered) << v;
    EXPECT_EQ(report.vantage_health[v].lost_to_fault,
              reference[v].lost_to_fault)
        << v;
  }
}

std::uint64_t pool_resolutions(const core::Study& study) {
  return study.metrics_registry().snapshot().counter_sum(
      "v6_pool_resolutions_total");
}

// Device ranges split the work instead of replaying it: a healthy fleet
// resolves exactly as many pool lookups as the single-process collect at
// any worker count, and a kill adds only the dead lease's replay.
TEST_F(DistIdentityTest, TotalWorkIsFlatInWorkerCount) {
  std::uint64_t single = 0;
  {
    const std::uint64_t before = pool_resolutions(*study_);
    hitlist::PassiveCollector collector(study_->world(), study_->plane(),
                                        study_->pool_dns(),
                                        study_->config().collector);
    hitlist::Corpus corpus(1);
    const util::SimTime start = study_->config().world.study_start;
    collector.run(corpus, start,
                  start + study_->config().world.study_duration);
    single = pool_resolutions(*study_) - before;
  }
  ASSERT_GT(single, 0u);
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t kills : {0u, 1u}) {
      DistConfig config;
      config.workers = workers;
      config.forced_kills = kills;
      config.chunk_interval = 3 * util::kDay;
      hitlist::Corpus merged(1);
      const std::uint64_t before = pool_resolutions(*study_);
      const DistReport report = run_cluster(config, merged);
      const std::uint64_t work = pool_resolutions(*study_) - before;
      EXPECT_EQ(corpus_bytes(merged), *reference_);
      if (kills == 0) {
        EXPECT_EQ(work, single) << workers << " workers";
        EXPECT_EQ(report.replayed_chunks, 0u);
      } else {
        // The replacement replays one range's checkpointed prefix and
        // redoes its lost chunk: less than that range's whole window.
        EXPECT_GT(work, single) << workers << " workers";
        EXPECT_LT(work - single, single) << workers << " workers";
      }
    }
  }
}

// A stall longer than the heartbeat timeout gets its lease revoked; when
// the zombie wakes, its stale-epoch upload must bounce (no double count).
TEST_F(DistIdentityTest, StalledZombieUploadsAreFencedOff) {
  DistConfig config;
  config.workers = 2;
  config.chunk_interval = 2 * util::kDay;
  config.heartbeat_timeout = util::kDay;
  netsim::WorkerFaultSchedule plan(config.workers);
  plan.add_stall(0, 3 * util::kDay, 6 * util::kDay);  // 3d >> 1d timeout
  hitlist::Corpus merged(1);
  const DistReport report = run_cluster(config, merged, &plan);
  EXPECT_EQ(corpus_bytes(merged), *reference_);
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_GE(report.stale_uploads_rejected, 1u);
  EXPECT_GE(report.reassignments, 1u);
}

// A seeded stochastic fault plan (kills + stalls + slowdowns) still
// converges to the identical corpus; determinism means the report is a
// pure function of the config.
TEST_F(DistIdentityTest, SeededFaultPlanIsDeterministicAndIdentical) {
  DistConfig config;
  config.workers = 3;
  config.chunk_interval = 2 * util::kDay;
  config.worker_faults.seed = 5;
  config.worker_faults.kills_per_worker = 0.7;
  config.worker_faults.stalls_per_worker = 1.5;
  config.worker_faults.mean_stall = 8 * util::kHour;
  config.worker_faults.slows_per_worker = 1.0;

  hitlist::Corpus first(1);
  const DistReport a = run_cluster(config, first);
  EXPECT_EQ(corpus_bytes(first), *reference_);

  hitlist::Corpus second(1);
  const DistReport b = run_cluster(config, second);
  EXPECT_EQ(a.worker_deaths, b.worker_deaths);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.leases_granted, b.leases_granted);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.frame_log, b.frame_log);
}

std::uint64_t vantage_counter(const obs::Snapshot& snapshot,
                              std::string_view family,
                              std::uint32_t vantage) {
  const obs::Labels labels = {{"vantage", std::to_string(vantage)}};
  for (const auto& s : snapshot.samples) {
    if (s.name == family && s.labels == labels) return s.counter_value;
  }
  return 0;
}

// The cluster observability identity: the deterministic counter families
// aggregated from the per-lease kObsReport uploads equal the
// single-process collector totals bit-for-bit at any worker count under
// faults — only the completing lease per range reports, so reassignment
// never double-counts.
TEST_F(DistIdentityTest, ClusterObsCountersMatchSingleProcessBitForBit) {
  const auto& reference = study_->results();
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    DistConfig config;
    config.workers = workers;
    config.forced_kills = workers / 2;
    config.chunk_interval = 3 * util::kDay;
    hitlist::Corpus merged(1);
    const DistReport report = run_cluster(config, merged);

    // One report per range (ranges default to the worker count), and
    // the merged counter families reassemble the single-process totals.
    EXPECT_EQ(report.cluster_obs.report_count(), workers);
    const obs::Snapshot snap = report.cluster_obs.cluster_snapshot();
    EXPECT_EQ(snap.counter_sum("v6_collector_polls_total"),
              reference.polls_attempted)
        << workers << " workers";
    EXPECT_EQ(snap.counter_sum("v6_collector_answered_total"),
              reference.polls_answered)
        << workers << " workers";
    for (std::size_t v = 0; v < reference.vantage_health.size(); ++v) {
      const auto id = static_cast<std::uint32_t>(v);
      EXPECT_EQ(vantage_counter(snap, "v6_collector_vantage_polls_total", id),
                reference.vantage_health[v].polls)
          << workers << " workers, vantage " << v;
      EXPECT_EQ(
          vantage_counter(snap, "v6_collector_vantage_answered_total", id),
          reference.vantage_health[v].answered)
          << workers << " workers, vantage " << v;
      EXPECT_EQ(
          vantage_counter(snap, "v6_collector_vantage_fault_lost_total", id),
          reference.vantage_health[v].lost_to_fault)
          << workers << " workers, vantage " << v;
    }

    // The cluster exposition renders deterministically and lints clean.
    const std::string prom =
        obs::render(snap, obs::ExpositionFormat::kPrometheus);
    EXPECT_FALSE(obs::lint_prometheus(prom).has_value());

    // The merged trace carries one pid lane per worker report and passes
    // the trace linter.
    const std::string trace = report.cluster_obs.render_trace();
    EXPECT_FALSE(obs::lint_trace_events(trace).has_value());
    std::size_t lanes = 0;
    for (std::size_t at = trace.find("\"process_name\"");
         at != std::string::npos;
         at = trace.find("\"process_name\"", at + 1)) {
      ++lanes;
    }
    EXPECT_EQ(lanes, workers) << workers << " workers";

    // Every line of the merged cluster timeline is valid JSON.
    const std::string cluster_tl = report.cluster_obs.render_cluster_timeline();
    EXPECT_FALSE(cluster_tl.empty());
    std::size_t start = 0;
    while (start < cluster_tl.size()) {
      std::size_t nl = cluster_tl.find('\n', start);
      if (nl == std::string::npos) nl = cluster_tl.size();
      EXPECT_FALSE(obs::parse_json(cluster_tl.substr(start, nl - start))
                       .error.has_value());
      start = nl + 1;
    }
  }
}

// Under a seeded stochastic fault plan the aggregated cluster counters
// still reassemble the single-process totals: aborted leases discard
// their partial registries, the completing lease's report carries the
// checkpoint-restored cumulative state.
TEST_F(DistIdentityTest, ClusterObsSurvivesSeededFaultPlan) {
  DistConfig config;
  config.workers = 3;
  config.chunk_interval = 2 * util::kDay;
  config.worker_faults.seed = 5;
  config.worker_faults.kills_per_worker = 0.7;
  config.worker_faults.stalls_per_worker = 1.5;
  config.worker_faults.mean_stall = 8 * util::kHour;
  hitlist::Corpus merged(1);
  const DistReport report = run_cluster(config, merged);
  const obs::Snapshot snap = report.cluster_obs.cluster_snapshot();
  EXPECT_EQ(snap.counter_sum("v6_collector_polls_total"),
            study_->results().polls_attempted);
  EXPECT_EQ(snap.counter_sum("v6_collector_answered_total"),
            study_->results().polls_answered);
}

// Identity gate for the dist layer's barrier work: 4 workers, one forced
// kill, 2-day chunks. Pins the merged corpus, every DistReport counter and
// each cluster timeline window's deterministic collector families
// (counter deltas and per-vantage series), and the frame log. A lease's
// registry holds only collector counters, so its kObsReport windows carry
// no wall-clock histograms and the frame log is deterministic too.
TEST_F(DistIdentityTest, PinnedDigests) {
  const auto fnv1a = [](std::uint64_t h, std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  };
  const auto hex = [](std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;

  DistConfig config;
  config.workers = 4;
  config.forced_kills = 1;
  config.chunk_interval = 2 * util::kDay;
  hitlist::Corpus merged(1);
  const DistReport report = run_cluster(config, merged);

  EXPECT_EQ(hex(fnv1a(kOffset, corpus_bytes(merged))), "0x23cbc28191fec949");

  std::uint64_t health = kOffset;
  for (const hitlist::VantageHealthStats& v : report.vantage_health) {
    for (const std::uint64_t field :
         {v.polls, v.answered, v.lost_to_fault, v.retries, v.steered_polls}) {
      health = fnv1a(health, std::to_string(field) + ",");
    }
  }
  const std::string counters =
      "workers=" + std::to_string(report.workers) +
      " ranges=" + std::to_string(report.ranges) +
      " leases=" + std::to_string(report.leases_granted) +
      " uploads=" + std::to_string(report.checkpoints_uploaded) +
      " heartbeats=" + std::to_string(report.heartbeats) +
      " deaths=" + std::to_string(report.worker_deaths) +
      " timeouts=" + std::to_string(report.timeouts) +
      " reassignments=" + std::to_string(report.reassignments) +
      " stale=" + std::to_string(report.stale_uploads_rejected) +
      " replayed=" + std::to_string(report.replayed_chunks) +
      " recovery=" + std::to_string(report.recovery_latency_total) +
      " finished=" + std::to_string(report.finished_at) +
      " polls=" + std::to_string(report.polls_attempted) +
      " answered=" + std::to_string(report.polls_answered) +
      " health=" + hex(health);
  EXPECT_EQ(counters,
            "workers=5 ranges=4 leases=5 uploads=24 heartbeats=24 deaths=1 "
            "timeouts=1 reassignments=1 stale=0 replayed=3 recovery=93600 "
            "finished=1454400 polls=219860 answered=215453 "
            "health=0x22803f3f946b7ae9");

  std::uint64_t windows = kOffset;
  std::size_t window_count = 0;
  for (const obs::ClusterWindow& cw : report.cluster_obs.cluster_timeline()) {
    const obs::WindowRecord& w = cw.window;
    std::string line = std::to_string(cw.worker) + " " +
                       std::to_string(w.begin) + " " + std::to_string(w.end) +
                       " " + w.stage;
    for (const obs::WindowCounter& c : w.counters) {
      if (!c.name.starts_with("v6_collector_")) continue;
      line += " " + c.name;
      for (const auto& [key, value] : c.labels) line += "," + key + "=" + value;
      line += "=" + std::to_string(c.delta);
    }
    for (const obs::VantageWindow& v : w.vantages) {
      line += " v" + std::to_string(v.vantage) + ":" +
              std::to_string(v.polls) + "/" + std::to_string(v.answered) +
              "/" + std::to_string(v.fault_lost) + "/" +
              std::to_string(v.records);
    }
    windows = fnv1a(windows, line + "\n");
    ++window_count;
  }
  EXPECT_EQ(window_count, 25u);
  EXPECT_EQ(hex(windows), "0xfe719b2aa560745e");

  EXPECT_EQ(hex(fnv1a(kOffset, std::string_view(reinterpret_cast<const char*>(
                                                    report.frame_log.data()),
                                                report.frame_log.size()))),
            "0xd0d73f053fb84c1e");
}

TEST_F(DistIdentityTest, RespawnDisabledFailsLoudlyWhenFleetDies) {
  DistConfig config;
  config.workers = 1;
  config.forced_kills = 1;
  config.respawn = false;
  hitlist::Corpus merged(1);
  EXPECT_THROW(run_cluster(config, merged), std::runtime_error);
}

// Every wire poll reaches the lease collector's own server and takes the
// plane's pure-hash verdict, so wire-fidelity ranges (one forced kill
// included) merge to the single-process wire corpus byte for byte.
TEST(DistCluster, WireFidelityMatchesSingleProcess) {
  core::StudyConfig config = small_config();
  config.collector.wire_fidelity = true;
  core::Study study(config);
  const core::StudyResults& single =
      study.run({.campaigns = false, .backscan = false, .analysis = false});

  DistConfig dist;
  dist.workers = 3;
  dist.forced_kills = 1;
  dist.chunk_interval = 4 * util::kDay;
  SimCluster cluster(study.world(), study.plane(), study.pool_dns(),
                     config.collector, dist);
  hitlist::Corpus merged(1);
  const util::SimTime start = config.world.study_start;
  const DistReport report =
      cluster.run(merged, start, start + config.world.study_duration);
  EXPECT_EQ(corpus_bytes(merged), corpus_bytes(single.ntp));
  EXPECT_EQ(report.polls_attempted, single.polls_attempted);
  EXPECT_EQ(report.polls_answered, single.polls_answered);
  EXPECT_LT(report.polls_answered, report.polls_attempted);
  EXPECT_EQ(report.worker_deaths, 1u);
}

// --- Study-level plumbing --------------------------------------------------

TEST(DistStudy, FullPipelineMatchesSingleProcessBitForBit) {
  const core::StudyConfig config = small_config(23);

  core::Study single(config);
  core::RunOptions base;
  base.sample_interval = 2 * util::kDay;
  const core::StudyResults& rs = single.run(std::move(base));

  core::Study distributed(config);
  core::RunOptions options;
  options.sample_interval = 2 * util::kDay;
  options.distributed = DistConfig{};
  options.distributed->workers = 3;
  options.distributed->forced_kills = 1;
  options.distributed->chunk_interval = 4 * util::kDay;
  const core::StudyResults& rd = distributed.run(std::move(options));

  // Saved corpus snapshots byte-identical through Study::save_ntp.
  std::ostringstream a(std::ios::binary), b(std::ios::binary);
  single.save_ntp(a);
  distributed.save_ntp(b);
  EXPECT_EQ(a.str(), b.str());

  // Analysis floats bit-identical (NaN-proof comparison via bit_cast).
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                rs.analysis.address_lifetimes.fraction_once),
            std::bit_cast<std::uint64_t>(
                rd.analysis.address_lifetimes.fraction_once));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                rs.analysis.address_lifetimes.fraction_month),
            std::bit_cast<std::uint64_t>(
                rd.analysis.address_lifetimes.fraction_month));
  ASSERT_EQ(rs.analysis.table1.size(), rd.analysis.table1.size());
  EXPECT_EQ(rs.analysis.table1.front().addresses,
            rd.analysis.table1.front().addresses);
  EXPECT_EQ(rs.analysis.table1.front().slash48s,
            rd.analysis.table1.front().slash48s);
  EXPECT_EQ(rs.polls_attempted, rd.polls_attempted);
  EXPECT_EQ(rs.polls_answered, rd.polls_answered);

  // The recovery is observable: dist counters present, and both the
  // Prometheus and timeline exports pass their linters.
  ASSERT_TRUE(rd.dist.has_value());
  EXPECT_EQ(rd.dist->worker_deaths, 1u);
  const std::string prom =
      obs::render(rd.metrics, obs::ExpositionFormat::kPrometheus);
  EXPECT_FALSE(obs::lint_prometheus(prom).has_value());
  EXPECT_NE(prom.find("v6_dist_worker_deaths_total"), std::string::npos);
  EXPECT_NE(prom.find("v6_dist_leases_total"), std::string::npos);
  EXPECT_NE(prom.find("v6_dist_reassignments_total"), std::string::npos);
  const std::string timeline =
      obs::render_timeline(rd.timeline, obs::TimelineFormat::kJsonl);
  EXPECT_FALSE(obs::lint_timeline_jsonl(timeline).has_value());
}

std::string saved_ntp(const core::Study& study) {
  std::ostringstream out(std::ios::binary);
  study.save_ntp(out);
  return std::move(out).str();
}

core::RunOptions collect_only() {
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  return options;
}

DistConfig three_workers_one_kill() {
  DistConfig config;
  config.workers = 3;
  config.forced_kills = 1;
  config.chunk_interval = 4 * util::kDay;
  return config;
}

// Out-of-core distributed collection: each range's corpus spills as one
// run, and the merged stream saves byte-identically to the in-memory
// single-process corpus.
TEST(DistStudy, SpillComposesBitForBit) {
  const core::StudyConfig config = small_config(23);
  core::Study single(config);
  const core::StudyResults& rs = single.run(collect_only());

  core::StudyConfig spilled_config = config;
  spilled_config.spill.memory_budget_bytes = 1;
  core::Study spilled(spilled_config);
  core::RunOptions options = collect_only();
  options.distributed = three_workers_one_kill();
  const core::StudyResults& rd = spilled.run(std::move(options));

  ASSERT_NE(rd.ntp_runs, nullptr);
  EXPECT_EQ(rd.ntp_runs->run_count(), 3u);  // one run per device range
  EXPECT_EQ(saved_ntp(spilled), saved_ntp(single));
  EXPECT_EQ(rd.polls_attempted, rs.polls_attempted);
  EXPECT_EQ(rd.polls_answered, rs.polls_answered);
}

// A crashed single-process collection resumes under distribution: every
// range replays to the checkpoint and records the rest, in memory and
// out of core, bit-identical to the uninterrupted run.
TEST(DistStudy, ResumeFromCheckpointComposes) {
  core::StudyConfig config = small_config(23);
  config.collector.checkpoint_interval = 5 * util::kDay;

  core::Study uninterrupted(config);
  std::vector<hitlist::CollectionCheckpoint> checkpoints;
  core::RunOptions with_sink = collect_only();
  with_sink.checkpoint_sink = [&](const hitlist::CheckpointState& state,
                                  const hitlist::Corpus& corpus) {
    hitlist::Corpus copy(std::max<std::size_t>(corpus.size(), 1));
    copy.merge(corpus);
    checkpoints.push_back({state, std::move(copy)});
  };
  const core::StudyResults& ru = uninterrupted.run(std::move(with_sink));
  ASSERT_FALSE(checkpoints.empty());
  const std::string expected = saved_ntp(uninterrupted);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
    core::StudyConfig resumed_config = config;
    resumed_config.spill.memory_budget_bytes = budget;
    core::Study resumed(resumed_config);
    core::RunOptions options = collect_only();
    // The first checkpoint (day 5), so the forced kill lands mid-lease.
    hitlist::CollectionCheckpoint& ckpt = checkpoints.front();
    hitlist::Corpus copy(std::max<std::size_t>(ckpt.corpus.size(), 1));
    copy.merge(ckpt.corpus);
    options.resume_from = hitlist::CollectionCheckpoint{ckpt.state,
                                                        std::move(copy)};
    options.distributed = three_workers_one_kill();
    const core::StudyResults& rr = resumed.run(std::move(options));
    EXPECT_EQ(saved_ntp(resumed), expected) << "budget " << budget;
    EXPECT_EQ(rr.dist->worker_deaths, 1u) << "budget " << budget;
    EXPECT_EQ(rr.polls_attempted, ru.polls_attempted) << "budget " << budget;
    EXPECT_EQ(rr.polls_answered, ru.polls_answered) << "budget " << budget;
    ASSERT_EQ(rr.vantage_health.size(), ru.vantage_health.size());
    for (std::size_t v = 0; v < ru.vantage_health.size(); ++v) {
      EXPECT_EQ(rr.vantage_health[v].polls, ru.vantage_health[v].polls) << v;
    }
  }
}

TEST(DistStudy, IncompatibleKnobsFailLoudly) {
  core::Study study(small_config());
  core::RunOptions options;
  options.distributed = DistConfig{};
  options.checkpoint_sink = [](const hitlist::CheckpointState&,
                               const hitlist::Corpus&) {};
  EXPECT_THROW(study.run(std::move(options)), std::invalid_argument);

  // Rejected before any work, so stage 1 is still to do: a plain run()
  // afterwards collects.
  const core::StudyResults& r = study.run(collect_only());
  EXPECT_GT(study.ntp_size(), 0u);
  EXPECT_GT(r.polls_attempted, 0u);
  EXPECT_FALSE(r.dist.has_value());
}

// RunOptions::distributed composes with collector.wire_fidelity: the
// distributed wire corpus saves byte-identically to the single-process
// wire corpus, which equals the fast path's.
TEST(DistStudy, WireFidelityComposesBitForBit) {
  core::StudyConfig config = small_config(23);
  config.collector.wire_fidelity = true;
  core::Study single(config);
  const core::StudyResults& rs = single.run(collect_only());

  core::Study distributed(config);
  core::RunOptions options = collect_only();
  options.distributed = three_workers_one_kill();
  const core::StudyResults& rd = distributed.run(std::move(options));
  ASSERT_TRUE(rd.dist.has_value());
  EXPECT_EQ(rd.dist->worker_deaths, 1u);
  EXPECT_EQ(saved_ntp(distributed), saved_ntp(single));
  EXPECT_EQ(rd.polls_attempted, rs.polls_attempted);
  EXPECT_EQ(rd.polls_answered, rs.polls_answered);

  core::Study fast(small_config(23));
  fast.run(collect_only());
  EXPECT_EQ(saved_ntp(fast), saved_ntp(single));
}

// --- the real multi-process path, on threads -------------------------------

// A Coordinator and two Workers over a run directory, each worker with its
// own Study (its own world, data plane and pool DNS, as a separate process
// would have). The merged corpus and the poll totals equal the
// single-process collect.
TEST(DistRealFleet, ThreadedWorkersMatchSingleProcess) {
  core::StudyConfig config = small_config();
  core::Study single(config);
  const core::StudyResults& rs = single.run(collect_only());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("v6-real-fleet-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  constexpr std::uint32_t kWorkers = 2;
  CoordinatorConfig coordinator_config;
  coordinator_config.dir = dir.string();
  coordinator_config.workers = kWorkers;
  coordinator_config.devices = single.world().devices().size();
  coordinator_config.chunk_interval = 3 * util::kDay;
  // Generous: a sanitizer build must never see a live worker as dead.
  coordinator_config.heartbeat_timeout_ms = 120000;
  coordinator_config.max_wall_ms = 300000;

  config.collector.threads = util::Parallelism::serial();
  std::vector<std::unique_ptr<core::Study>> nodes;
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> worker_errors(kWorkers);
  for (std::uint32_t id = 0; id < kWorkers; ++id) {
    nodes.push_back(std::make_unique<core::Study>(config));
  }
  for (std::uint32_t id = 0; id < kWorkers; ++id) {
    core::Study& node = *nodes[id];
    NodeEnv env;
    env.world = &node.world();
    env.plane = &node.plane();
    env.dns = &node.pool_dns();
    env.collector = node.config().collector;
    env.start = config.world.study_start;
    env.end = env.start + config.world.study_duration;
    WorkerConfig worker_config;
    worker_config.dir = dir.string();
    worker_config.id = id;
    worker_config.max_idle_ms = 300000;
    workers.emplace_back([env, worker_config, &worker_errors, id] {
      try {
        Worker(env, worker_config).run();
      } catch (...) {
        worker_errors[id] = std::current_exception();
      }
    });
  }

  CoordinatorResult result;
  std::exception_ptr coordinator_error;
  try {
    const util::SimTime start = config.world.study_start;
    result = Coordinator(coordinator_config)
                 .run(start, start + config.world.study_duration);
  } catch (...) {
    coordinator_error = std::current_exception();
    // Release the workers, which would otherwise wait out their idle
    // deadline (a seq far past any the coordinator sent, so no mailbox
    // file name collides).
    for (std::uint32_t id = 0; id < kWorkers; ++id) {
      Mailbox(dir.string() + "/to-worker-" + std::to_string(id))
          .post(Frame{FrameType::kShutdown, kCoordinatorId, kNoLease, 0,
                      1u << 20, 0, {}});
    }
  }
  for (std::thread& worker : workers) worker.join();
  if (coordinator_error) std::rethrow_exception(coordinator_error);
  for (const std::exception_ptr& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }

  EXPECT_EQ(corpus_bytes(result.corpus), corpus_bytes(rs.ntp));
  EXPECT_EQ(result.polls_attempted, rs.polls_attempted);
  EXPECT_EQ(result.polls_answered, rs.polls_answered);
  EXPECT_EQ(result.leases_granted, kWorkers);
  EXPECT_EQ(result.worker_deaths, 0u);
  EXPECT_EQ(result.cluster_obs.report_count(), kWorkers);
  const std::vector<std::uint8_t> frames =
      read_file(dir.string() + "/frames.log");
  EXPECT_FALSE(lint_dist_frames(
                   std::string_view(
                       reinterpret_cast<const char*>(frames.data()),
                       frames.size()))
                   .has_value());
  std::filesystem::remove_all(dir);
}

// --- the real Coordinator against a scripted worker -----------------------

// Worker 0 driven frame by frame from a test, with no collector behind it:
// it posts what the script says and waits for what the script expects.
class ScriptedWorker {
 public:
  explicit ScriptedWorker(std::string dir)
      : dir_(std::move(dir)),
        inbox_(dir_ + "/to-worker-0"),
        outbox_(dir_ + "/to-coordinator") {}

  void post(FrameType type, std::uint32_t lease, std::uint32_t epoch,
            std::vector<std::uint8_t> payload = {}) {
    outbox_.post(Frame{type, 0, lease, epoch, seq_++, 0, std::move(payload)});
  }

  // The next frame of `type`, skipping others; throws on a shutdown it did
  // not wait for, or after a minute.
  Frame await(FrameType type) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (std::chrono::steady_clock::now() < deadline) {
      for (Frame& frame : inbox_.drain()) pending_.push_back(std::move(frame));
      while (!pending_.empty()) {
        Frame frame = std::move(pending_.front());
        pending_.erase(pending_.begin());
        if (frame.type == type) return frame;
        if (frame.type == FrameType::kShutdown) {
          throw std::runtime_error("scripted worker: early shutdown");
        }
      }
      std::this_thread::sleep_for(kMailboxPollInterval);
    }
    throw std::runtime_error("scripted worker: no frame in time");
  }

  // Finishes `grant`'s lease with an empty final checkpoint.
  void complete(const Frame& grant) {
    const LeaseGrant lease = decode_lease_grant(grant.payload);
    hitlist::CheckpointState state = hitlist::CheckpointState::fresh(
        static_cast<util::SimTime>(lease.window_start),
        static_cast<util::SimTime>(lease.window_end));
    state.resume_from = state.window_end;
    Artifact artifact;
    artifact.path = checkpoint_path(grant.lease, grant.epoch, lease.window_end);
    artifact.bytes = hitlist::save_checkpoint_file(
        dir_ + "/" + artifact.path, state, hitlist::Corpus(1));
    post(FrameType::kComplete, grant.lease, grant.epoch,
         encode_artifact(artifact));
  }

 private:
  std::string dir_;
  Mailbox inbox_;
  Mailbox outbox_;
  std::uint64_t seq_ = 0;
  std::vector<Frame> pending_;
};

// Runs a one-worker Coordinator over 8 devices and four days against
// `script` on a thread. A coordinator failure shuts the worker down and is
// rethrown, as is a script failure.
CoordinatorResult run_scripted(
    const std::string& name, std::uint32_t heartbeat_timeout_ms,
    const std::function<void(ScriptedWorker&)>& script) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  CoordinatorConfig config;
  config.dir = dir.string();
  config.workers = 1;
  config.devices = 8;
  config.chunk_interval = util::kDay;
  config.heartbeat_timeout_ms = heartbeat_timeout_ms;
  config.max_wall_ms = 20000;

  std::exception_ptr worker_error;
  std::thread worker([&] {
    try {
      ScriptedWorker scripted(dir.string());
      script(scripted);
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  CoordinatorResult result;
  std::exception_ptr coordinator_error;
  try {
    result = Coordinator(config).run(0, 4 * util::kDay);
  } catch (...) {
    coordinator_error = std::current_exception();
    Mailbox(dir.string() + "/to-worker-0")
        .post(Frame{FrameType::kShutdown, kCoordinatorId, kNoLease, 0,
                    1u << 20, 0, {}});
  }
  worker.join();
  if (coordinator_error) std::rethrow_exception(coordinator_error);
  if (worker_error) std::rethrow_exception(worker_error);
  // Everything said on the wire, for the caller to lint.
  result.frame_log = read_file(dir.string() + "/frames.log");
  std::filesystem::remove_all(dir);
  return result;
}

// A worker silent past the heartbeat timeout is declared dead and its
// lease revoked; when it wakes and reports the revoked lease, the report
// bounces but the worker is re-admitted, gets the lease back under the
// next epoch and finishes the run.
TEST(DistRealFleet, StalledWorkerRejoinsAfterRevoke) {
  Frame first;
  Frame revoke;
  Frame second;
  const CoordinatorResult result =
      run_scripted("v6-rejoin", 300, [&](ScriptedWorker& worker) {
        worker.post(FrameType::kHello, kNoLease, 0);
        first = worker.await(FrameType::kLeaseGrant);
        revoke = worker.await(FrameType::kRevoke);
        Artifact stale;
        stale.path = checkpoint_path(first.lease, first.epoch, util::kDay);
        worker.post(FrameType::kCheckpointUpload, first.lease, first.epoch,
                    encode_artifact(stale));
        second = worker.await(FrameType::kLeaseGrant);
        worker.complete(second);
        worker.await(FrameType::kShutdown);
      });
  EXPECT_EQ(first.epoch, 0u);
  EXPECT_EQ(revoke.epoch, 0u);  // names the revoked epoch
  EXPECT_EQ(second.lease, first.lease);
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(result.leases_granted, 2u);
  EXPECT_EQ(result.worker_deaths, 1u);
  EXPECT_EQ(result.reassignments, 1u);
  EXPECT_EQ(result.stale_uploads_rejected, 1u);
  EXPECT_EQ(result.corpus.size(), 0u);
  EXPECT_FALSE(lint_dist_frames(std::string_view(
                   reinterpret_cast<const char*>(result.frame_log.data()),
                   result.frame_log.size()))
                   .has_value());
}

// A CRC-valid upload whose artifact payload is garbage is rejected and
// counted like a stale one; the run still completes.
TEST(DistRealFleet, MalformedArtifactIsRejectedNotFatal) {
  const CoordinatorResult result =
      run_scripted("v6-malformed", 120000, [](ScriptedWorker& worker) {
        worker.post(FrameType::kHello, kNoLease, 0);
        const Frame grant = worker.await(FrameType::kLeaseGrant);
        worker.post(FrameType::kCheckpointUpload, grant.lease, grant.epoch,
                    {0xff, 0xff, 0xff});
        worker.complete(grant);
        worker.await(FrameType::kShutdown);
      });
  EXPECT_EQ(result.leases_granted, 1u);
  EXPECT_EQ(result.checkpoints_uploaded, 0u);
  EXPECT_EQ(result.stale_uploads_rejected, 1u);
  EXPECT_EQ(result.worker_deaths, 0u);
}

}  // namespace
}  // namespace v6::dist
