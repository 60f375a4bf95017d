// The distributed-collection invariant, exercised through the in-process
// SimCluster: at ANY worker count, under ANY injected kill/stall plan,
// the merged corpus is byte-identical to the single-process run and no
// observation is lost or double-counted. Plus the Study-level plumbing:
// full-pipeline equality (analysis floats compared bit-for-bit), export
// lints, composition with spill and resume, and the fail-loudly guard.
#include "dist/sim_cluster.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/study.h"
#include "hitlist/corpus_io.h"
#include "obs/exposition.h"
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
    study_->collect();
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
      EXPECT_FALSE(
          obs::lint_json(cluster_tl.substr(start, nl - start)).has_value());
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

TEST_F(DistIdentityTest, RespawnDisabledFailsLoudlyWhenFleetDies) {
  DistConfig config;
  config.workers = 1;
  config.forced_kills = 1;
  config.respawn = false;
  hitlist::Corpus merged(1);
  EXPECT_THROW(run_cluster(config, merged), std::runtime_error);
}

TEST(DistCluster, WireFidelityIsRejected) {
  core::StudyConfig config = small_config();
  core::Study study(config);
  hitlist::CollectorConfig collector = config.collector;
  collector.wire_fidelity = true;
  EXPECT_THROW(SimCluster(study.world(), study.plane(), study.pool_dns(),
                          collector, DistConfig{}),
               std::invalid_argument);
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
}

}  // namespace
}  // namespace v6::dist
