// The end-to-end study: the paper's whole pipeline behind one API.
//
//   StudyConfig cfg;                 // scale knobs, seeds, stage toggles
//   Study study(cfg);
//   const StudyResults& r = study.run();   // all four stages
//
// run() takes a RunOptions to toggle stages, resume stage 1 from a
// checkpoint, or receive checkpoint snapshots — one entry point, one
// result. Stages are idempotent: a second run() re-runs nothing, so a
// caller can drive the stages one run() at a time, e.g.
// run({.campaigns = false, .backscan = false, .analysis = false}).
//
// Observability: every Study owns an obs::Registry. All layers (data
// plane, pool DNS, collector, scanners, analysis engine) report into it,
// and run() closes by snapshotting the registry into
// StudyResults::metrics — sim-time-stamped stage spans included. Metrics
// never perturb results: the bit-identity tests pass with metrics on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/address_categories.h"
#include "analysis/as_entropy.h"
#include "analysis/dataset_compare.h"
#include "analysis/lifetimes.h"
#include "analysis/parallel_scan.h"
#include "dist/sim_cluster.h"
#include "hitlist/campaigns.h"
#include "hitlist/checkpoint_io.h"
#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"
#include "netsim/data_plane.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/timeline.h"
#include "scan/backscanner.h"
#include "serve/query_service.h"
#include "sim/world.h"

namespace v6::core {

struct StudyConfig {
  sim::WorldConfig world;
  netsim::DataPlaneConfig plane;
  hitlist::CollectorConfig collector;
  // Share of pool queries that land on our 27 servers (the pool has
  // thousands; the study sees a sample of every client's polls).
  double pool_capture_share = 0.03;

  // Vantage fault injection over the study window. Inactive by default;
  // when active the same seeded plan drives the data plane (dropped
  // datagrams), the pool's health monitoring (steering), and the
  // per-vantage degradation stats in StudyResults.
  netsim::FaultPlanConfig faults;

  // Backscanning (§3): one week, from a handful of the vantage servers,
  // months after the main window (the paper ran it in January 2023).
  std::uint8_t backscan_vantages = 5;
  util::SimTime backscan_start = 345 * util::kDay;
  util::SimDuration backscan_duration = util::kWeek;
  scan::BackscanConfig backscan;

  hitlist::HitlistCampaignConfig hitlist_campaign;
  hitlist::CaidaCampaignConfig caida_campaign;

  // Out-of-core collection (stage 1): when spill.memory_budget_bytes > 0
  // the NTP corpus is kept in a TieredCorpus — collector shards flush to
  // sorted on-disk runs at deterministic merge barriers whenever their
  // combined heap crosses the budget, and every analysis streams the
  // k-way-merged runs instead of an in-memory table. Saved corpus bytes
  // and analysis floats are bit-identical to the in-memory path at any
  // thread count and any budget. Resuming from a checkpoint
  // (RunOptions::resume_from) honors the budget too: the checkpointed
  // snapshot seeds the TieredCorpus as its first spilled run and the
  // resumed tail flushes through the same deterministic barriers, so the
  // merged output is bit-identical to both the in-memory resume and the
  // uninterrupted run.
  hitlist::SpillConfig spill;

  // Analysis parallelism (stage 4): every analysis scan shards across
  // config.analysis.threads (see util::Parallelism). Results are
  // bit-identical at any thread count; only wall time moves.
  analysis::AnalysisConfig analysis;
  // Top-N cutoff for the Fig 4 AS entropy profiles.
  std::size_t analysis_top_ases = 10;

  // Wire every layer into the study's metrics registry. Increments are
  // relaxed atomics on thread-local stripes (obs/metrics.h) or bulk adds
  // at merge points, so leaving this on costs nothing measurable and
  // changes no result bit — it exists for A/B regression tests.
  bool metrics = true;
};

// §4.2's alias cross-checks between backscanning and the Hitlist.
struct AliasCrossCheck {
  // Backscan-inferred aliased /64s also known to the Hitlist campaign.
  std::uint64_t aliased_known_to_hitlist = 0;
  // ...and those the Hitlist does not know (the paper's 46.5K discovery).
  std::uint64_t aliased_new = 0;
  // NTP clients (backscan week) living inside backscan-aliased /64s...
  std::uint64_t ntp_clients_in_aliased = 0;
  // ...versus Hitlist addresses inside those same /64s (the "only 23").
  std::uint64_t hitlist_addresses_in_aliased = 0;
};

// Stage 4 output: the paper's core corpus analyses (Figs 1, 2, 4, 5 and
// Table 1) plus per-stage scan instrumentation.
struct AnalysisReport {
  util::EmpiricalDistribution entropy;                // Fig 1 (NTP corpus)
  std::vector<analysis::DatasetSummary> table1;       // NTP, Hitlist, CAIDA
  analysis::AddressLifetimeReport address_lifetimes;  // Fig 2a
  analysis::IidLifetimeReport iid_lifetimes;          // Fig 2b
  std::vector<analysis::AsEntropyProfile> top_ases;   // Fig 4
  analysis::CategoryBreakdown categories;             // Fig 5
  // One entry per scan stage: records scanned, wall µs, merge µs —
  // the observability hook for analysis throughput regressions.
  std::vector<analysis::AnalysisStageStats> stage_stats;
};

struct StudyResults {
  hitlist::Corpus ntp{1 << 16};
  // Out-of-core NTP corpus, set instead of `ntp` when
  // StudyConfig::spill is active (then `ntp` stays empty). Read either
  // through Study::ntp_source(); Study::save_ntp() writes either.
  std::unique_ptr<hitlist::TieredCorpus> ntp_runs;
  // Clients observed during the backscan week (a separate, later window).
  hitlist::Corpus backscan_week{1 << 12};
  hitlist::HitlistResult hitlist;
  hitlist::CaidaResult caida;
  scan::BackscanReport backscan;
  AliasCrossCheck alias_check;
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  // Per-vantage degradation under the fault plan (indexed by vantage id;
  // empty until stage 1 runs). The study reports how much each vantage lost
  // instead of aborting on churn.
  std::vector<hitlist::VantageHealthStats> vantage_health;
  // Stage 4 (empty until the analysis stage runs).
  AnalysisReport analysis;
  // Distributed-collection report (set only when RunOptions::distributed
  // drove stage 1): lease/recovery counters and the V6DIST02 frame log.
  std::optional<dist::DistReport> dist;
  // Folded view of the study's metrics registry plus its trace spans,
  // captured when each run() finishes.
  obs::Snapshot metrics;
  // Sim-time series of WindowRecords (empty unless RunOptions::
  // sample_interval > 0): one window per sampling boundary inside the
  // collection window plus one per stage transition / campaign snapshot /
  // analysis pass. Bit-identical at any thread count; per-window counter
  // deltas telescope to the end-of-run totals in `metrics`.
  obs::Timeline timeline;
};

// Stage selection and stage-1 plumbing for Study::run(). The defaults run
// the whole pipeline. Every member has a default initializer, so a caller
// names only what it changes: run({.campaigns = false}).
struct RunOptions {
  // Stage 1: passive NTP collection over the study window.
  bool collect = true;
  // Stage 2: the Hitlist and CAIDA active comparison campaigns.
  bool campaigns = true;
  // Stage 3: the backscan week (collects clients in its own window, probes
  // them back, cross-checks aliases against the Hitlist campaign).
  bool backscan = true;
  // Stage 4: the corpus analyses behind Table 1 and Figs 1, 2, 4, 5. The
  // Table 1 campaign columns are filled only if stage 2 ran first.
  bool analysis = true;
  // Stage-1 checkpointing: combined with collector.checkpoint_interval,
  // receives periodic crash-recovery snapshots.
  hitlist::CheckpointSink checkpoint_sink = {};
  // Resume stage 1 from a checkpoint written by a previous (crashed) run
  // with the same configuration; bit-identical to an uninterrupted run.
  std::optional<hitlist::CollectionCheckpoint> resume_from = {};
  // Sim-time spacing of timeline sampling windows; 0 disables sampling.
  // Samples are taken only at deterministic merge barriers (collector
  // grid boundaries, stage transitions, campaign snapshots, analysis
  // passes) — never wall-clock timers — so StudyResults::timeline is
  // bit-identical at any thread count and sampling changes no result.
  util::SimDuration sample_interval = 0;
  // Distributed stage 1: when set, collection runs through a simulated
  // dist::SimCluster — N workers each collecting a device range under
  // chunk leases, with the coordinator's deterministic merge feeding the
  // rest of the pipeline. The merged corpus, saved bytes, and every
  // analysis float are bit-identical to the single-process run at any
  // worker count, including under injected worker kills/stalls. Composes
  // with spill (each range's corpus spills as one run) and resume_from
  // (every range replays to the checkpoint, then records) and with
  // collector.wire_fidelity; incompatible with checkpoint_sink
  // (std::invalid_argument).
  std::optional<dist::DistConfig> distributed = {};
  // Hitlist-as-a-service: with serve.enabled, stage 1 publishes epoch
  // snapshots into Study::query_service() — interior epochs every
  // serve.epoch_interval sim-seconds at collection merge barriers
  // (in-memory and tiered single-process paths), plus one final epoch
  // covering the full corpus at window end (all paths, including
  // distributed and resumed runs). Readers on other threads may query
  // the service throughout; per-epoch answers are bit-identical at any
  // reader/ingest thread count. Call query_service() once before
  // spawning run() on a background thread (lazy construction is not
  // thread-safe).
  serve::ServeConfig serve = {};
};

class Study {
 public:
  explicit Study(const StudyConfig& config);

  const sim::World& world() const noexcept { return *world_; }
  const StudyConfig& config() const noexcept { return config_; }
  netsim::DataPlane& plane() noexcept { return *plane_; }
  // The pool DNS steering layer — exposed so out-of-process dist workers
  // can wire a NodeEnv against this study's simulation stack.
  netsim::PoolDns& pool_dns() noexcept { return *dns_; }

  // The study's fault plan, or nullptr when fault injection is off.
  const netsim::FaultSchedule* faults() const noexcept {
    return faults_.get();
  }

  // Runs the selected stages in pipeline order (collect -> campaigns ->
  // backscan -> analysis), wraps each in a sim-time trace span, and
  // snapshots the metrics registry into the returned results. Stages
  // already run by a previous run() are skipped, so repeated calls are
  // cheap and safe.
  const StudyResults& run(RunOptions options = {});

  // The study's metrics registry. Always present; layers report into it
  // only while config().metrics is true.
  obs::Registry& metrics_registry() noexcept { return *metrics_; }
  const obs::Registry& metrics_registry() const noexcept { return *metrics_; }

  // The serving layer (lazily constructed, metrics-wired per
  // config().metrics). Construct it on this thread before handing the
  // study to a background ingest thread; after that, the service itself
  // is safe to query from any number of reader threads.
  serve::QueryService& query_service();

  const StudyResults& results() const noexcept { return results_; }
  StudyResults& mutable_results() noexcept { return results_; }

  // Unique-address count per (true) country of the NTP corpus, descending
  // (§3's country mix).
  std::vector<std::pair<geo::CountryCode, std::uint64_t>> country_mix() const;

  // Writes the NTP corpus as a V6CORP snapshot (hitlist/corpus_io.h) and
  // returns the bytes written. Streams the merged runs when the study ran
  // out-of-core — the bytes are identical to saving the equivalent
  // in-memory corpus.
  std::size_t save_ntp(std::ostream& out) const;

  // The NTP corpus as every reader sees it, whichever backend holds it:
  // the merged runs out of core, else the in-memory table. The source
  // borrows the corpus, so it is valid until the next run().
  analysis::ScanSource ntp_source() const;

  // Unique NTP addresses collected.
  std::uint64_t ntp_size() const { return ntp_source().records; }

  // Convenience: construct and run all stages.
  static Study run(const StudyConfig& config);

 private:
  // Stage 1, the one way: seeds the target from options.resume_from (if
  // set, consuming it), then collects through the PassiveCollector or,
  // with options.distributed, a dist::SimCluster.
  void do_collect(RunOptions& options);
  void do_campaigns();
  void do_backscan();
  void do_analysis();
  // Effective per-stage configs: copies of the user's with the metrics
  // registry (and, during a sampled run(), the timeline sampler and the
  // serving layer's epoch sink) wired in (when config_.metrics is on;
  // epoch publication is independent of the metrics toggle).
  hitlist::CollectorConfig collector_config();

  StudyConfig config_;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<netsim::DataPlane> plane_;
  std::unique_ptr<netsim::PoolDns> dns_;
  std::unique_ptr<netsim::FaultSchedule> faults_;
  // unique_ptr: the registry is pinned (handles and components point at
  // it) while Study itself stays movable.
  std::unique_ptr<obs::Registry> metrics_;
  // Non-null only while a run() with sample_interval > 0 is in flight
  // (the sampler itself lives on that run()'s stack).
  obs::TimelineSampler* sampler_ = nullptr;
  // The serving layer; null until query_service() (or a serving run())
  // first touches it. unique_ptr for the same pinning reason as metrics_.
  std::unique_ptr<serve::QueryService> serve_;
  // Non-zero only while a run() with serve.enabled and a positive
  // epoch_interval is in flight (mirrors sampler_).
  util::SimDuration serve_epoch_interval_ = 0;
  StudyResults results_;
  bool collected_ = false;
  bool campaigned_ = false;
  bool backscanned_ = false;
  bool analyzed_ = false;
};

}  // namespace v6::core
