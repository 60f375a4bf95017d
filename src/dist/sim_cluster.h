// In-process, fully deterministic simulation of the coordinator/worker
// protocol: the world's devices are cut into contiguous ranges (the same
// util::shard_range partition the collector's thread shards use), N
// simulated workers collect one range per chunk lease under a seeded
// netsim::WorkerFaultSchedule, and a simulated coordinator grants leases,
// detects death/stalls by heartbeat silence, and reassigns with capped
// exponential backoff + seeded jitter. The merged corpus is bit-identical
// to the single-process run at ANY worker count and under ANY fault plan
// — the cluster only decides WHEN work happens and how often it is
// redone, never WHAT gets recorded:
//
//   * every device's polls draw only from its own seeded RNG, pool DNS
//     resolution is const and fault verdicts are pure hashes, so a range
//     collected alone records exactly what the full run records for those
//     devices; ranges are disjoint, so their union is the full corpus and
//     their counters add up to the single-process counters. Total work is
//     flat in the worker count;
//   * a lease executes through the existing checkpoint machinery — every
//     chunk boundary uploads a durable (state, corpus) snapshot of the
//     range; a kill or revocation loses at most the chunks since the last
//     upload;
//   * recovery is PassiveCollector::resume() of that range from its
//     snapshot — only the dead lease's devices replay;
//   * epoch fencing rejects uploads from zombie (revoked-then-woken)
//     workers, so reassignment never double-counts.
//
// The cluster clock is sim seconds: a healthy chunk of S sim seconds
// costs S lane seconds (times the fault plan's slow factor); replaying an
// already-checkpointed prefix costs replay_cost per sim second. Kills and
// stalls are keyed on lane time. Everything runs on one thread in a
// deterministic event loop, so DistReport numbers are exact and
// reproducible — the recovery-latency figures in bench_dist_collection
// are pure functions of (config, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/protocol.h"
#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"
#include "obs/cluster.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::dist {

struct DistConfig {
  // Worker processes at cluster start (respawns may add more).
  std::uint32_t workers = 4;
  // Device-range leases: the world's devices cut by util::shard_range
  // into this many contiguous ranges; 0 means one per initial worker.
  std::uint32_t ranges = 0;
  // Sim-time spacing of chunk boundaries inside a lease: every boundary
  // uploads a durable checkpoint, so this is also the worst-case redo
  // after a death. Never changes the merged corpus.
  util::SimDuration chunk_interval = util::kWeek;
  // Heartbeat silence after which the coordinator declares a worker dead
  // or stalled-out and revokes its lease.
  util::SimDuration heartbeat_timeout = util::kDay;
  // Reassignment backoff: retry r of a lease waits
  // min(retry_cap, retry_backoff * 2^r), stretched by up to retry_jitter
  // of itself (seeded jitter — a pure hash of (seed, lease, r)).
  util::SimDuration retry_backoff = util::kHour;
  util::SimDuration retry_cap = 12 * util::kHour;
  double retry_jitter = 0.5;
  // Replacement workers: a detected death spawns a fresh worker
  // respawn_delay after detection (keeps workers=1 runs alive through a
  // kill). Replacements carry no planned faults.
  bool respawn = true;
  util::SimDuration respawn_delay = 2 * util::kHour;
  // Lane cost of replaying one already-collected sim second of a range
  // (replay skips recording and the corpus table work, so it is
  // cheaper).
  double replay_cost = 0.125;
  // Seed for the reassignment jitter.
  std::uint64_t seed = 71;
  // Seeded worker fault plan; inactive means a healthy fleet. Forced
  // kills (below) compose with it.
  netsim::WorkerFaultPlanConfig worker_faults;
  // Deterministic forced kills: exactly min(forced_kills, workers) of the
  // initial workers are killed once each, at evenly staggered lane times
  // inside the window (worker w dies at start + (w+1)/(K+1) of the span).
  // This is the CLI's --dist-kills and the identity-matrix test's knob —
  // an exact kill count, unlike the probabilistic worker_faults plan.
  std::uint32_t forced_kills = 0;
};

// What the cluster did — the observability of the run, not its result
// (the corpus is the result, and it never varies with any of this).
struct DistReport {
  std::uint32_t workers = 0;         // including respawned replacements
  std::uint32_t ranges = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t checkpoints_uploaded = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t timeouts = 0;        // heartbeat timeouts fired
  std::uint64_t reassignments = 0;
  std::uint64_t stale_uploads_rejected = 0;
  std::uint64_t replayed_chunks = 0;
  // Cluster-clock sum over reassignments of (recovery grant - failure).
  std::uint64_t recovery_latency_total = 0;
  // Cluster-clock instant the last lease completed.
  util::SimTime finished_at = 0;
  // Summed collector counters (equal to the single-process values).
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<hitlist::VantageHealthStats> vantage_health;
  // Concatenated V6DIST02 frames of everything said on the wire; passes
  // lint_dist_frames().
  std::vector<std::uint8_t> frame_log;
  // Per-lease worker observability reports, decoded from the kObsReport
  // frames each completing lease uploads. Counter families aggregate to
  // exactly the single-process values at any worker count and under any
  // fault plan (only the COMPLETING lease's cumulative totals count per
  // range — aborted leases upload nothing).
  obs::ClusterAggregator cluster_obs;
};

class SimCluster {
 public:
  // `collector_cfg` is the single-process collector configuration the
  // cluster must reproduce; its metrics/sampler are replaced per lease
  // (each lease runs a private Registry + TimelineSampler whose grid
  // coincides with the checkpoint grid; the completing lease uploads the
  // pair as a kObsReport frame, aggregated into DistReport::cluster_obs).
  // The cluster still reports merged totals into the caller's `registry`
  // after the merge. `faults` (optional) lets the caller inject
  // forced kills on top of config.worker_faults; pass nullptr to let the
  // cluster build the plan from the config alone.
  SimCluster(const sim::World& world, netsim::DataPlane& plane,
             const netsim::PoolDns& dns,
             const hitlist::CollectorConfig& collector_cfg,
             const DistConfig& config,
             netsim::WorkerFaultSchedule* faults = nullptr,
             obs::Registry* registry = nullptr,
             obs::TimelineSampler* sampler = nullptr);

  // Runs distributed collection over [start, end) into `out` (merged and
  // canonicalized). Throws std::runtime_error if the fleet dies out with
  // respawn disabled — fail loudly rather than hang.
  DistReport run(hitlist::Corpus& out, util::SimTime start, util::SimTime end);

  // Continues a single-process collection from its checkpoint: `out`
  // holds the snapshot written with `from` (empty for a fresh state).
  // Every range replays its devices up to from.resume_from, then records
  // the rest of the window; report totals continue from the checkpointed
  // counters. Bit-identical to the uninterrupted single-process run.
  DistReport run(hitlist::Corpus& out, const hitlist::CheckpointState& from);

  // Out-of-core: as above, but each range's final corpus spills into
  // `runs` as one run when its lease completes (seed a resumed snapshot
  // with runs.spill() first). The merged stream is identical to the
  // in-memory result.
  DistReport run(hitlist::TieredCorpus& runs,
                 const hitlist::CheckpointState& from);

 private:
  // The event loop; hands each range's final corpus to `deliver` as its
  // lease completes.
  DistReport collect(const hitlist::CheckpointState& from,
                     const std::function<void(hitlist::Corpus&&)>& deliver);
  // Post-merge collector record/dedup counters, like the single-process
  // collector's final flush.
  void count_records(std::uint64_t admitted, std::uint64_t observations);

  const sim::World* world_;
  netsim::DataPlane* plane_;
  const netsim::PoolDns* dns_;
  hitlist::CollectorConfig collector_cfg_;
  DistConfig config_;
  netsim::WorkerFaultSchedule* faults_;
  obs::Registry* registry_;
  obs::TimelineSampler* sampler_;
};

}  // namespace v6::dist
