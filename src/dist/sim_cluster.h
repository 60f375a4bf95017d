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
//     resolution is const and loss and fault verdicts are pure hashes
//     (wire path included), so a range collected alone records exactly
//     what the full run records for those devices; ranges are disjoint,
//     so their union is the full corpus and their counters add up to the
//     single-process counters. Total work is flat in the worker count;
//   * a lease executes through the existing checkpoint machinery — every
//     chunk boundary uploads a durable (state, corpus) snapshot of the
//     range; a kill or revocation loses at most the chunks since the last
//     upload. The snapshot is a Corpus::copy() of the collector's running
//     union: a plain copy of the record array and index, not a re-hash;
//   * recovery is PassiveCollector::resume() of that range from its
//     snapshot — only the dead lease's devices replay;
//   * epoch fencing rejects uploads from zombie (revoked-then-woken)
//     workers, so reassignment never double-counts.
//
// It shares with the real Coordinator/Worker pair the lease state machine
// (LeaseTable), the lease runner (run_lease()), the artifact names and
// the reduce. It owns the lane clock, the kills and stalls (thrown out of
// the lease's upload sink), respawns, the in-memory checkpoints and the
// v6_dist_* registry counters.
//
// The cluster clock is sim seconds: a healthy chunk of S sim seconds
// costs S lane seconds (times the fault plan's slow factor); replaying an
// already-checkpointed prefix costs 1/8 lane second per sim second. Kills
// and stalls are keyed on lane time. Everything runs on one thread in a
// deterministic event loop, so DistReport numbers are exact and
// reproducible — the recovery-latency figures in bench_dist_collection
// are pure functions of (config, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/lease.h"  // NodeEnv: world, plane, DNS, collector config
#include "dist/lease_table.h"
#include "hitlist/tiered_corpus.h"
#include "netsim/fault_schedule.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace v6::dist {

struct DistConfig {
  // Worker processes at cluster start (respawns may add more). The
  // world's devices are cut by util::shard_range into one contiguous
  // range lease per initial worker.
  std::uint32_t workers = 4;
  // Sim-time spacing of chunk boundaries inside a lease: every boundary
  // uploads a durable checkpoint, so this is also the worst-case redo
  // after a death. Never changes the merged corpus.
  util::SimDuration chunk_interval = util::kWeek;
  // Heartbeat silence after which the coordinator declares a worker dead
  // or stalled-out and revokes its lease (reassigned after the backoff).
  util::SimDuration heartbeat_timeout = util::kDay;
  // Replacement workers: a detected death spawns a fresh worker two hours
  // after detection (keeps workers=1 runs alive through a kill).
  // Replacements carry no planned faults.
  bool respawn = true;
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

class SimCluster {
 public:
  // `collector_cfg` is the single-process collector configuration the
  // cluster must reproduce; run_lease() replaces its metrics/sampler per
  // lease, and the completing lease's kObsReport is aggregated into
  // DistReport::cluster_obs. Merged totals still go into the caller's
  // `registry` after the merge. `faults` (optional) injects faults in
  // place of the plan built from config.worker_faults.
  SimCluster(const sim::World& world, netsim::DataPlane& plane,
             const netsim::PoolDns& dns,
             const hitlist::CollectorConfig& collector_cfg,
             const DistConfig& config,
             netsim::WorkerFaultSchedule* faults = nullptr,
             obs::Registry* registry = nullptr,
             obs::TimelineSampler* sampler = nullptr);

  // Runs distributed collection over [start, end) into `out` (merged and
  // canonicalized: one canonical union of the delivered ranges, with no
  // hash-merge). Throws std::runtime_error if the fleet dies out with
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

  NodeEnv env_;
  DistConfig config_;
  netsim::WorkerFaultSchedule* faults_;
  obs::Registry* registry_;
  obs::TimelineSampler* sampler_;
};

}  // namespace v6::dist
