// One dist lease: collect a device range over the study window through
// PassiveCollector's checkpoint machinery and report what a completing
// lease uploads. The in-process SimCluster and the real-process Worker
// both run every lease through run_lease(), so both put bit-identical
// corpora, counters and deterministic kObsReport families on the wire.
// Each driver keeps only its own parts: SimCluster its lane clock, kills
// and stalls (thrown out of the upload sink) and in-memory delivery; the
// Worker its mailbox and artifact files.
#pragma once

#include "dist/protocol.h"
#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "netsim/data_plane.h"
#include "netsim/pool_dns.h"
#include "sim/world.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace v6::dist {

// Everything a node needs to run collection: the deterministic simulation
// inputs every process rebuilds identically from the shared study flags.
// Pointers are borrowed; their owner (e.g. the CLI's Study) must outlive
// the node.
struct NodeEnv {
  const sim::World* world = nullptr;
  netsim::DataPlane* plane = nullptr;
  const netsim::PoolDns* dns = nullptr;
  // Base collector configuration; run_lease() sets the per-lease parts.
  hitlist::CollectorConfig collector;
  // The collection window; the Worker stamps its hello with `start`.
  // run_lease() reads the window from each lease's CheckpointState.
  util::SimTime start = 0;
  util::SimTime end = 0;
};

// What a completed lease reports: the cursor at the window end with the
// collector's cumulative counters (checkpoint-restored across
// reassignments), which with the lease's corpus is its final checkpoint,
// and the kObsReport payload.
struct LeaseResult {
  hitlist::CheckpointState state;
  ObsReport obs;
};

// Collects `devices` over from's window, resuming at from.resume_from
// into `corpus` (which holds the checkpoint written with `from`, or is
// empty for a fresh lease). Every chunk boundary on the grid
// window_start + k * chunk_interval hands `upload_sink` a durable
// (state, corpus) snapshot; an exception thrown by the sink aborts the
// lease and propagates, leaving `corpus` as it was passed in (the
// PassiveCollector::resume() contract).
//
// Per-lease observability: a private Registry + TimelineSampler whose
// grid coincides with the checkpoint grid, so wiring them adds no merge
// barriers and perturbs neither the corpus nor the frame schedule. The
// report's counter families are built from the collector's cumulative
// getters, not the per-lease registry, which covers only work since the
// last resume and would undercount a reassigned lease. Names and help
// strings mirror the collector's own registrations and samples are sorted
// like Registry::snapshot(), so the aggregated cluster exposition is
// diffable against the single-process run.
LeaseResult run_lease(const NodeEnv& env, util::ShardRange devices,
                      util::SimDuration chunk_interval,
                      const hitlist::CheckpointState& from,
                      hitlist::Corpus& corpus,
                      const hitlist::CheckpointSink& upload_sink);

}  // namespace v6::dist
