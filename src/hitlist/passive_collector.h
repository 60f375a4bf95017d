// The passive collection pipeline: every pool-using device's NTP polls,
// steered to vantage servers by the pool DNS, logged into a Corpus.
//
// Two execution paths produce identical corpora (a test asserts it):
//   * wire-fidelity — each poll runs the full stack: RFC 5905 client
//     request -> UDP with pseudo-header checksum -> data-plane delivery
//     (loss applies) -> server decode/validate/respond -> client validates
//     the response (mode, origin echo). This is the honest path.
//   * fast — skips serialization but keeps the identical control flow
//     (same DNS steering, same loss verdict via DataPlane::udp_fate, same
//     server-side record call), which makes the 10M+-poll benches
//     tractable.
// Both paths spend each poll attempt's two RNG draws as the client's nonce
// and source port, the identity the plane keys its loss verdict on, so the
// streams stay in lockstep and the corpora are bit-identical at any loss
// rate. Only the wire path counts its drops in the plane's counters.
//
// Per device and chunk, the work is O(captured events). The device's
// ClientSchedule counts its polls in the chunk in closed form, and all of
// them are first counted in bulk as whole uncaptured bursts (`burst`
// packets each). Then only the polls that fire short are visited and
// corrected: those in the window's last 2*burst seconds, where a burst is
// cut, and those inside an outage window of an AS the device can attach
// to, checked one by one with World::attachment() because mobile devices
// roam. Capture is a keyed geometric skip over poll indices
// (PoolDns::next_capture(), share 0.03 in the study), so the collector
// jumps from one captured poll to the next without touching the rest.
// Per captured poll the order is: outage check -> client address ->
// steer -> burst. A silenced poll draws nothing. Only captured polls
// compute World::device_address(), steer through PoolDns::resolve() and
// spend the device Rng, so each device stream sees the same draws in the
// same order on both paths, whatever the chunking. Every count is a pure
// function of the chunk's end time, so the totals at any barrier do not
// depend on which grids are on.
//
// Clients retry unanswered polls RFC 5905-style: up to `retry_limit`
// re-sends with exponential backoff, which is what lets the corpus survive
// vantage crash windows (see netsim::FaultSchedule) with bounded loss.
//
// Collection shards across threads, on both paths: devices are partitioned
// into contiguous ranges, each shard runs the per-device loop into its own
// Corpus through its own NtpServer per vantage, on one util::ThreadPool
// that lives for the whole window (merge barriers spawn no threads), and
// the shards reduce through Corpus::merge(). Because every device's
// observation stream derives only from its own seeded RNG, the merged
// corpus is bit-identical (size, total_observations, every record field)
// to the threads=1 run — a property the tests assert. The dist layer cuts the same partition
// across machines (device_begin/end).
//
// Merge barriers: every chunk boundary (checkpoint, sampler, epoch or
// spill grid) joins the shards, and both targets then take the same
// steps. (1) The shard tallies (polls, answers, per-vantage health and
// observation counts) drain into one CheckpointState of the corpus so
// far, the counters move by the same deltas, and the tallies reset.
// (2) The shard tables drain: in memory into one running union, seeded
// from the caller's corpus, so a barrier costs what was recorded since
// the last one; out of core they stay in the shards until their heap
// crosses the spill budget or the window ends, then spill as one run
// (see the TieredCorpus run() overload). (3) The checkpoint, the epoch
// and the sampler's record count read one corpus so far: the running
// union in memory, the runs plus the live shard tables out of core. At
// window end the running union is moved into the caller's corpus and
// canonicalized. Only the record and dedup counters wait for a sampler
// boundary or the window end: they need the union size, which out of
// core costs a counting merge over the runs. The record work of (2) and
// (3) runs on the chunk pool: the parts of the live union sort in place
// one task each, a spill writes their merged union straight to a run,
// and the epoch collapse merges address ranges of the runs in parallel
// (DESIGN.md, Threading model).
//
// Checkpoint/resume: with `checkpoint_interval > 0` and a CheckpointSink,
// collection pauses at every sim-time boundary window_start + k*interval
// and hands the sink a CheckpointState cursor plus the corpus-so-far (in
// memory, the running union itself, by reference). A crashed run
// restarts via resume(): the captured polls of
// [window_start, resume_from) are replayed with recording suppressed —
// consuming RNG, DNS, and data-plane state exactly as the original run
// did, and skipping the uncaptured ones as the original run did — then
// recording switches on at resume_from. The chunk boundaries
// never alter any per-device stream, so an interrupted-and-resumed run is
// bit-identical to an uninterrupted one (a test asserts this at every
// checkpoint under an active fault schedule).
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hitlist/corpus.h"
#include "netsim/data_plane.h"
#include "netsim/pool_dns.h"
#include "ntp/client_schedule.h"
#include "ntp/server.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/world.h"
#include "util/parallelism.h"

namespace v6::hitlist {

class TieredCorpus;

struct CollectorConfig {
  // Runs every poll through the RFC 5905 codec and the plane's UDP path.
  // Either way, transit loss is DataPlaneConfig::loss_rate.
  bool wire_fidelity = false;
  std::uint64_t seed = 3;
  // Ablation switch: treat every client as a single-packet (non-iburst)
  // poller.
  bool ignore_bursts = false;
  // Collection shards (see util::Parallelism for the 0/1/N contract), on
  // the fast and the wire_fidelity path alike.
  util::Parallelism threads = util::Parallelism::hardware();
  // RFC 5905-style client persistence: an unanswered poll packet is
  // re-sent up to `retry_limit` times, the i-th retry delayed by
  // retry_backoff * (2^i - 1) seconds after the original send; re-sends
  // stop at the first one past the window. 0 keeps the legacy fire-once
  // client. A backoff <= 0 re-sends at the original instant.
  std::uint32_t retry_limit = 0;
  util::SimDuration retry_backoff = 4;
  // Sim-time spacing of checkpoint boundaries; 0 disables checkpointing.
  // The interval never changes the collected corpus — it only decides
  // where a crashed run can resume from.
  util::SimDuration checkpoint_interval = 0;
  // Optional metrics sink (not owned; must outlive the collector). All
  // collector counters are bulk-incremented from the per-shard tallies at
  // merge time — the per-poll hot loop never touches the registry — so
  // wiring metrics cannot perturb throughput or determinism.
  obs::Registry* metrics = nullptr;
  // Optional timeline sampler (not owned), invoked at interior sim-time
  // grid boundaries (sampler->next_boundary) inside the collection
  // window. Each boundary is a merge barrier: the chunk loop joins all
  // shards there, drains their tallies into the registry, brings the
  // record and dedup counters up to date, and only then samples — so
  // every WindowRecord is exact and independent of the shard count. The
  // window-end sample is the *caller's* job (Study samples at each stage
  // transition), keeping stage windows out of the collector. Requires
  // `metrics` to point at the sampler's registry.
  obs::TimelineSampler* sampler = nullptr;
  // Stage tag the sampler stamps on windows closed inside this collector
  // (the backscan pass runs a second collector with its own tag).
  std::string sampler_stage = "collect";
  // Distributed-collection device range: only devices with ids in
  // [device_begin, device_end) (clipped to the world) are simulated. Each
  // device's polls draw only from its own seeded RNG, the pool DNS is
  // const and fault verdicts are pure hashes, so collectors over disjoint
  // ranges merge bit-identically to one full-range run, every counter
  // included. The default covers every device.
  std::size_t device_begin = 0;
  std::size_t device_end = std::numeric_limits<std::size_t>::max();
  // Serving-layer epoch publication (see serve::QueryService). With a
  // sink and a positive interval, the chunk loop pauses at every sim-time
  // boundary window_start + k * epoch_interval, joins all shards, and
  // hands the sink the *canonical* union corpus as of that boundary.
  // Because the union is built at a merge barrier from commutative
  // aggregates in ascending address order, the handed corpus is
  // bit-identical at any shard count — which is what lets the serving
  // layer promise per-epoch determinism. Ignored on hooked passes (the
  // grid must not reshape a hooked run's chunking; see `sampler`). The
  // window-end epoch is the caller's job, mirroring the sampler contract.
  std::function<void(util::SimTime, const Corpus&)> epoch_sink = {};
  util::SimDuration epoch_interval = 0;
};

// Per-vantage degradation accounting, reported instead of aborting when a
// fault plan is active. All counters cover recorded (non-replayed) polls
// addressed to that vantage. Naming follows the repo-wide stats
// convention (see AnalysisStageStats): counts are plain nouns, durations
// would carry a `_us` suffix.
struct VantageHealthStats {
  std::uint64_t polls = 0;          // packet attempts steered here
  std::uint64_t answered = 0;       // attempts the client heard back from
  std::uint64_t lost_to_fault = 0;  // attempts the fault plan swallowed
  std::uint64_t retries = 0;        // re-sends triggered by silence
  std::uint64_t steered_polls = 0;  // sync events won via health steering
};

// Adds `part` into `total` per vantage id, growing `total` as needed.
inline void add_vantage_health(std::vector<VantageHealthStats>& total,
                               const std::vector<VantageHealthStats>& part) {
  if (total.size() < part.size()) total.resize(part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    total[v].polls += part[v].polls;
    total[v].answered += part[v].answered;
    total[v].lost_to_fault += part[v].lost_to_fault;
    total[v].retries += part[v].retries;
    total[v].steered_polls += part[v].steered_polls;
  }
}

// The resumable cursor written alongside every corpus snapshot: where the
// window was, how far collection got (`resume_from` — every sync event
// with base time < resume_from is in the snapshot), and the counters
// accumulated so far.
struct CheckpointState {
  util::SimTime window_start = 0;
  util::SimTime window_end = 0;
  util::SimTime resume_from = 0;
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<VantageHealthStats> vantage_health;

  // The cursor of a collection over [start, end) that has not started.
  static CheckpointState fresh(util::SimTime start, util::SimTime end) {
    return {start, end, start, 0, 0, {}};
  }
};

// Receives each checkpoint: the cursor plus the full corpus as of
// `state.resume_from`. In memory that corpus is the collector's running
// union, in insertion order (which depends on the shard count; the
// content does not); out of core it is built canonical for the call. The
// reference is only valid for the call: a sink that keeps the corpus must
// copy it (Corpus::copy()). save_checkpoint() writes ascending address
// order, so saved bytes do not depend on it.
using CheckpointSink =
    std::function<void(const CheckpointState&, const Corpus&)>;

// Called for every accepted observation, after it is added to the corpus.
// `vantage_address` is the server the client spoke to (backscanning probes
// from there).
//
// Concurrency contract: with more than one collection shard, hook
// invocations are serialized (a shard-global mutex), so the hook body
// needs no locking of its own — but the *order* in which observations
// from different shards arrive is unspecified. Hooks whose results depend
// on arrival order (e.g. one feeding a stateful scanner) must run with
// `threads = 1`; order-independent aggregation (corpora, per-day
// counters) is safe at any shard count.
using ObservationHook = std::function<void(
    const ntp::Observation&, const net::Ipv6Address& vantage_address)>;

// The collector counter families, named in one place. Adds `polls`,
// `answered` and each vantage's polls, answered and fault-lost attempts to
// `registry`, registering any family it has not seen (zero deltas
// included). The single-process collector, a dist lease's completion
// report and the dist cluster's totals all count through it.
void count_collection(obs::Registry& registry, std::uint64_t polls,
                      std::uint64_t answered,
                      const std::vector<VantageHealthStats>& vantage_health);

// The dedup-aware record families: `admitted` new unique addresses and
// `dedup_hits` observations folded into an existing record.
void count_records(obs::Registry& registry, std::uint64_t admitted,
                   std::uint64_t dedup_hits);

class PassiveCollector {
 public:
  PassiveCollector(const sim::World& world, netsim::DataPlane& plane,
                   const netsim::PoolDns& dns, const CollectorConfig& config);

  // Runs collection over [start, end); fills `corpus`. `sink`, combined
  // with CollectorConfig::checkpoint_interval, receives periodic
  // snapshots.
  void run(Corpus& corpus, util::SimTime start, util::SimTime end,
           const ObservationHook& hook = {}, const CheckpointSink& sink = {});

  // Out-of-core collection: identical window semantics, observation
  // streams and counters. The shard tallies drain at every merge barrier,
  // as in memory; the shard tables do not. They stay in the shards until
  // their combined heap footprint crosses
  // runs.config().memory_budget_bytes at a barrier, and then their union
  // is flushed into `runs` as one on-disk run and the tables reset (the
  // tail is flushed at window end regardless). Barriers come from the
  // checkpoint/sampling/epoch grids plus a one-day spill grid, so a run
  // without any of them still spills on a sim-time grid. The spilled
  // union always covers ALL shards, which keeps each run's *content* a
  // pure function of the boundary time — the merged stream (and thus
  // every analysis and save() byte) is identical to the in-memory run at
  // any thread count and any budget; a test asserts exactly that.
  // Checkpoint sinks and epochs see the same corpus-so-far content as the
  // in-memory path: one k-way merge of the runs and the live shard
  // tables. The tiered resume() overload below resumes a crashed
  // out-of-core run.
  void run(TieredCorpus& runs, util::SimTime start, util::SimTime end,
           const ObservationHook& hook = {}, const CheckpointSink& sink = {});

  // Resumes a crashed run from a checkpoint. `corpus` must hold the
  // snapshot that was written with `from` (e.g. via checkpoint_io);
  // collection replays silently up to from.resume_from, then records the
  // remainder of the window into `corpus`. Counters continue from the
  // checkpointed values.
  //
  // Sink-failure contract (worker-upload sinks throw on coordinator
  // disconnect): if `sink` throws, the exception propagates and `corpus`
  // is left EXACTLY as the caller passed it in — the tail recorded since
  // resume_from lives in the shard tables and the collector's running
  // union (a copy of `corpus`), which replaces `corpus` only after the
  // chunk loop finishes cleanly. The caller may
  // therefore either retry this resume() verbatim (same corpus, same
  // `from`) or reload the last checkpoint the sink durably accepted and
  // resume from that; both reproduce the uninterrupted run bit-exactly.
  // The same guarantee holds when run()'s sink throws mid-collection.
  void resume(Corpus& corpus, const CheckpointState& from,
              const ObservationHook& hook = {},
              const CheckpointSink& sink = {});

  // Out-of-core resume: honors a spill budget while resuming. `runs`
  // must hold the snapshot written with `from` (seed it with
  // runs.spill(std::move(snapshot)), as for dist::SimCluster::run); the
  // tail then collects through the same spill machinery as
  // run(TieredCorpus&). The k-way merge erases run boundaries, so the
  // merged stream — and every analysis float and save() byte derived
  // from it — is identical to the in-memory resume at any thread count
  // and budget. On a sink throw, `runs` keeps every run spilled so far
  // (including the seeded snapshot); recovery is a fresh TieredCorpus
  // resumed from the last checkpoint the sink durably accepted, not a
  // retry on the same `runs`.
  void resume(TieredCorpus& runs, const CheckpointState& from,
              const ObservationHook& hook = {},
              const CheckpointSink& sink = {});

  // Totals of the last run()/resume() call, including the counters of
  // the checkpoint it resumed from; a reused collector starts over.
  std::uint64_t polls_attempted() const noexcept { return polls_; }
  std::uint64_t polls_answered() const noexcept { return answered_; }
  // Indexed by vantage id; empty before the first run()/resume().
  const std::vector<VantageHealthStats>& vantage_health() const noexcept {
    return vantage_health_;
  }

 private:
  // Per-shard poll counters, kept thread-local during collection and
  // drained into the collector's totals at every merge barrier.
  struct ShardTally {
    std::uint64_t polls = 0;
    std::uint64_t answered = 0;
  };

  // A pool-using device mid-enumeration: its seeded RNG (spent only on
  // captured polls), its schedule, the cursor past the polls of the
  // chunks done, and its next captured poll.
  struct DeviceState {
    sim::DeviceId id;
    std::uint8_t burst;  // packets per sync event (>= 1)
    util::Rng rng;
    ntp::ClientSchedule schedule;
    ntp::ClientSchedule::Cursor cursor;
    std::uint64_t capture_key;  // keys PoolDns::next_capture()
    std::uint64_t captured;     // poll index; PoolDns::kNoCapture: none
  };

  // Everything one shard carries across chunk boundaries.
  struct ShardState {
    Corpus corpus{1 << 12};
    std::vector<std::unique_ptr<ntp::NtpServer>> servers;
    // The devices that poll at least once, by first poll instant:
    // [0, retired) are done, [retired, arrived) active and the rest not
    // started.
    std::vector<DeviceState> devices;
    std::size_t retired = 0;
    std::size_t arrived = 0;
    ShardTally tally;
    std::vector<VantageHealthStats> vantage;
    // Observations recorded into this shard's corpus per vantage id
    // (pre-dedup). Lives outside VantageHealthStats because that struct
    // is serialized in the V6CKPT01 checkpoint format.
    std::vector<std::uint64_t> vantage_obs;
    // Consulted by the observation sink: false while replaying the
    // already-checkpointed prefix of a resumed run.
    bool recording = true;
  };

  // Collects into exactly one target: `memory` (in memory) or `runs`
  // (out of core); the other is null.
  void collect(Corpus* memory, TieredCorpus* runs, const CheckpointState& from,
               const ObservationHook& hook, const CheckpointSink& sink);

  // Processes every sync event of this shard with base time < chunk_end:
  // the uncaptured ones counted in closed form, the captured ones one by
  // one. Only devices between their first and last poll are visited.
  void process_chunk(ShardState& shard, util::SimTime window_end,
                     util::SimTime chunk_end) const;

  // One device's sync events with base time < chunk_end.
  void process_device(ShardState& shard, DeviceState& ds,
                      util::SimTime window_end, util::SimTime chunk_end) const;

  // Whether an AS-wide outage silences the device at t.
  bool silenced(sim::DeviceId id, util::SimTime t) const;

  // One captured sync event (burst + per-packet retries) for one device.
  void process_event(ShardState& shard, DeviceState& ds, util::SimTime t,
                     util::SimTime window_end) const;

  const sim::World* world_;
  netsim::DataPlane* plane_;
  const netsim::PoolDns* dns_;
  CollectorConfig config_;
  // The last run()/resume() call's totals, checkpoint baseline included.
  std::uint64_t polls_ = 0;
  std::uint64_t answered_ = 0;
  std::vector<VantageHealthStats> vantage_health_;
  // No-op handles unless CollectorConfig::metrics was wired. The shared
  // families go through count_collection() and count_records().
  obs::Counter metric_checkpoints_;
  std::vector<obs::Counter> metric_vantage_records_;  // per vantage id
};

}  // namespace v6::hitlist
