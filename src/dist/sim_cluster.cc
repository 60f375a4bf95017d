#include "dist/sim_cluster.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/lease.h"
#include "hitlist/checkpoint_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace v6::dist {

namespace {

// Reassignment backoff: retry r of a lease waits
// min(kRetryCap, kRetryBackoff * 2^(r-1)), stretched by up to kRetryJitter
// of itself (seeded jitter: a pure hash of (seed, lease, r)).
constexpr util::SimDuration kRetryBackoff = util::kHour;
constexpr util::SimDuration kRetryCap = 12 * util::kHour;
constexpr double kRetryJitter = 0.5;
// A replacement worker comes up this long after a death is detected.
constexpr util::SimDuration kRespawnDelay = 2 * util::kHour;
// Lane cost of replaying one already-collected sim second of a range
// (replay skips recording and the corpus table work, so it is cheaper).
constexpr double kReplayCost = 0.125;

// Same raw-draw-to-[0,1) mapping as util::Rng::uniform(), applied to a
// pure hash so the reassignment jitter never consumes an RNG stream.
double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Lease-aborting events, thrown out of the checkpoint sink.
struct WorkerDied {
  util::SimTime at;
};
struct LeaseRevoked {
  util::SimTime revoked_at;
  util::SimTime wake;
};

// Appends frames to the log with per-sender strictly-increasing seqs (the
// invariant lint_dist_frames enforces).
class Emitter {
 public:
  explicit Emitter(std::vector<std::uint8_t>* log) : log_(log) {}

  void emit(FrameType type, std::uint32_t sender, std::uint32_t lease,
            std::uint32_t epoch, std::uint64_t sim_time,
            std::vector<std::uint8_t> payload = {}) {
    const std::vector<std::uint8_t> bytes =
        encode_frame(Frame{type, sender, lease, epoch, seq_[sender]++,
                           sim_time, std::move(payload)});
    log_->insert(log_->end(), bytes.begin(), bytes.end());
  }

 private:
  std::vector<std::uint8_t>* log_;
  std::map<std::uint32_t, std::uint64_t> seq_;
};

struct WorkerState {
  std::uint32_t id = 0;
  util::SimTime free_at = 0;
  bool alive = true;
  bool said_hello = false;
};

struct LeaseState {
  std::uint32_t id = 0;
  util::ShardRange devices;
  bool done = false;
  util::SimTime available_at = 0;
  std::uint32_t epoch = 0;
  std::uint32_t retries = 0;
  // Failure instant awaiting its recovery grant (for latency accounting).
  std::optional<util::SimTime> failed_at;
  std::optional<hitlist::CollectionCheckpoint> ckpt;
};

}  // namespace

SimCluster::SimCluster(const sim::World& world, netsim::DataPlane& plane,
                       const netsim::PoolDns& dns,
                       const hitlist::CollectorConfig& collector_cfg,
                       const DistConfig& config,
                       netsim::WorkerFaultSchedule* faults,
                       obs::Registry* registry, obs::TimelineSampler* sampler)
    : env_{.world = &world,
           .plane = &plane,
           .dns = &dns,
           .collector = collector_cfg},
      config_(config),
      faults_(faults),
      registry_(registry),
      sampler_(sampler) {
  if (config_.workers == 0) {
    throw std::invalid_argument("SimCluster: at least one worker");
  }
  if (config_.chunk_interval <= 0) {
    throw std::invalid_argument("SimCluster: chunk_interval must be > 0");
  }
  if (env_.collector.wire_fidelity) {
    // The wire path delivers every poll to the UDP services bound on the
    // one shared DataPlane (one binding per vantage address), which
    // per-range runs cannot share. Fail loudly instead of silently losing
    // bit-identity.
    throw std::invalid_argument(
        "SimCluster: wire_fidelity collection cannot be distributed");
  }
}

DistReport SimCluster::run(hitlist::Corpus& out, util::SimTime start,
                           util::SimTime end) {
  return run(out, hitlist::CheckpointState::fresh(start, end));
}

DistReport SimCluster::run(hitlist::Corpus& out,
                           const hitlist::CheckpointState& from) {
  const std::size_t records = out.size();
  const std::uint64_t observations = out.total_observations();
  std::vector<hitlist::Corpus> ranges;
  DistReport report = collect(from, [&ranges](hitlist::Corpus&& range) {
    ranges.push_back(std::move(range));
  });
  // Corpus aggregation is commutative and the ranges are disjoint, so one
  // canonical union of the caller's snapshot and the delivered ranges is
  // the same reduce the sharded single-process run performs.
  std::vector<const hitlist::Corpus*> parts{&out};
  for (const hitlist::Corpus& range : ranges) parts.push_back(&range);
  std::vector<hitlist::AddressRecord> merged =
      hitlist::Corpus::canonical_union(parts);
  ranges.clear();
  out = hitlist::Corpus::from_canonical(std::move(merged));
  count_records(out.size() - records,
                out.total_observations() - observations);
  return report;
}

DistReport SimCluster::run(hitlist::TieredCorpus& runs,
                           const hitlist::CheckpointState& from) {
  const std::uint64_t records = runs.merged_size();
  const std::uint64_t observations = runs.total_observations();
  DistReport report = collect(from, [&runs](hitlist::Corpus&& range) {
    runs.spill(std::move(range));
  });
  count_records(runs.merged_size() - records,
                runs.total_observations() - observations);
  return report;
}

void SimCluster::count_records(std::uint64_t admitted,
                               std::uint64_t observations) {
  // Dedup-aware record count (union size), matching the single-process
  // exposition.
  if (registry_ != nullptr) {
    hitlist::count_records(*registry_, admitted,
                           observations - std::min(observations, admitted));
  }
}

DistReport SimCluster::collect(
    const hitlist::CheckpointState& from,
    const std::function<void(hitlist::Corpus&&)>& deliver) {
  const util::SimTime start = from.window_start;
  const util::SimTime end = from.window_end;
  const std::uint32_t range_count =
      config_.ranges != 0 ? config_.ranges
                          : std::max<std::uint32_t>(1, config_.workers);
  netsim::WorkerFaultSchedule local_plan =
      config_.worker_faults.active()
          ? netsim::WorkerFaultSchedule(config_.workers, config_.worker_faults,
                                        start, end)
          : netsim::WorkerFaultSchedule(config_.workers);
  if (config_.forced_kills > 0) {
    // Exactly K kills at evenly staggered lane times (see DistConfig).
    const std::uint32_t kills =
        std::min(config_.forced_kills, config_.workers);
    for (std::uint32_t w = 0; w < kills; ++w) {
      const util::SimTime at =
          start + (end - start) * static_cast<util::SimDuration>(w + 1) /
                      static_cast<util::SimDuration>(kills + 1);
      local_plan.set_kill(w, at);
    }
  }
  netsim::WorkerFaultSchedule* plan = faults_ != nullptr ? faults_ : &local_plan;

  DistReport report;
  report.ranges = range_count;
  report.workers = config_.workers;
  Emitter wire(&report.frame_log);

  const auto counter = [this](std::string_view name, std::string_view help,
                              obs::Labels labels = {}) {
    return registry_->counter(name, help, std::move(labels));
  };
  const auto worker_labels = [](std::uint32_t w) {
    return obs::Labels{{"worker", std::to_string(w)}};
  };
  const auto set_alive = [&](std::uint32_t w, double v) {
    if (registry_ == nullptr) return;
    registry_
        ->gauge("v6_dist_worker_alive", "1 while the worker process lives",
                worker_labels(w))
        .set(v);
  };

  std::vector<WorkerState> workers(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    workers[w] = WorkerState{w, start, true, false};
    set_alive(w, 1.0);
  }
  std::uint32_t next_worker_id = config_.workers;

  std::vector<LeaseState> leases(range_count);
  for (std::uint32_t r = 0; r < range_count; ++r) {
    leases[r].id = r;
    leases[r].devices =
        util::shard_range(env_.world->devices().size(), r, range_count);
    leases[r].available_at = start;
  }

  const auto backoff_until = [&](const LeaseState& ss,
                                 util::SimTime from) -> util::SimTime {
    // Capped exponential backoff with seeded jitter (see kRetryBackoff).
    // Pure hash -> deterministic at any scheduling order.
    const std::uint32_t r = std::max<std::uint32_t>(ss.retries, 1);
    util::SimDuration base = kRetryBackoff;
    for (std::uint32_t i = 1; i < r && base < kRetryCap; ++i) {
      base *= 2;
    }
    base = std::min(base, kRetryCap);
    const double jitter =
        kRetryJitter *
        unit(util::mix64(config_.seed ^ 0xba2c0ffu ^
                         util::mix64((static_cast<std::uint64_t>(ss.id) << 32) |
                                     r)));
    return from + base +
           static_cast<util::SimDuration>(static_cast<double>(base) * jitter);
  };

  const auto kill_worker = [&](WorkerState& wk, util::SimTime at) {
    wk.alive = false;
    ++report.worker_deaths;
    set_alive(wk.id, 0.0);
    if (registry_ != nullptr) {
      counter("v6_dist_worker_deaths_total", "Worker processes that died")
          .inc();
    }
    if (config_.respawn) {
      // The coordinator notices the death one heartbeat timeout after the
      // last heartbeat and provisions a replacement kRespawnDelay later.
      WorkerState fresh;
      fresh.id = next_worker_id++;
      fresh.free_at = at + config_.heartbeat_timeout + kRespawnDelay;
      workers.push_back(fresh);
      ++report.workers;
      set_alive(fresh.id, 1.0);
    }
  };

  // A lease that failed at `at` goes back to the pool under a new epoch,
  // available after backoff from `from`.
  const auto lease_failed = [&](LeaseState& ss, const WorkerState& wk,
                                util::SimTime at, util::SimTime from) {
    ++report.timeouts;
    ++report.reassignments;
    if (registry_ != nullptr) {
      counter("v6_dist_timeouts_total", "Heartbeat timeouts fired",
              worker_labels(wk.id))
          .inc();
      counter("v6_dist_reassignments_total", "Lease reassignments",
              obs::Labels{{"lease", std::to_string(ss.id)}})
          .inc();
    }
    ++ss.epoch;
    ++ss.retries;
    ss.available_at = backoff_until(ss, from);
    ss.failed_at = at;
  };

  while (true) {
    bool all_done = true;
    for (const LeaseState& ss : leases) {
      if (!ss.done) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    // Earliest-start pairing, tie-broken by lease then worker id — a
    // deterministic event loop, not a heuristic scheduler.
    LeaseState* best_ss = nullptr;
    WorkerState* best_wk = nullptr;
    util::SimTime best_g = 0;
    for (LeaseState& ss : leases) {
      if (ss.done) continue;
      for (WorkerState& wk : workers) {
        if (!wk.alive) continue;
        const util::SimTime g = std::max(ss.available_at, wk.free_at);
        if (const auto k = plan->kill_at(wk.id); k && *k <= g) continue;
        if (best_ss == nullptr || g < best_g ||
            (g == best_g && (ss.id < best_ss->id ||
                             (ss.id == best_ss->id && wk.id < best_wk->id)))) {
          best_ss = &ss;
          best_wk = &wk;
          best_g = g;
        }
      }
    }
    if (best_ss == nullptr) {
      // Every live worker is fated to die before it could start: process
      // the earliest planned death (which may respawn a replacement).
      WorkerState* doomed = nullptr;
      util::SimTime doom = 0;
      for (WorkerState& wk : workers) {
        if (!wk.alive) continue;
        if (const auto k = plan->kill_at(wk.id);
            k && (doomed == nullptr || *k < doom)) {
          doomed = &wk;
          doom = *k;
        }
      }
      if (doomed == nullptr) {
        throw std::runtime_error(
            "distributed collection stalled: every worker died and respawn "
            "is disabled");
      }
      kill_worker(*doomed, doom);
      continue;
    }

    LeaseState& ss = *best_ss;
    WorkerState& wk = *best_wk;
    const util::SimTime g = best_g;

    // --- grant ------------------------------------------------------------
    ++report.leases_granted;
    if (registry_ != nullptr) {
      counter("v6_dist_leases_total", "Chunk leases granted",
              worker_labels(wk.id))
          .inc();
    }
    if (!wk.said_hello) {
      wk.said_hello = true;
      wire.emit(FrameType::kHello, wk.id, kNoLease, 0,
                static_cast<std::uint64_t>(g));
    }
    // A fresh lease starts from the caller's resume point with zeroed
    // counters (the caller's checkpoint totals are added once, below).
    hitlist::CheckpointState lease_from =
        ss.ckpt ? ss.ckpt->state : hitlist::CheckpointState::fresh(start, end);
    if (!ss.ckpt) lease_from.resume_from = from.resume_from;
    if (ss.failed_at) {
      report.recovery_latency_total +=
          static_cast<std::uint64_t>(g - *ss.failed_at);
      ss.failed_at.reset();
      // Recovery becomes a timeline window: the grant closes a
      // "dist.recover" window at the cluster instant work restarted.
      if (sampler_ != nullptr) {
        sampler_->sample(g, "dist.recover");
      }
    }
    if (lease_from.resume_from > start) {
      const std::uint64_t replayed = static_cast<std::uint64_t>(
          (lease_from.resume_from - start) / config_.chunk_interval);
      report.replayed_chunks += replayed;
      if (registry_ != nullptr) {
        counter("v6_dist_replayed_chunks_total",
                "Already-collected chunks replayed by leases")
            .inc(replayed);
      }
    }
    LeaseGrant grant;
    grant.window_start = static_cast<std::uint64_t>(start);
    grant.window_end = static_cast<std::uint64_t>(end);
    grant.chunk_interval = static_cast<std::uint64_t>(config_.chunk_interval);
    grant.resume_from = static_cast<std::uint64_t>(lease_from.resume_from);
    grant.device_begin = ss.devices.begin;
    grant.device_end = ss.devices.end;
    if (ss.ckpt) {
      grant.checkpoint_path = checkpoint_path(
          ss.id, ss.epoch, static_cast<std::uint64_t>(lease_from.resume_from));
    }
    wire.emit(FrameType::kLeaseGrant, kCoordinatorId, ss.id, ss.epoch,
              static_cast<std::uint64_t>(g), encode_lease_grant(grant));

    // --- the lease itself -------------------------------------------------
    hitlist::Corpus corpus =
        ss.ckpt ? ss.ckpt->corpus.copy() : hitlist::Corpus(1 << 12);
    const std::optional<util::SimTime> kill = plan->kill_at(wk.id);
    // Lane clock: where this worker's process is on the cluster clock.
    util::SimTime lane = g;
    util::SimTime prev = lease_from.resume_from;

    // Advances the lane over the chunk ending at `to`, applying slow
    // windows, and throws if the worker dies or stalls out on the way.
    const auto advance_to = [&](util::SimTime to) {
      const double cost_factor = plan->cost_factor(wk.id, lane);
      const auto cost = static_cast<util::SimDuration>(
          static_cast<double>(to - prev) * cost_factor);
      util::SimTime t_new = lane + std::max<util::SimDuration>(cost, 0);
      if (kill && *kill <= t_new) throw WorkerDied{*kill};
      if (plan->stalled(wk.id, t_new)) {
        const util::SimTime wake = plan->stall_end(wk.id, t_new);
        if (kill && *kill <= wake) throw WorkerDied{*kill};
        // A healthy worker heartbeats continuously, so silence starts at
        // the stall window's start; outlasting the timeout means the
        // coordinator already revoked the lease under it.
        util::SimTime stall_start = t_new;
        for (const netsim::OutageWindow& w :
             plan->windows(static_cast<std::uint8_t>(wk.id))) {
          if (t_new >= w.start && t_new < w.end) {
            stall_start = w.start;
            break;
          }
        }
        if (wake - stall_start > config_.heartbeat_timeout) {
          throw LeaseRevoked{stall_start + config_.heartbeat_timeout, wake};
        }
        t_new = wake;
      }
      lane = t_new;
      prev = to;
    };

    const auto upload = [&](const hitlist::CheckpointState& state,
                            const hitlist::Corpus& snapshot) {
      advance_to(state.resume_from);
      // Durable: the coordinator holds the (state, corpus) pair; a later
      // recovery lease resumes from exactly this instant.
      ss.ckpt = hitlist::CollectionCheckpoint{state, snapshot.copy()};
      wire.emit(FrameType::kHeartbeat, wk.id, ss.id, ss.epoch,
                static_cast<std::uint64_t>(lane));
      ++report.heartbeats;
      Artifact artifact;
      artifact.path = checkpoint_path(
          ss.id, ss.epoch, static_cast<std::uint64_t>(state.resume_from));
      artifact.bytes = snapshot.total_observations();
      wire.emit(FrameType::kCheckpointUpload, wk.id, ss.id, ss.epoch,
                static_cast<std::uint64_t>(lane), encode_artifact(artifact));
      ++report.checkpoints_uploaded;
      if (registry_ != nullptr) {
        counter("v6_dist_uploads_total", "Durable checkpoint uploads",
                worker_labels(wk.id))
            .inc();
      }
    };

    try {
      // Replaying the checkpointed prefix is cheaper than collecting but
      // not free; the process can die mid-replay too.
      if (lease_from.resume_from > start) {
        lane += static_cast<util::SimDuration>(
            kReplayCost * static_cast<double>(lease_from.resume_from - start));
        if (kill && *kill <= lane) throw WorkerDied{*kill};
      }
      LeaseResult done = run_lease(env_, ss.devices, config_.chunk_interval,
                                   lease_from, corpus, upload);
      // The final partial chunk has no interior boundary; its upload is
      // the completion itself, and death or a stall-out on the way still
      // aborts the lease.
      advance_to(end);
      ss.done = true;
      ss.ckpt.reset();
      report.polls_attempted += done.state.polls_attempted;
      report.polls_answered += done.state.polls_answered;
      hitlist::add_vantage_health(report.vantage_health,
                                  done.state.vantage_health);
      // The observability report goes up at the completion barrier, just
      // before kComplete.
      wire.emit(FrameType::kObsReport, wk.id, ss.id, ss.epoch,
                static_cast<std::uint64_t>(lane), encode_obs_report(done.obs));
      report.cluster_obs.add_worker(wk.id, ss.id,
                                    std::move(done.obs.snapshot),
                                    std::move(done.obs.windows));
      Artifact artifact;
      artifact.path =
          checkpoint_path(ss.id, ss.epoch, static_cast<std::uint64_t>(end));
      artifact.bytes = corpus.total_observations();
      wire.emit(FrameType::kComplete, wk.id, ss.id, ss.epoch,
                static_cast<std::uint64_t>(lane), encode_artifact(artifact));
      deliver(std::move(corpus));
      wk.free_at = lane;
      report.finished_at = std::max(report.finished_at, lane);
    } catch (const WorkerDied& died) {
      // Heartbeat silence from the death instant; detection one timeout
      // later; the lease is reassigned after backoff. Work since the last
      // durable upload is gone — and that is fine, the replacement
      // replays it from ss.ckpt.
      lease_failed(ss, wk, died.at, died.at + config_.heartbeat_timeout);
      kill_worker(wk, died.at);
    } catch (const LeaseRevoked& revoked) {
      // The worker stalled past the timeout: the coordinator fenced the
      // lease off (epoch bump) while the worker slept. Its upload on
      // waking carries the stale epoch and bounces — the zombie cannot
      // double-count anything.
      ++report.stale_uploads_rejected;
      if (registry_ != nullptr) {
        counter("v6_dist_stale_uploads_total",
                "Uploads rejected by epoch fencing")
            .inc();
      }
      wire.emit(FrameType::kRevoke, kCoordinatorId, ss.id, ss.epoch,
                static_cast<std::uint64_t>(revoked.revoked_at));
      Artifact stale;
      stale.path = checkpoint_path(ss.id, ss.epoch,
                                   static_cast<std::uint64_t>(prev));
      wire.emit(FrameType::kCheckpointUpload, wk.id, ss.id, ss.epoch,
                static_cast<std::uint64_t>(revoked.wake),
                encode_artifact(stale));
      lease_failed(ss, wk, revoked.revoked_at, revoked.revoked_at);
      wk.free_at = revoked.wake;
    }
  }

  wire.emit(FrameType::kShutdown, kCoordinatorId, kNoLease, 0,
            static_cast<std::uint64_t>(report.finished_at));

  report.vantage_health.resize(env_.world->vantages().size());
  if (registry_ != nullptr) {
    // Collector-family totals of this run's work, bulk-added post-merge
    // exactly like the single-process collector's merge-time flush.
    hitlist::count_collection(*registry_, report.polls_attempted,
                              report.polls_answered, report.vantage_health);
    counter("v6_dist_heartbeats_total", "Worker heartbeats received")
        .inc(report.heartbeats);
  }
  // Report totals continue from the caller's checkpoint.
  report.polls_attempted += from.polls_attempted;
  report.polls_answered += from.polls_answered;
  hitlist::add_vantage_health(report.vantage_health, from.vantage_health);
  return report;
}

}  // namespace v6::dist
