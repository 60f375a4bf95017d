#include "dist/sim_cluster.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/lease.h"
#include "hitlist/checkpoint_io.h"
#include "util/thread_pool.h"

namespace v6::dist {

namespace {

// A replacement worker comes up this long after a death is detected.
constexpr util::SimDuration kRespawnDelay = 2 * util::kHour;
// Lane cost of replaying one already-collected sim second of a range
// (replay skips recording and the corpus table work, so it is cheaper).
constexpr double kReplayCost = 0.125;

// Lease-aborting events, thrown out of the checkpoint sink.
struct WorkerDied {
  util::SimTime at;
};
struct LeaseRevoked {
  util::SimTime revoked_at;
  util::SimTime wake;
};

struct WorkerState {
  std::uint32_t id = 0;
  util::SimTime free_at = 0;
  bool alive = true;
  std::uint64_t seq = 0;  // of its next frame; 0 until its hello
};

std::uint64_t instant(util::SimTime t) {
  return static_cast<std::uint64_t>(t);
}

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
  ranges.push_back(std::move(out));
  out = hitlist::Corpus::canonical_merge(std::move(ranges));
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
  report.workers = config_.workers;
  LeaseTable table(
      LeaseGrant{.window_start = instant(start),
                 .window_end = instant(end),
                 .chunk_interval = instant(config_.chunk_interval),
                 .resume_from = instant(from.resume_from),
                 .device_end = env_.world->devices().size()},
      config_.workers,
      // Reassignment backoff: one hour doubling to twelve.
      {instant(util::kHour), instant(12 * util::kHour), config_.seed}, report);
  // The in-memory checkpoint of each lease's last accepted upload.
  std::vector<std::optional<hitlist::CollectionCheckpoint>> ckpts(
      table.size());

  const auto log = [&report](const Frame& frame) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    report.frame_log.insert(report.frame_log.end(), bytes.begin(),
                            bytes.end());
  };
  // Logs a frame `wk` sends and returns it for the fence.
  const auto send = [&log](WorkerState& wk, FrameType type,
                           std::uint32_t lease, std::uint32_t epoch,
                           util::SimTime at,
                           std::vector<std::uint8_t> payload = {}) {
    Frame frame{type, wk.id, lease, epoch, wk.seq++, instant(at),
                std::move(payload)};
    log(frame);
    return frame;
  };

  // Adds to a v6_dist_* counter of the caller's registry, if any.
  const auto count = [this](std::string_view name, std::string_view help,
                            obs::Labels labels = {}, std::uint64_t n = 1) {
    if (registry_ != nullptr) {
      registry_->counter(name, help, std::move(labels)).inc(n);
    }
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

  // Worker ids are their indices: respawns append.
  std::vector<WorkerState> workers(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    workers[w] = WorkerState{w, start};
    set_alive(w, 1.0);
  }

  const auto kill_worker = [&](WorkerState& wk, util::SimTime at) {
    wk.alive = false;
    ++report.worker_deaths;
    set_alive(wk.id, 0.0);
    count("v6_dist_worker_deaths_total", "Worker processes that died");
    if (config_.respawn) {
      // The coordinator notices the death one heartbeat timeout after the
      // last heartbeat and provisions a replacement kRespawnDelay later.
      const auto id = static_cast<std::uint32_t>(workers.size());
      workers.push_back(
          WorkerState{id, at + config_.heartbeat_timeout + kRespawnDelay});
      ++report.workers;
      set_alive(id, 1.0);
    }
  };

  // The heartbeat timeout that took `lease` off `wk`.
  const auto timed_out = [&](const WorkerState& wk, std::uint32_t lease) {
    ++report.timeouts;
    count("v6_dist_timeouts_total", "Heartbeat timeouts fired",
          worker_labels(wk.id));
    count("v6_dist_reassignments_total", "Lease reassignments",
          {{"lease", std::to_string(lease)}});
  };

  // A worker fated to die before a lease would start never takes it.
  const auto doomed_by = [plan](std::uint32_t w, std::uint64_t at) {
    const std::optional<util::SimTime> kill = plan->kill_at(w);
    return kill && instant(*kill) <= at;
  };
  std::vector<IdleWorker> live;
  while (!table.all_done()) {
    live.clear();
    for (const WorkerState& wk : workers) {
      if (wk.alive) live.push_back({wk.id, instant(wk.free_at)});
    }
    const std::optional<Pairing> next = table.pair(live, doomed_by);
    if (!next) {
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

    const std::uint32_t id = next->lease;
    const LeaseRecord& lease = table.lease(id);
    const std::uint32_t epoch = lease.epoch;
    WorkerState& wk = workers[next->worker];
    const auto g = static_cast<util::SimTime>(next->at);
    std::optional<hitlist::CollectionCheckpoint>& ckpt = ckpts[id];

    // --- grant ------------------------------------------------------------
    count("v6_dist_leases_total", "Chunk leases granted",
          worker_labels(wk.id));
    if (wk.seq == 0) send(wk, FrameType::kHello, kNoLease, 0, g);
    // Recovery becomes a timeline window: the grant closes a
    // "dist.recover" window at the cluster instant work restarted.
    if (lease.failed_at && sampler_ != nullptr) {
      sampler_->sample(g, "dist.recover");
    }
    // A fresh lease starts from the caller's resume point with zeroed
    // counters (the caller's checkpoint totals are added once, below).
    hitlist::CheckpointState lease_from =
        ckpt ? ckpt->state : hitlist::CheckpointState::fresh(start, end);
    if (!ckpt) lease_from.resume_from = from.resume_from;
    if (lease_from.resume_from > start) {
      const std::uint64_t replayed = static_cast<std::uint64_t>(
          (lease_from.resume_from - start) / config_.chunk_interval);
      report.replayed_chunks += replayed;
      count("v6_dist_replayed_chunks_total",
            "Already-collected chunks replayed by leases", {}, replayed);
    }
    log(table.grant(id, wk.id, next->at));

    // --- the lease itself -------------------------------------------------
    hitlist::Corpus corpus =
        ckpt ? ckpt->corpus.copy() : hitlist::Corpus(1 << 12);
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
      send(wk, FrameType::kHeartbeat, id, epoch, lane);
      ++report.heartbeats;
      const std::uint64_t at = instant(state.resume_from);
      const Frame frame = send(
          wk, FrameType::kCheckpointUpload, id, epoch, lane,
          encode_artifact({checkpoint_path(id, epoch, at),
                           snapshot.total_observations()}));
      // Durable once accepted: a later recovery lease resumes from exactly
      // this instant.
      if (table.upload(frame, at)) {
        ckpt = hitlist::CollectionCheckpoint{state, snapshot.copy()};
        count("v6_dist_uploads_total", "Durable checkpoint uploads",
              worker_labels(wk.id));
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
      LeaseResult done = run_lease(env_, lease.devices, config_.chunk_interval,
                                   lease_from, corpus, upload);
      // The final partial chunk has no interior boundary; its upload is
      // the completion itself, and death or a stall-out on the way still
      // aborts the lease.
      advance_to(end);
      report.polls_attempted += done.state.polls_attempted;
      report.polls_answered += done.state.polls_answered;
      hitlist::add_vantage_health(report.vantage_health,
                                  done.state.vantage_health);
      // The observability report goes up at the completion barrier, just
      // before kComplete.
      table.report(send(wk, FrameType::kObsReport, id, epoch, lane,
                        encode_obs_report(done.obs)));
      table.complete(send(
          wk, FrameType::kComplete, id, epoch, lane,
          encode_artifact({checkpoint_path(id, epoch, instant(end)),
                           corpus.total_observations()})));
      ckpt.reset();
      deliver(std::move(corpus));
      wk.free_at = lane;
      report.finished_at = std::max(report.finished_at, lane);
    } catch (const WorkerDied& died) {
      // Heartbeat silence from the death instant; detection one timeout
      // later; the lease is reassigned after backoff. Work since the last
      // durable upload is gone — and that is fine, the replacement
      // replays it from the checkpoint.
      table.reassign(id, instant(died.at),
                     instant(died.at + config_.heartbeat_timeout));
      timed_out(wk, id);
      kill_worker(wk, died.at);
    } catch (const LeaseRevoked& revoked) {
      // The worker stalled past the timeout: the coordinator fenced the
      // lease off while the worker slept. Its upload on waking carries the
      // stale epoch and bounces — the zombie cannot double-count anything.
      log(table.revoke(id, instant(revoked.revoked_at)));
      timed_out(wk, id);
      const Frame stale =
          send(wk, FrameType::kCheckpointUpload, id, epoch, revoked.wake,
               encode_artifact({checkpoint_path(id, epoch, instant(prev))}));
      if (!table.upload(stale, instant(prev))) {
        count("v6_dist_stale_uploads_total",
              "Uploads rejected by epoch fencing");
      }
      wk.free_at = revoked.wake;
    }
  }

  log(table.shutdown(instant(report.finished_at)));

  report.vantage_health.resize(env_.world->vantages().size());
  if (registry_ != nullptr) {
    // Collector-family totals of this run's work, bulk-added post-merge
    // exactly like the single-process collector's merge-time flush.
    hitlist::count_collection(*registry_, report.polls_attempted,
                              report.polls_answered, report.vantage_health);
    count("v6_dist_heartbeats_total", "Worker heartbeats received", {},
          report.heartbeats);
  }
  // Report totals continue from the caller's checkpoint.
  report.polls_attempted += from.polls_attempted;
  report.polls_answered += from.polls_answered;
  hitlist::add_vantage_health(report.vantage_health, from.vantage_health);
  return report;
}

}  // namespace v6::dist
