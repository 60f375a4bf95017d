// The one lease state machine of both dist coordinators, SimCluster on
// its lane clock and the real Coordinator on the wall clock. It reads no
// clock: every instant is an integer in the caller's unit (lane sim
// seconds or wall milliseconds). It owns the lease records, the pairing
// of open leases with workers, the epoch fence for worker reports, the
// reassignment backoff and the coordinator's frames; the callers log and
// deliver those frames and keep their clocks and transports.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "hitlist/passive_collector.h"
#include "obs/cluster.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace v6::dist {

// What a dist run did — the observability of the run, not its result
// (the corpus is the result, and it never varies with any of this), in
// the caller's unit. The LeaseTable counts grants, uploads,
// reassignments, rejections and recovery latency; the caller the rest.
struct DistReport {
  std::uint32_t workers = 0;         // including respawned replacements
  std::uint32_t ranges = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t checkpoints_uploaded = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t timeouts = 0;        // heartbeat timeouts fired
  std::uint64_t reassignments = 0;
  std::uint64_t stale_uploads_rejected = 0;  // bounced by the fence
  std::uint64_t replayed_chunks = 0;
  // Sum over reassignments of (recovery grant - failure).
  std::uint64_t recovery_latency_total = 0;
  // Instant the last lease completed.
  util::SimTime finished_at = 0;
  // Summed collector counters (equal to the single-process values).
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<hitlist::VantageHealthStats> vantage_health;
  // SimCluster: concatenated V6DIST02 frames of everything said on the
  // wire; passes lint_dist_frames(). The Coordinator writes frames.log.
  std::vector<std::uint8_t> frame_log;
  // The accepted kObsReport of each completing lease. Counter families
  // aggregate to exactly the single-process values at any worker count
  // and under any fault plan (aborted leases upload nothing).
  obs::ClusterAggregator cluster_obs;
};

// Reassignment backoff: retry r of a lease waits min(cap, base * 2^(r-1)),
// stretched by up to half of itself by a pure hash of (seed, lease, r), so
// the wait never depends on scheduling order. Units are the caller's.
struct RetryPolicy {
  std::uint64_t base = 0;
  std::uint64_t cap = 0;
  std::uint64_t seed = 0;

  std::uint64_t wait(std::uint32_t lease, std::uint32_t retry) const noexcept;
};

struct LeaseRecord {
  util::ShardRange devices;
  std::uint32_t epoch = 0;  // bumped by every reassignment
  std::uint32_t retries = 0;
  std::optional<std::uint32_t> holder;  // the worker running it
  bool done = false;
  std::uint64_t available_at = 0;
  std::optional<std::uint64_t> failed_at;  // until the recovery grant
  // The last accepted checkpoint artifact and its resume point (once
  // done: the final artifact and the window end).
  std::string checkpoint_path;
  std::uint64_t resume_from = 0;
};

// A worker that can take a lease from `free_at` on.
struct IdleWorker {
  std::uint32_t id = 0;
  std::uint64_t free_at = 0;
};

struct Pairing {
  std::uint32_t lease = 0;
  std::uint32_t worker = 0;
  std::uint64_t at = 0;  // max(lease available, worker free)
};

class LeaseTable {
 public:
  // `whole` is what every lease is granted before its first upload: the
  // window, chunk grid and resume point, over the devices [0, device_end)
  // that util::shard_range cuts into `ranges` leases, open from instant 0.
  // The table counts into `report`, which must outlive it.
  LeaseTable(const LeaseGrant& whole, std::uint32_t ranges, RetryPolicy retry,
             DistReport& report);

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(leases_.size());
  }
  const LeaseRecord& lease(std::uint32_t id) const { return leases_[id]; }
  bool all_done() const noexcept;
  // The lease `worker` holds, or kNoLease.
  std::uint32_t held_by(std::uint32_t worker) const noexcept;

  // The earliest-starting pair of an open (unheld, unfinished) lease and
  // one of `workers`, ties broken by lease id then worker id, skipping
  // pairs `veto(worker, at)` refuses; nullopt when none is left.
  std::optional<Pairing> pair(
      std::span<const IdleWorker> workers,
      const std::function<bool(std::uint32_t, std::uint64_t)>& veto = {})
      const;

  // Resumes from the last accepted checkpoint.
  Frame grant(std::uint32_t lease, std::uint32_t worker, std::uint64_t at);
  // Fences `lease` off its holder (the epoch moves on, so the holder's
  // later frames bounce); it reopens after the backoff from `detected_at`.
  void reassign(std::uint32_t lease, std::uint64_t failed_at,
                std::uint64_t detected_at);
  // reassign(lease, at, at), with the kRevoke that tells the holder; it
  // names the revoked epoch.
  Frame revoke(std::uint32_t lease, std::uint64_t at);
  Frame shutdown(std::uint64_t at);

  // The epoch fence of the three worker frame types: a frame for an
  // unknown or finished lease, at a stale epoch, or with a malformed
  // payload or hostile path is rejected (false) and counted. An accepted
  // upload becomes the resume point, a completion finishes the lease, and
  // a report goes into cluster_obs.
  bool upload(const Frame& frame, std::uint64_t resume_from);
  bool complete(const Frame& frame);
  bool report(const Frame& frame);

 private:
  LeaseRecord* fence(const Frame& frame, bool payload_ok);
  Frame send(FrameType type, std::uint32_t lease, std::uint32_t epoch,
             std::uint64_t at, std::vector<std::uint8_t> payload = {});

  LeaseGrant whole_;
  RetryPolicy retry_;
  DistReport& report_;
  std::vector<LeaseRecord> leases_;
  std::uint64_t seq_ = 0;
};

}  // namespace v6::dist
