#include "dist/lease_table.h"

#include <algorithm>
#include <exception>
#include <tuple>
#include <utility>

#include "util/rng.h"

namespace v6::dist {

namespace {

// An upload's or completion's artifact, unless it is malformed or names a
// hostile path.
std::optional<Artifact> safe_artifact(const Frame& frame) {
  try {
    Artifact artifact = decode_artifact(frame.payload);
    if (!validate_artifact_path(artifact.path)) return artifact;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

}  // namespace

std::uint64_t RetryPolicy::wait(std::uint32_t lease,
                                std::uint32_t retry) const noexcept {
  const std::uint32_t r = std::max<std::uint32_t>(retry, 1);
  std::uint64_t wait = base;
  for (std::uint32_t i = 1; i < r && wait < cap; ++i) wait *= 2;
  wait = std::min(wait, cap);
  // Jitter in [0, 0.5): util::Rng::uniform()'s mapping of a pure hash.
  const std::uint64_t h = util::mix64(
      seed ^ 0xba2c0ffu ^
      util::mix64((static_cast<std::uint64_t>(lease) << 32) | r));
  const double jitter = 0.5 * static_cast<double>(h >> 11) * 0x1.0p-53;
  return wait +
         static_cast<std::uint64_t>(static_cast<double>(wait) * jitter);
}

LeaseTable::LeaseTable(const LeaseGrant& whole, std::uint32_t ranges,
                       RetryPolicy retry, DistReport& report)
    : whole_(whole), retry_(retry), report_(report), leases_(ranges) {
  for (std::uint32_t r = 0; r < ranges; ++r) {
    leases_[r].devices = util::shard_range(whole.device_end, r, ranges);
    leases_[r].resume_from = whole.resume_from;
  }
  report_.ranges = ranges;
}

bool LeaseTable::all_done() const noexcept {
  return std::all_of(leases_.begin(), leases_.end(),
                     [](const LeaseRecord& lease) { return lease.done; });
}

std::uint32_t LeaseTable::held_by(std::uint32_t worker) const noexcept {
  for (std::uint32_t id = 0; id < size(); ++id) {
    if (leases_[id].holder == worker) return id;
  }
  return kNoLease;
}

std::optional<Pairing> LeaseTable::pair(
    std::span<const IdleWorker> workers,
    const std::function<bool(std::uint32_t, std::uint64_t)>& veto) const {
  std::optional<Pairing> best;
  for (std::uint32_t id = 0; id < size(); ++id) {
    const LeaseRecord& lease = leases_[id];
    if (lease.done || lease.holder) continue;
    for (const IdleWorker& worker : workers) {
      const std::uint64_t at = std::max(lease.available_at, worker.free_at);
      if (veto && veto(worker.id, at)) continue;
      if (!best || std::tie(at, id, worker.id) <
                       std::tie(best->at, best->lease, best->worker)) {
        best = Pairing{id, worker.id, at};
      }
    }
  }
  return best;
}

Frame LeaseTable::grant(std::uint32_t id, std::uint32_t worker,
                        std::uint64_t at) {
  LeaseRecord& lease = leases_[id];
  lease.holder = worker;
  ++report_.leases_granted;
  if (lease.failed_at) {
    report_.recovery_latency_total += at - *lease.failed_at;
    lease.failed_at.reset();
  }
  LeaseGrant grant = whole_;
  grant.resume_from = lease.resume_from;
  grant.device_begin = lease.devices.begin;
  grant.device_end = lease.devices.end;
  grant.checkpoint_path = lease.checkpoint_path;
  return send(FrameType::kLeaseGrant, id, lease.epoch, at,
              encode_lease_grant(grant));
}

void LeaseTable::reassign(std::uint32_t id, std::uint64_t failed_at,
                          std::uint64_t detected_at) {
  LeaseRecord& lease = leases_[id];
  ++lease.epoch;
  ++lease.retries;
  lease.holder.reset();
  lease.available_at = detected_at + retry_.wait(id, lease.retries);
  lease.failed_at = failed_at;
  ++report_.reassignments;
}

Frame LeaseTable::revoke(std::uint32_t id, std::uint64_t at) {
  Frame frame = send(FrameType::kRevoke, id, leases_[id].epoch, at);
  reassign(id, at, at);
  return frame;
}

Frame LeaseTable::shutdown(std::uint64_t at) {
  return send(FrameType::kShutdown, kNoLease, 0, at);
}

LeaseRecord* LeaseTable::fence(const Frame& frame, bool payload_ok) {
  if (payload_ok && frame.lease < size()) {
    LeaseRecord& lease = leases_[frame.lease];
    if (frame.epoch == lease.epoch && !lease.done) return &lease;
  }
  ++report_.stale_uploads_rejected;
  return nullptr;
}

bool LeaseTable::upload(const Frame& frame, std::uint64_t resume_from) {
  const std::optional<Artifact> artifact = safe_artifact(frame);
  LeaseRecord* lease = fence(frame, artifact.has_value());
  if (lease == nullptr) return false;
  lease->checkpoint_path = artifact->path;
  lease->resume_from = resume_from;
  ++report_.checkpoints_uploaded;
  return true;
}

bool LeaseTable::complete(const Frame& frame) {
  const std::optional<Artifact> artifact = safe_artifact(frame);
  LeaseRecord* lease = fence(frame, artifact.has_value());
  if (lease == nullptr) return false;
  lease->done = true;
  lease->holder.reset();
  lease->checkpoint_path = artifact->path;
  lease->resume_from = whole_.window_end;
  return true;
}

bool LeaseTable::report(const Frame& frame) {
  std::optional<ObsReport> obs;
  try {
    obs = decode_obs_report(frame.payload);
  } catch (const std::exception&) {
  }
  if (fence(frame, obs.has_value()) == nullptr) return false;
  report_.cluster_obs.add_worker(frame.sender, frame.lease,
                                 std::move(obs->snapshot),
                                 std::move(obs->windows));
  return true;
}

Frame LeaseTable::send(FrameType type, std::uint32_t lease,
                       std::uint32_t epoch, std::uint64_t at,
                       std::vector<std::uint8_t> payload) {
  return Frame{type, kCoordinatorId, lease, epoch, seq_++, at,
               std::move(payload)};
}

}  // namespace v6::dist
