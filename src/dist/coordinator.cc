#include "dist/coordinator.h"

#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/transport.h"
#include "util/thread_pool.h"

namespace v6::dist {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

struct WorkerPeer {
  std::uint32_t id = 0;
  bool alive = true;
  // kNoLease while idle; the lease it holds otherwise.
  std::uint32_t lease = kNoLease;
  std::uint64_t last_seen_ms = 0;
};

struct LeaseSlot {
  std::uint32_t id = 0;
  util::ShardRange devices;
  bool done = false;
  bool running = false;
  std::uint32_t epoch = 0;
  std::uint64_t available_at_ms = 0;
  // Last durable checkpoint: relative artifact path + its resume point
  // (carried in the upload frame's sim_time).
  std::string ckpt_path;
  std::uint64_t resume_from = 0;
  std::string final_path;
};

}  // namespace

Coordinator::Coordinator(const CoordinatorConfig& config) : config_(config) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("Coordinator: run directory required");
  }
  if (config_.workers == 0) {
    throw std::invalid_argument("Coordinator: at least one worker");
  }
  if (config_.chunk_interval <= 0) {
    throw std::invalid_argument("Coordinator: chunk_interval must be > 0");
  }
  if (config_.devices == 0) {
    throw std::invalid_argument("Coordinator: device count required");
  }
}

CoordinatorResult Coordinator::run(util::SimTime start, util::SimTime end) {
  const std::uint32_t range_count =
      config_.ranges != 0 ? config_.ranges : config_.workers;
  Mailbox inbox(config_.dir + "/to-coordinator");
  std::ofstream frame_log(config_.dir + "/frames.log",
                          std::ios::binary | std::ios::app);
  if (!frame_log) {
    throw std::runtime_error("coordinator: cannot open frames.log");
  }
  // The coordinator is the single frames.log writer: it appends frames it
  // sends at send time and frames it receives at drain time, so the log
  // needs no cross-process locking.
  const auto log_frame = [&](const Frame& frame) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    frame_log.write(reinterpret_cast<const char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
    frame_log.flush();
  };

  std::map<std::uint32_t, WorkerPeer> peers;
  std::map<std::uint32_t, Mailbox> outboxes;
  std::map<std::uint32_t, std::uint64_t> next_rx_seq;
  std::uint64_t tx_seq = 0;
  const auto outbox_for = [&](std::uint32_t worker) -> Mailbox& {
    auto it = outboxes.find(worker);
    if (it == outboxes.end()) {
      it = outboxes
               .emplace(worker, Mailbox(config_.dir + "/to-worker-" +
                                        std::to_string(worker)))
               .first;
    }
    return it->second;
  };
  const auto send = [&](std::uint32_t worker, FrameType type,
                        std::uint32_t lease, std::uint32_t epoch,
                        std::uint64_t sim_time,
                        std::vector<std::uint8_t> payload = {}) {
    const Frame frame{type, kCoordinatorId, lease, epoch,
                      tx_seq++, sim_time, std::move(payload)};
    outbox_for(worker).post(frame);
    log_frame(frame);
  };

  std::vector<LeaseSlot> leases(range_count);
  for (std::uint32_t r = 0; r < range_count; ++r) {
    leases[r].id = r;
    leases[r].devices = util::shard_range(config_.devices, r, range_count);
    leases[r].resume_from = static_cast<std::uint64_t>(start);
  }

  CoordinatorResult result;
  const Clock::time_point t0 = Clock::now();

  const auto artifact_ok = [&](const Artifact& artifact) {
    return !validate_artifact_path(artifact.path).has_value();
  };

  while (true) {
    const std::uint64_t now = ms_since(t0);
    if (now > config_.max_wall_ms) {
      throw std::runtime_error(
          "coordinator: deadline exceeded before every lease completed");
    }

    for (const Frame& frame : inbox.drain()) {
      // Per-sender FIFO dedup: drain() may redeliver a frame whose file
      // could not be removed; old seqs are already-processed duplicates.
      auto [it, fresh] = next_rx_seq.try_emplace(frame.sender, 0);
      if (!fresh && frame.seq < it->second) continue;
      it->second = frame.seq + 1;
      log_frame(frame);
      WorkerPeer& peer =
          peers.try_emplace(frame.sender, WorkerPeer{frame.sender})
              .first->second;
      peer.last_seen_ms = now;
      switch (frame.type) {
        case FrameType::kHello:
        case FrameType::kHeartbeat:
          break;
        case FrameType::kCheckpointUpload: {
          if (frame.lease >= range_count) break;
          LeaseSlot& slot = leases[frame.lease];
          const Artifact artifact = decode_artifact(frame.payload);
          // Epoch fencing: a revoked-then-woken zombie reports with the
          // old epoch and must not overwrite the live lease's progress.
          if (frame.epoch != slot.epoch || slot.done ||
              !artifact_ok(artifact)) {
            ++result.stale_uploads_rejected;
            break;
          }
          slot.ckpt_path = artifact.path;
          slot.resume_from = frame.sim_time;
          ++result.checkpoints_uploaded;
          break;
        }
        case FrameType::kComplete: {
          if (frame.lease >= range_count) break;
          LeaseSlot& slot = leases[frame.lease];
          const Artifact artifact = decode_artifact(frame.payload);
          if (frame.epoch != slot.epoch || slot.done ||
              !artifact_ok(artifact)) {
            ++result.stale_uploads_rejected;
            break;
          }
          slot.done = true;
          slot.running = false;
          slot.final_path = artifact.path;
          if (peer.lease == frame.lease) peer.lease = kNoLease;
          break;
        }
        case FrameType::kObsReport: {
          // Same epoch fence as uploads: a zombie's report must not
          // replace the live lease's, and a malformed payload is treated
          // exactly like a hostile artifact path.
          if (frame.lease >= range_count) break;
          LeaseSlot& slot = leases[frame.lease];
          if (frame.epoch != slot.epoch || slot.done) {
            ++result.stale_uploads_rejected;
            break;
          }
          try {
            ObsReport report = decode_obs_report(frame.payload);
            result.cluster_obs.add_worker(frame.sender, frame.lease,
                                          std::move(report.snapshot),
                                          std::move(report.windows));
          } catch (const std::exception&) {
            ++result.stale_uploads_rejected;
          }
          break;
        }
        case FrameType::kLeaseGrant:
        case FrameType::kShutdown:
        case FrameType::kRevoke:
          break;  // coordinator-only frame types; ignore echoes
      }
    }

    // Liveness: a leased worker silent past the timeout is dead; fence
    // its lease off and put the range back in the pending pool.
    for (auto& [id, peer] : peers) {
      if (!peer.alive || peer.lease == kNoLease) continue;
      if (now - peer.last_seen_ms <= config_.heartbeat_timeout_ms) continue;
      LeaseSlot& slot = leases[peer.lease];
      peer.alive = false;
      peer.lease = kNoLease;
      ++result.worker_deaths;
      ++result.reassignments;
      ++slot.epoch;  // stale uploads from the zombie now bounce
      slot.running = false;
      slot.available_at_ms = now + config_.retry_backoff_ms;
      send(id, FrameType::kRevoke, slot.id, slot.epoch,
           static_cast<std::uint64_t>(slot.resume_from));
    }

    // Assignment: pending leases to idle live workers, in id order.
    for (LeaseSlot& slot : leases) {
      if (slot.done || slot.running || now < slot.available_at_ms) continue;
      WorkerPeer* idle = nullptr;
      for (auto& [id, peer] : peers) {
        if (peer.alive && peer.lease == kNoLease) {
          idle = &peer;
          break;
        }
      }
      if (idle == nullptr) break;
      LeaseGrant grant;
      grant.window_start = static_cast<std::uint64_t>(start);
      grant.window_end = static_cast<std::uint64_t>(end);
      grant.chunk_interval = static_cast<std::uint64_t>(config_.chunk_interval);
      grant.resume_from = slot.resume_from;
      grant.device_begin = slot.devices.begin;
      grant.device_end = slot.devices.end;
      grant.checkpoint_path = slot.ckpt_path;
      idle->lease = slot.id;
      idle->last_seen_ms = now;
      slot.running = true;
      ++result.leases_granted;
      send(idle->id, FrameType::kLeaseGrant, slot.id, slot.epoch,
           slot.resume_from, encode_lease_grant(grant));
    }

    bool all_done = true;
    for (const LeaseSlot& slot : leases) {
      if (!slot.done) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.poll_interval_ms));
  }

  // Shutdown everyone we know about plus the configured initial fleet
  // (a worker that never managed to say hello still deserves the memo).
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    peers.try_emplace(w, WorkerPeer{w});
  }
  for (auto& [id, peer] : peers) {
    send(id, FrameType::kShutdown, kNoLease, 0,
         static_cast<std::uint64_t>(end));
  }

  // Deterministic merge over the final artifacts: the ranges partition the
  // devices, so their union is the single-process corpus and their
  // counters add up to its counters.
  for (const LeaseSlot& slot : leases) {
    hitlist::CollectionCheckpoint final_ckpt =
        hitlist::load_checkpoint_file(config_.dir + "/" + slot.final_path);
    result.corpus.merge(final_ckpt.corpus);
    result.polls_attempted += final_ckpt.state.polls_attempted;
    result.polls_answered += final_ckpt.state.polls_answered;
    hitlist::add_vantage_health(result.vantage_health,
                                final_ckpt.state.vantage_health);
  }
  result.corpus.canonicalize();
  return result;
}

}  // namespace v6::dist
