#include "dist/worker.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "dist/transport.h"
#include "hitlist/checkpoint_io.h"

namespace v6::dist {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

Worker::Worker(const NodeEnv& env, const WorkerConfig& config)
    : env_(env), config_(config) {
  if (env_.world == nullptr || env_.plane == nullptr || env_.dns == nullptr) {
    throw std::invalid_argument("Worker: NodeEnv must be fully wired");
  }
  if (config_.dir.empty()) {
    throw std::invalid_argument("Worker: run directory required");
  }
}

void Worker::run() {
  Mailbox inbox(config_.dir + "/to-worker-" + std::to_string(config_.id));
  Mailbox outbox(config_.dir + "/to-coordinator");
  std::uint64_t tx_seq = 0;
  const auto send = [&](FrameType type, std::uint32_t lease,
                        std::uint32_t epoch, std::uint64_t sim_time,
                        std::vector<std::uint8_t> payload = {}) {
    outbox.post(Frame{type, config_.id, lease, epoch, tx_seq++, sim_time,
                      std::move(payload)});
  };

  send(FrameType::kHello, kNoLease, 0,
       static_cast<std::uint64_t>(env_.start));

  Clock::time_point last_activity = Clock::now();
  while (true) {
    const std::vector<Frame> frames = inbox.drain();
    if (!frames.empty()) last_activity = Clock::now();
    for (const Frame& frame : frames) {
      if (frame.type == FrameType::kShutdown) return;
      if (frame.type == FrameType::kRevoke) continue;  // idle: nothing held
      if (frame.type != FrameType::kLeaseGrant) continue;

      const LeaseGrant grant = decode_lease_grant(frame.payload);
      const std::uint32_t lease = frame.lease;
      const std::uint32_t epoch = frame.epoch;
      if (grant.device_end < grant.device_begin) {
        throw std::runtime_error("worker: malformed lease grant");
      }

      hitlist::CheckpointState from;
      hitlist::Corpus corpus(1 << 12);
      if (!grant.checkpoint_path.empty()) {
        if (const auto why = validate_artifact_path(grant.checkpoint_path)) {
          throw std::runtime_error("worker: hostile checkpoint path: " + *why);
        }
        hitlist::CollectionCheckpoint ckpt = hitlist::load_checkpoint_file(
            config_.dir + "/" + grant.checkpoint_path);
        from = std::move(ckpt.state);
        corpus = std::move(ckpt.corpus);
      } else {
        from = hitlist::CheckpointState::fresh(
            static_cast<util::SimTime>(grant.window_start),
            static_cast<util::SimTime>(grant.window_end));
        from.resume_from = static_cast<util::SimTime>(grant.resume_from);
      }

      // Writes (state, corpus) as the lease's durable artifact at
      // state.resume_from.
      const auto save = [&](const hitlist::CheckpointState& state,
                            const hitlist::Corpus& snapshot) {
        Artifact artifact;
        artifact.path = checkpoint_path(
            lease, epoch, static_cast<std::uint64_t>(state.resume_from));
        artifact.bytes = hitlist::save_checkpoint_file(
            config_.dir + "/" + artifact.path, state, snapshot);
        return artifact;
      };
      const auto upload = [&](const hitlist::CheckpointState& state,
                              const hitlist::Corpus& snapshot) {
        const Artifact artifact = save(state, snapshot);
        send(FrameType::kHeartbeat, lease, epoch,
             static_cast<std::uint64_t>(state.resume_from));
        send(FrameType::kCheckpointUpload, lease, epoch,
             static_cast<std::uint64_t>(state.resume_from),
             encode_artifact(artifact));
        if (config_.chunk_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.chunk_delay_ms));
        }
      };
      const LeaseResult done = run_lease(
          env_, {grant.device_begin, grant.device_end},
          static_cast<util::SimDuration>(grant.chunk_interval), from, corpus,
          upload);

      // Completion: the checkpoint at the window end is the one durable
      // artifact the coordinator merges from. The observability report
      // goes up just before kComplete.
      const Artifact artifact = save(done.state, corpus);
      send(FrameType::kObsReport, lease, epoch,
           static_cast<std::uint64_t>(from.window_end),
           encode_obs_report(done.obs));
      send(FrameType::kComplete, lease, epoch,
           static_cast<std::uint64_t>(from.window_end),
           encode_artifact(artifact));
      last_activity = Clock::now();
    }
    if (Clock::now() - last_activity >
        std::chrono::milliseconds(config_.max_idle_ms)) {
      throw std::runtime_error("worker: no shutdown within the idle deadline");
    }
    std::this_thread::sleep_for(kMailboxPollInterval);
  }
}

}  // namespace v6::dist
