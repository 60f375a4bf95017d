#include "dist/worker.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "dist/obs_report.h"
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

      hitlist::CollectorConfig cfg = env_.collector;
      cfg.checkpoint_interval =
          static_cast<util::SimDuration>(grant.chunk_interval);
      cfg.device_begin = grant.device_begin;
      cfg.device_end = grant.device_end;

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

      // Per-lease observability: a private registry + sampler whose grid
      // coincides with the checkpoint grid (same interval, anchored at the
      // window start), so wiring them adds no merge barriers. The pair is
      // uploaded as a kObsReport frame at the completion barrier; a killed
      // worker uploads nothing and the replacement lease's report carries
      // the checkpoint-restored cumulative totals.
      obs::Registry lease_registry;
      obs::TimelineSampler lease_sampler(lease_registry,
                                         cfg.checkpoint_interval,
                                         from.window_start);
      cfg.metrics = &lease_registry;
      cfg.sampler = &lease_sampler;

      hitlist::PassiveCollector collector(*env_.world, *env_.plane, *env_.dns,
                                          cfg);
      const auto sink = [&](const hitlist::CheckpointState& state,
                            const hitlist::Corpus& snapshot) {
        Artifact artifact;
        artifact.path = "ckpt/l" + std::to_string(lease) + "-e" +
                        std::to_string(epoch) + "-t" +
                        std::to_string(state.resume_from) + ".v6ckpt";
        artifact.bytes = hitlist::save_checkpoint_file(
            config_.dir + "/" + artifact.path, state, snapshot);
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
      collector.resume(corpus, from, {}, sink);

      // Completion: the final (state, corpus) as one durable artifact the
      // coordinator merges from.
      hitlist::CheckpointState final_state;
      final_state.window_start = from.window_start;
      final_state.window_end = from.window_end;
      final_state.resume_from = from.window_end;
      final_state.polls_attempted = collector.polls_attempted();
      final_state.polls_answered = collector.polls_answered();
      final_state.vantage_health = collector.vantage_health();
      Artifact artifact;
      artifact.path = "ckpt/l" + std::to_string(lease) + "-final-e" +
                      std::to_string(epoch) + ".v6ckpt";
      artifact.bytes = hitlist::save_checkpoint_file(
          config_.dir + "/" + artifact.path, final_state, corpus);
      // Close the lease's final window (the collector leaves the
      // window-end sample to the caller) and upload the observability
      // report at the completion barrier, just before kComplete.
      lease_sampler.sample(from.window_end, cfg.sampler_stage);
      const ObsReport obs_report =
          build_obs_report(collector, lease_sampler.take());
      send(FrameType::kObsReport, lease, epoch,
           static_cast<std::uint64_t>(from.window_end),
           encode_obs_report(obs_report));
      send(FrameType::kComplete, lease, epoch,
           static_cast<std::uint64_t>(from.window_end),
           encode_artifact(artifact));
      last_activity = Clock::now();
    }
    if (Clock::now() - last_activity >
        std::chrono::milliseconds(config_.max_idle_ms)) {
      throw std::runtime_error("worker: no shutdown within the idle deadline");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.poll_interval_ms));
  }
}

}  // namespace v6::dist
