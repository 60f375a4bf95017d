#include "dist/coordinator.h"

#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dist/transport.h"
#include "hitlist/checkpoint_io.h"

namespace v6::dist {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

struct WorkerPeer {
  Mailbox outbox;
  bool alive = true;
  std::uint64_t last_seen_ms = 0;
  // Per-sender FIFO dedup: drain() may redeliver a frame whose file could
  // not be removed; seqs below this are already-processed duplicates.
  std::uint64_t next_seq = 0;
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
  const auto peer = [&](std::uint32_t id) -> WorkerPeer& {
    if (auto it = peers.find(id); it != peers.end()) return it->second;
    const std::string outbox = config_.dir + "/to-worker-" + std::to_string(id);
    return peers.emplace(id, WorkerPeer{Mailbox(outbox)}).first->second;
  };
  const auto send = [&](std::uint32_t worker, const Frame& frame) {
    peer(worker).outbox.post(frame);
    log_frame(frame);
  };

  CoordinatorResult result;
  LeaseTable table(
      LeaseGrant{.window_start = static_cast<std::uint64_t>(start),
                 .window_end = static_cast<std::uint64_t>(end),
                 .chunk_interval =
                     static_cast<std::uint64_t>(config_.chunk_interval),
                 .resume_from = static_cast<std::uint64_t>(start),
                 .device_end = config_.devices},
      config_.ranges != 0 ? config_.ranges : config_.workers,
      kCoordinatorRetry, result);
  const Clock::time_point t0 = Clock::now();

  while (true) {
    const std::uint64_t now = ms_since(t0);
    if (now > config_.max_wall_ms) {
      throw std::runtime_error(
          "coordinator: deadline exceeded before every lease completed");
    }

    for (const Frame& frame : inbox.drain()) {
      WorkerPeer& sender = peer(frame.sender);
      if (frame.seq < sender.next_seq) continue;
      sender.next_seq = frame.seq + 1;
      log_frame(frame);
      // Any frame re-admits a worker declared dead: a stalled worker that
      // wakes up serves leases again.
      sender.alive = true;
      sender.last_seen_ms = now;
      switch (frame.type) {
        case FrameType::kCheckpointUpload:
          // The Worker stamps an upload with its checkpoint's resume point.
          table.upload(frame, frame.sim_time);
          break;
        case FrameType::kComplete:
          table.complete(frame);
          break;
        case FrameType::kObsReport:
          table.report(frame);
          break;
        default:
          break;  // hello and heartbeat: liveness only
      }
    }
    if (table.all_done()) {
      result.finished_at = static_cast<util::SimTime>(now);
      break;
    }

    // Liveness: a leased worker silent past the timeout is dead; revoke
    // its lease, which reopens after the backoff.
    std::vector<IdleWorker> idle;
    for (auto& [id, worker] : peers) {
      if (!worker.alive) continue;
      const std::uint32_t lease = table.held_by(id);
      if (lease == kNoLease) {
        idle.push_back({id, 0});
      } else if (now - worker.last_seen_ms > config_.heartbeat_timeout_ms) {
        worker.alive = false;
        ++result.worker_deaths;
        send(id, table.revoke(lease, now));
      }
    }

    // Assignment: open leases to idle live workers, earliest start first.
    while (const std::optional<Pairing> next = table.pair(idle)) {
      if (next->at > now) break;
      send(next->worker, table.grant(next->lease, next->worker, now));
      peers.at(next->worker).last_seen_ms = now;
      std::erase_if(idle, [&](const IdleWorker& w) {
        return w.id == next->worker;
      });
    }
    std::this_thread::sleep_for(kMailboxPollInterval);
  }

  // Shutdown everyone we know about plus the configured initial fleet
  // (a worker that never managed to say hello still deserves the memo).
  for (std::uint32_t w = 0; w < config_.workers; ++w) peer(w);
  for (const auto& [id, worker] : peers) {
    send(id, table.shutdown(static_cast<std::uint64_t>(result.finished_at)));
  }

  // Deterministic merge over the final artifacts: the ranges partition the
  // devices, so one canonical union of them is the single-process corpus
  // and their counters add up to its counters.
  std::vector<hitlist::Corpus> ranges;
  for (std::uint32_t r = 0; r < table.size(); ++r) {
    hitlist::CollectionCheckpoint final_ckpt = hitlist::load_checkpoint_file(
        config_.dir + "/" + table.lease(r).checkpoint_path);
    ranges.push_back(std::move(final_ckpt.corpus));
    result.polls_attempted += final_ckpt.state.polls_attempted;
    result.polls_answered += final_ckpt.state.polls_answered;
    hitlist::add_vantage_health(result.vantage_health,
                                final_ckpt.state.vantage_health);
  }
  result.corpus = hitlist::Corpus::canonical_merge(std::move(ranges));
  return result;
}

}  // namespace v6::dist
