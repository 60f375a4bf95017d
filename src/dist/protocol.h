// V6DIST02: the coordinator/worker control protocol for distributed
// passive collection.
//
// The paper's deployment was 27 VPSes feeding a central aggregator; this
// protocol is the repo's version of that wire. It deliberately carries
// CONTROL only — chunk-lease grants, heartbeats, checkpoint-upload
// notices, completion, revocation — while the bulk artifacts (corpus
// snapshots, run files) travel as the existing durable formats
// (`V6CKPT01`, `V6RUN001`, `V6CORP02`) referenced by path + size + CRC.
// That keeps every byte that decides study *results* under the formats
// whose hostile-input suites already exist, and keeps this layer small
// enough to fuzz exhaustively (test_dist_protocol corrupts and truncates
// every byte offset).
//
// Frame layout (all integers big-endian via proto::BufferWriter):
//
//   magic  "V6DIST02"   8 bytes
//   type                u8   (FrameType)
//   sender              u32  (worker id, or kCoordinatorId)
//   lease               u32  (device-range lease the frame concerns, or
//                             kNoLease for fleet-wide frames)
//   epoch               u32  (lease fencing token, see below)
//   seq                 u64  (per-sender, strictly increasing from 0)
//   sim_time            u64  (stamp of the event: the simulated lane
//                             clock; in a real fleet the coordinator's
//                             wall-clock ms, a worker's resume point)
//   payload_len         u32  (<= kMaxPayload)
//   payload             payload_len bytes (type-specific, below)
//   crc32               u32  over type..payload
//
// Lease fencing: every grant carries the lease's current epoch; the
// coordinator bumps the epoch when it revokes or reassigns a lease, and
// rejects any upload stamped with a stale epoch. A worker that stalled
// past the heartbeat timeout and then woke up cannot double-report work
// the replacement lease is already redoing — the stale upload bounces,
// which is what makes reassignment safe against zombies.
//
// A frame LOG is simply concatenated frames; lint_dist_frames() validates
// one dependency-free, in the style of obs::lint_timeline_jsonl.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.h"
#include "obs/timeline.h"

namespace v6::dist {

inline constexpr std::uint32_t kCoordinatorId = 0xfffffffe;
inline constexpr std::uint32_t kNoLease = 0xffffffff;
// Control frames are small; anything bigger is garbage or an attack.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;
// magic(8) type(1) sender(4) lease(4) epoch(4) seq(8) sim_time(8)
// payload_len(4).
inline constexpr std::size_t kFrameHeaderBytes = 41;

enum class FrameType : std::uint8_t {
  kHello = 1,             // worker -> coordinator: I exist (payload empty)
  kLeaseGrant = 2,        // coordinator -> worker: LeaseGrant payload
  kHeartbeat = 3,         // worker -> coordinator: liveness (payload empty)
  kCheckpointUpload = 4,  // worker -> coordinator: Artifact payload
  kComplete = 5,          // worker -> coordinator: Artifact payload
  kShutdown = 6,          // coordinator -> fleet: run over (payload empty)
  kRevoke = 7,            // coordinator -> worker: lease fenced off (empty)
  kObsReport = 8,         // worker -> coordinator: ObsReport payload
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::uint32_t sender = 0;
  std::uint32_t lease = kNoLease;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t sim_time = 0;
  std::vector<std::uint8_t> payload;
};

// kLeaseGrant payload: collect devices [device_begin, device_end) over
// [window_start, window_end), checkpointing every chunk_interval sim
// seconds. resume_from > window_start means the range's devices replay up
// to resume_from before recording; a recovery lease resumes from the
// range's checkpoint at checkpoint_path.
struct LeaseGrant {
  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  std::uint64_t chunk_interval = 0;
  std::uint64_t resume_from = 0;
  std::uint64_t device_begin = 0;
  std::uint64_t device_end = 0;
  std::string checkpoint_path = {};  // empty on a fresh lease
};

// kCheckpointUpload / kComplete payload: a durable artifact the sender
// already wrote (V6CKPT01 for uploads; the final checkpoint for
// completion), referenced rather than inlined.
struct Artifact {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

// kObsReport payload: the worker's observability state for one finished
// lease — its registry snapshot (metric samples only; trace spans stay
// process-local) plus the lease's timeline windows. Sent at the same
// deterministic completion barrier as kComplete, so the frame bytes are a
// pure function of (config, seed, fault plan) for the deterministic
// counter families; wall-clock histogram fields ride along but carry no
// determinism promise. The coordinator feeds decoded reports into
// obs::ClusterAggregator.
//
// Wire layout (inside the CRC-framed payload, all integers big-endian):
//   u32 sample_count, then per sample:
//     name, help (u16-length strings)  · u8 type (0=counter 1=gauge 2=hist)
//     u16 label_count, then key/value string pairs
//     counter: u64 value · gauge: u64 double-bits
//     histogram: u32 bound_count · bound_count u64 double-bits ·
//                bound_count+1 u64 per-bucket counts · u64 count ·
//                u64 sum double-bits
//   u32 window_count, then per window:
//     u64 begin · u64 end · stage string
//     u32 counter_count:   name, labels, u64 delta
//     u32 gauge_count:     name, labels, u64 value double-bits
//     u32 vantage_count:   u32 vantage, u64 polls/answered/fault_lost/records
//     u32 histogram_count: name, labels, u64 count_delta, u64 sum double-bits
// Every untrusted element count is bounds-checked against the bytes left
// before any allocation sized by it.
struct ObsReport {
  obs::Snapshot snapshot;  // samples only; spans is always empty
  obs::Timeline windows;
};

// --- codecs ----------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& frame);

// Decodes exactly one frame from the FRONT of `data`; `consumed` (when
// non-null) receives how many bytes it spanned, so callers can walk a
// concatenated log. Throws std::runtime_error on bad magic, truncation,
// oversized payload, or CRC mismatch.
Frame decode_frame(std::span<const std::uint8_t> data,
                   std::size_t* consumed = nullptr);

std::vector<std::uint8_t> encode_lease_grant(const LeaseGrant& grant);
LeaseGrant decode_lease_grant(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_artifact(const Artifact& artifact);
Artifact decode_artifact(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_obs_report(const ObsReport& report);
ObsReport decode_obs_report(std::span<const std::uint8_t> payload);

// The run-directory-relative name of lease `lease`'s checkpoint at
// `resume_from` under `epoch`. Both drivers name every artifact with it; a
// lease's final artifact is its checkpoint at the window end.
std::string checkpoint_path(std::uint32_t lease, std::uint32_t epoch,
                            std::uint64_t resume_from);

// Artifact/checkpoint paths cross process boundaries, so they are treated
// as hostile: relative, no "..", no NUL/newline, no leading '/', at most
// 4096 bytes. Returns the reason a path is unacceptable, or nullopt.
std::optional<std::string> validate_artifact_path(std::string_view path);

// --- linter ----------------------------------------------------------------

// Validates a concatenated V6DIST02 frame log (the bytes of frames.log or
// an in-memory DistReport::frame_log). Checks per frame: framing, CRC,
// known type, payload decodes and passes semantic validation (grant
// windows ordered, chunk interval positive, resume point inside the
// window, device range ordered, artifact paths safe, a grant's
// checkpoint path names a checkpoint uploaded earlier for its lease); per
// sender: strictly increasing seq starting at 0; whole log: no trailing
// bytes.
// Returns nullopt when the log is clean, else "frame N: reason".
std::optional<std::string> lint_dist_frames(std::string_view log);

}  // namespace v6::dist
