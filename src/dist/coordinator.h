// The real-process coordinator: grants chunk leases to worker processes
// over the file-mailbox transport, tracks liveness by wall-clock
// heartbeat silence, fences revoked leases with epochs, and performs the
// deterministic merge over the workers' final checkpoint artifacts.
//
// The in-process SimCluster and the Coordinator/Worker pair implement the
// same protocol and share its parts: the lease runner (run_lease() in
// dist/lease.h), the artifact names (checkpoint_path()), and the reduce
// (one Corpus::canonical_union over the final ranges). The cluster proves
// the merge invariants deterministically under seeded faults on a
// simulated clock; this class owns the wall clock, the mailboxes and
// frames.log, and survives actual `kill -9` (the CI smoke job does exactly
// that and diffs the merged corpus against the single-process reference
// byte-for-byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "hitlist/checkpoint_io.h"
#include "hitlist/corpus.h"
#include "obs/cluster.h"
#include "util/sim_time.h"

namespace v6::dist {

struct CoordinatorConfig {
  std::string dir;  // shared run directory (mailboxes, ckpt/, frames.log)
  // Expected initial fleet size: used only to broadcast shutdown to
  // mailboxes of workers that never said hello.
  std::uint32_t workers = 4;
  // Device count of the world every process builds; leases cover
  // util::shard_range(devices, r, ranges) for r in [0, ranges).
  std::size_t devices = 0;
  std::uint32_t ranges = 0;  // 0 -> workers
  util::SimDuration chunk_interval = util::kWeek;
  // Wall-clock heartbeat silence after which a leased worker is dead; its
  // range is re-offered 200 ms later.
  std::uint32_t heartbeat_timeout_ms = 10000;
  // Overall deadline; exceeded means the run failed loudly.
  std::uint32_t max_wall_ms = 600000;
};

struct CoordinatorResult {
  hitlist::Corpus corpus{1};  // merged + canonicalized
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<hitlist::VantageHealthStats> vantage_health;
  std::uint64_t leases_granted = 0;
  std::uint64_t checkpoints_uploaded = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t reassignments = 0;
  std::uint64_t stale_uploads_rejected = 0;
  // Per-lease worker observability reports (kObsReport frames), epoch-
  // fenced exactly like checkpoint uploads. Counter families aggregate to
  // the single-process values because only completing leases report.
  obs::ClusterAggregator cluster_obs;
};

class Coordinator {
 public:
  explicit Coordinator(const CoordinatorConfig& config);

  // Drives the fleet over the collection window [start, end); blocks
  // until every device range completed (then broadcasts shutdown) or the
  // deadline passes (throws std::runtime_error).
  CoordinatorResult run(util::SimTime start, util::SimTime end);

 private:
  CoordinatorConfig config_;
};

}  // namespace v6::dist
