// The real-process coordinator. It shares with the in-process SimCluster
// the lease state machine (LeaseTable: grants, the epoch fence, revokes,
// backoff), the lease runner (run_lease()), the artifact names
// (checkpoint_path()) and the reduce (one Corpus::canonical_merge of the
// final ranges). It owns the process side: the file mailboxes,
// wall-clock liveness (a leased worker silent past the heartbeat timeout
// is declared dead and its lease revoked; any later frame from it
// re-admits it), frames.log and the merge over the workers' final
// checkpoint artifacts. It survives actual `kill -9` (the CI smoke job
// diffs the merged corpus against the single-process reference).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dist/lease_table.h"
#include "hitlist/corpus.h"
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
  // range is re-offered after kCoordinatorRetry's backoff.
  std::uint32_t heartbeat_timeout_ms = 10000;
  // Overall deadline; exceeded means the run failed loudly.
  std::uint32_t max_wall_ms = 600000;
};

// The reassignment backoff: 200 ms doubling to 2.4 s, the same 12x ratio
// as the simulated cluster's one hour to twelve.
inline constexpr RetryPolicy kCoordinatorRetry{200, 2400, 71};

// The fleet's DistReport (instants in wall milliseconds since run()
// began; frame_log stays empty, the frames are in frames.log) plus the
// merged corpus.
struct CoordinatorResult : DistReport {
  hitlist::Corpus corpus{1};  // merged + canonicalized
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
