// The real-process worker: polls its mailbox for chunk leases and runs
// each through run_lease() (dist/lease.h), the same lease runner the
// in-process SimCluster uses, so the collection, the checkpoint grid and
// the kObsReport payload are shared. What the worker owns is the process
// side: the mailbox, and the files. Every chunk boundary writes a durable
// V6CKPT01 artifact named by checkpoint_path() and uploads it; completion
// writes the checkpoint at the window end, uploads the observability
// report, and reports kComplete. A `kill -9` at any instant loses at most
// the chunks since the last upload: the coordinator's replacement lease
// resumes that range from the artifact and the merged corpus stays
// bit-identical (the CI smoke job asserts it across processes).
#pragma once

#include <cstdint>
#include <string>

#include "dist/lease.h"

namespace v6::dist {

struct WorkerConfig {
  std::string dir;  // shared run directory
  std::uint32_t id = 0;
  // Artificial per-chunk delay: widens the window in which the CI smoke
  // job can land its `kill -9` mid-run. 0 in production.
  std::uint32_t chunk_delay_ms = 0;
  // Give up when no shutdown arrives for this long (orphan protection).
  std::uint32_t max_idle_ms = 600000;
};

class Worker {
 public:
  Worker(const NodeEnv& env, const WorkerConfig& config);

  // Blocks: serves leases until a shutdown frame (normal exit) or the
  // idle deadline passes (throws std::runtime_error).
  void run();

 private:
  NodeEnv env_;
  WorkerConfig config_;
};

}  // namespace v6::dist
