// The real-process worker: polls its mailbox for chunk leases, collects
// each lease's device range through PassiveCollector's checkpoint
// machinery, uploads a durable V6CKPT01 artifact at every chunk
// boundary, and reports completion. A `kill -9` at any instant loses at
// most the chunks since the last upload — the coordinator's replacement
// lease resumes that range from the artifact and the merged corpus stays
// bit-identical (the invariant PR 2 established per-process and the CI
// smoke job asserts across processes).
#pragma once

#include <cstdint>
#include <string>

#include "hitlist/passive_collector.h"
#include "netsim/data_plane.h"
#include "netsim/pool_dns.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::dist {

// Everything a node needs to run collection: the deterministic simulation
// inputs every process rebuilds identically from the shared study flags.
// Pointers are borrowed; the owner (the CLI's Study) must outlive the
// worker.
struct NodeEnv {
  const sim::World* world = nullptr;
  netsim::DataPlane* plane = nullptr;
  const netsim::PoolDns* dns = nullptr;
  // Base collector configuration (metrics/sampler are replaced by a
  // per-lease registry + sampler whose report is uploaded as a
  // kObsReport frame; the device range and checkpoint interval come
  // from each lease).
  hitlist::CollectorConfig collector;
  util::SimTime start = 0;
  util::SimTime end = 0;
};

struct WorkerConfig {
  std::string dir;  // shared run directory
  std::uint32_t id = 0;
  // Artificial per-chunk delay: widens the window in which the CI smoke
  // job can land its `kill -9` mid-run. 0 in production.
  std::uint32_t chunk_delay_ms = 0;
  std::uint32_t poll_interval_ms = 25;
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
