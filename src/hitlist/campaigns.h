// The two comparison datasets of Table 1, produced by *running the actual
// methodologies* against the same simulated world as the NTP collection:
//
//   * HitlistCampaign — an IPv6-Hitlist-style weekly campaign: seed from
//     public sources (DNS-published servers, rDNS-published CPE/routers),
//     ZMap6-scan the frontier, Yarrp-trace a sample, expand with
//     target-generation around discovered structure, and filter aliased
//     prefixes with the Gasser detector.
//   * CaidaCampaign — CAIDA's routed-/48 topology sweep: split every
//     announced /32 into /48s and Yarrp-trace the ::1 of each (subsampled
//     to scale, as the paper's 1.08B traces scale to our world).
//
// Because both run against ground truth, the Table 1 comparisons (overlap,
// ASes, density) are emergent rather than baked in.
//
// Each campaign owns one thread pool (its `threads` knob). Probe verdicts
// are pure functions of the probe (see netsim/data_plane.h), so the
// Hitlist's scans shard their targets and CAIDA shards whole days, and the
// results are bit-identical at any thread count. The Hitlist's alias and
// TGA bookkeeping and its campaign RNG stay serial. Under router ICMP rate
// limiting, hop-limited probing (Yarrp, and so every CAIDA day) runs on
// one thread, because budget charges depend on send order.
#pragma once

#include <cstdint>
#include <vector>

#include "hitlist/alias_detection.h"
#include "hitlist/corpus.h"
#include "net/prefix.h"
#include "netsim/data_plane.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/world.h"
#include "util/parallelism.h"
#include "util/sim_time.h"

namespace v6::hitlist {

struct HitlistCampaignConfig {
  // Feb 16 .. Aug 29 relative to the study epoch (Jan 25).
  util::SimTime start = 22 * util::kDay;
  util::SimDuration duration = 194 * util::kDay;
  std::uint64_t seed = 17;
  // Optional metrics sink (not owned), forwarded to every scanner the
  // campaign constructs. Appended last so positional initializers stay
  // valid.
  obs::Registry* metrics = nullptr;
  // Optional timeline sampler (not owned): closes one window per weekly
  // snapshot, at the snapshot's end, on the calling thread. Scans shard
  // only within a snapshot and every shard has joined by its end, so
  // snapshot ends are merge barriers and the natural grid. (The
  // campaign's sim window re-covers the collection window the pipeline
  // already passed, so these windows clamp to zero width — the
  // per-snapshot deltas are the payload.)
  obs::TimelineSampler* sampler = nullptr;
  // Threads of the pool the scans shard on (see util::Parallelism for the
  // 0/1/N contract). Results are bit-identical at any value.
  util::Parallelism threads = util::Parallelism::hardware();
};

struct HitlistResult {
  Corpus corpus;  // responsive, alias-filtered addresses (cumulative)
  std::vector<net::Ipv6Prefix> aliased_prefixes;  // detected aliased /48+/64
  std::uint64_t probes_sent = 0;  // scans, traces and alias detection
  std::uint32_t snapshots = 0;
};

HitlistResult run_hitlist_campaign(const sim::World& world,
                                   netsim::DataPlane& plane,
                                   const HitlistCampaignConfig& config);

struct CaidaCampaignConfig {
  // Feb 3 .. Apr 6 relative to the study epoch.
  util::SimTime start = 9 * util::kDay;
  util::SimDuration duration = 62 * util::kDay;
  // Deterministic subsample of each /32's 65536 constituent /48s.
  double slash48_fraction = 0.02;
  std::uint64_t seed = 19;
  // Optional metrics sink (not owned), forwarded to the per-day tracers.
  obs::Registry* metrics = nullptr;
  // Threads of the pool the days shard on (see util::Parallelism for the
  // 0/1/N contract). Results are bit-identical at any value.
  util::Parallelism threads = util::Parallelism::hardware();
};

struct CaidaResult {
  Corpus corpus;  // every responding interface (hops + reached ::1s)
  std::uint64_t traces = 0;
  std::uint64_t probes_sent = 0;
};

CaidaResult run_caida_campaign(const sim::World& world,
                               netsim::DataPlane& plane,
                               const CaidaCampaignConfig& config);

}  // namespace v6::hitlist
