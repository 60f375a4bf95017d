// Yarrp-style stateless randomized traceroute.
//
// Yarrp's insight is to decouple (target, TTL) probes: instead of walking
// one target's path hop by hop, it shuffles the whole (target x TTL) space
// and fires statelessly, reconstructing paths afterwards from the quoted
// invoking packets. We reproduce that structure: probes carry their state in
// the echo ident/seq, are emitted in a Feistel-permuted order, and results
// are regrouped per target at the end.
//
// Given a pool, trace() shards the permutation domain: probe k goes out at
// t0 + k / rate to the (target, ttl) the permutation names, whatever shard
// sends it, and its outcome lands in that (target, ttl) cell alone. The
// regroup then runs per target range. Traces are identical at any shard
// count. Under router ICMP rate limiting the budget charges depend on send
// order, so the probes then go out from one shard.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "netsim/data_plane.h"
#include "obs/metrics.h"
#include "scan/zmap6.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace v6::scan {

struct YarrpConfig {
  net::Ipv6Address source;
  std::uint8_t max_hops = 16;
  std::uint64_t probe_rate = 50000;  // probes per simulated second
  std::uint64_t seed = 0;
  // Optional metrics sink (not owned). Appended last so existing
  // positional initializers stay valid.
  obs::Registry* metrics = nullptr;
  // Optional pool (not owned) that trace() shards across; traces below
  // kMinProbesPerShard probes per shard run inline.
  util::ThreadPool* pool = nullptr;
};

struct TraceResult {
  net::Ipv6Address target;
  // Responding router interface per TTL (unset entries = silent hop).
  std::vector<net::Ipv6Address> hops;       // parallel to hop_responded
  std::vector<bool> hop_responded;
  bool destination_reached = false;
};

class YarrpTracer {
 public:
  YarrpTracer(netsim::DataPlane& plane, const YarrpConfig& config);

  // Traces every target; probes the (target, ttl) space in a randomized
  // stateless order like the real tool.
  std::vector<TraceResult> trace(std::span<const net::Ipv6Address> targets,
                                 util::SimTime t0);

  // All distinct responding interface addresses seen across traces
  // (the "discovered addresses" a topology campaign reports), including
  // reached destinations, sorted. Given a pool, trace ranges are deduped
  // in parallel and merged; the list is the same.
  static std::vector<net::Ipv6Address> discovered(
      std::span<const TraceResult> results, util::ThreadPool* pool = nullptr);

  std::uint64_t probes_sent() const noexcept { return sent_; }

 private:
  netsim::DataPlane* plane_;
  YarrpConfig config_;
  std::uint64_t sent_ = 0;
  obs::Counter metric_probes_;
  obs::Counter metric_responses_;
};

}  // namespace v6::scan
