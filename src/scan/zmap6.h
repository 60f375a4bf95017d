// ZMap6-style stateless ICMPv6 echo scanner.
//
// Like the real tool, the scanner keeps no per-probe state: the echo
// identifier/sequence are derived from the target address, and replies are
// validated by recomputing that derivation — a reply that doesn't match is
// discarded as off-path noise. Probing advances simulated time according to
// the configured rate, so long scans genuinely race against address churn.
//
// A retry carries its attempt number in the sequence, so it is a new probe
// with its own loss verdict. Given a pool, scan() shards each round's
// target range across it; every probe's send time and verdict are pure
// functions of its index, so the records are identical at any shard count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "netsim/data_plane.h"
#include "obs/metrics.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace v6::scan {

// What a scan run probes with. Like the real tool, one protocol per run.
enum class ProbeProtocol : std::uint8_t {
  kIcmpv6Echo,
  kTcpSyn80,
  kTcpSyn443,
};

struct Zmap6Config {
  net::Ipv6Address source;
  // Probes per simulated second.
  std::uint64_t probe_rate = 100000;
  // Re-probe unanswered targets this many extra times (0 = single shot).
  std::uint32_t retries = 0;
  std::uint64_t seed = 0;
  ProbeProtocol protocol = ProbeProtocol::kIcmpv6Echo;
  // Optional metrics sink (not owned). Appended last so existing
  // positional initializers stay valid.
  obs::Registry* metrics = nullptr;
  // Optional pool (not owned) that scan() shards its rounds across. Scans
  // below kMinProbesPerShard probes per shard run inline.
  util::ThreadPool* pool = nullptr;
};

// The smallest scan shard worth a pool task.
inline constexpr std::size_t kMinProbesPerShard = 2048;

struct EchoRecord {
  net::Ipv6Address target;
  bool responded = false;
};

class Zmap6Scanner {
 public:
  Zmap6Scanner(netsim::DataPlane& plane, const Zmap6Config& config);

  // Probes every target once (plus retries for silent ones), starting at
  // simulated time t0. Returns one record per target, in input order.
  std::vector<EchoRecord> scan(std::span<const net::Ipv6Address> targets,
                               util::SimTime t0);

  // Single probe at an explicit time; validates the reply statelessly.
  bool probe(const net::Ipv6Address& target, util::SimTime t);

  std::uint64_t probes_sent() const noexcept { return sent_; }

 private:
  // ZMap encodes validation state in the echo ident/seq.
  std::uint32_t validator(const net::Ipv6Address& target) const noexcept;
  // One probe, attempt `attempt` at target; counts nothing, so shards may
  // call it concurrently.
  bool fire(const net::Ipv6Address& target, util::SimTime t,
            std::uint32_t attempt) const;

  netsim::DataPlane* plane_;
  Zmap6Config config_;
  std::uint64_t sent_ = 0;
  obs::Counter metric_probes_;
  obs::Counter metric_hits_;
  obs::Counter metric_retries_;
};

}  // namespace v6::scan
