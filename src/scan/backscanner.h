// Backscanning (§3, §4.2): actively probing the NTP clients that just
// visited our vantage servers.
//
// The paper records clients over ten-minute intervals and probes each
// interval's clients when it closes: the client address itself (ICMPv6
// echo, plus a Yarrp trace for a sample) and one *random* address inside
// the client's /64. A random-IID hit almost certainly indicates an aliased
// /64 — the paper's alias-discovery trick.
//
// Observations may arrive in any order (the collector enumerates
// device-major): each sighting is independently assigned to its wall-clock
// interval, deduplicated within it ("no IP probed more than once during a
// 10 minute interval"), and probed at that interval's end.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/ipv6.h"
#include "net/prefix.h"
#include "netsim/data_plane.h"
#include "ntp/server.h"
#include "scan/yarrp.h"
#include "scan/zmap6.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::scan {

struct BackscanConfig {
  // Interval granularity (the paper's ten minutes); clients observed in an
  // interval are probed at its end.
  util::SimDuration interval = 10 * util::kMinute;
  // Fraction of clients additionally traced with Yarrp.
  double trace_fraction = 0.05;
  std::uint8_t yarrp_max_hops = 12;
  std::uint64_t seed = 11;
  // Re-probe unanswered targets this many extra times (fed straight into
  // Zmap6Config::retries), so backscan results tolerate transit loss the
  // way the real tooling does.
  std::uint32_t retries = 2;
  // Optional metrics sink (not owned). Propagated into the per-interval
  // Zmap6/Yarrp scanners, so their probe counters aggregate across the
  // whole backscan. Appended last so positional initializers stay valid.
  obs::Registry* metrics = nullptr;
};

struct BackscanOutcome {
  net::Ipv6Address client;
  std::uint8_t vantage = 0;
  bool client_responded = false;
  net::Ipv6Address random_target;
  bool random_responded = false;
};

struct BackscanReport {
  std::vector<BackscanOutcome> outcomes;
  // Distinct /64s in which a random-IID probe answered (inferred aliased).
  std::vector<net::Ipv6Prefix> aliased_slash64s;
  // Distinct responsive random addresses (the paper's 4.5M).
  std::uint64_t responsive_random_addresses = 0;
  // Router/CPE interfaces discovered by the Yarrp sample.
  std::vector<net::Ipv6Address> trace_discovered;
  std::uint64_t clients_probed = 0;
  std::uint64_t clients_responded = 0;
  std::uint64_t random_probed = 0;
  // Every probe fired: echoes, retries and trace probes.
  std::uint64_t probes_sent = 0;
};

class Backscanner {
 public:
  Backscanner(netsim::DataPlane& plane, const BackscanConfig& config);

  // Feed one client sighting; probes fire logically at the end of the
  // sighting's ten-minute interval. `vantage_source` is the address the
  // probes originate from (the NTP server the client contacted).
  void observe(const ntp::Observation& obs,
               const net::Ipv6Address& vantage_source);

  // Finalizes and returns the accumulated report; the scanner is reusable
  // afterwards.
  BackscanReport finish();

 private:
  netsim::DataPlane* plane_;
  BackscanConfig config_;
  util::Rng rng_;

  // Dedup of (interval, client): mixed to a 64-bit key; at study scale a
  // collision loses one probe in ~2^64, which is noise.
  std::unordered_set<std::uint64_t> probed_keys_;

  BackscanReport report_;
  std::unordered_set<net::Ipv6Prefix> aliased_;
  std::unordered_set<net::Ipv6Address> responsive_random_;
  std::unordered_set<net::Ipv6Address> trace_found_;
  obs::Counter metric_clients_probed_;
  obs::Counter metric_clients_responded_;
  obs::Counter metric_random_probed_;
  obs::Counter metric_alias_verdicts_;
  obs::Counter metric_traces_;
};

}  // namespace v6::scan
