// Aliased-prefix detection (Gasser et al.'s method, used by the IPv6
// Hitlist): probe a handful of pseudo-random addresses inside a prefix; if
// *all* of them answer, a single box is answering for the whole prefix and
// every "responsive address" inside it is an artifact, not a host.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "net/prefix.h"
#include "netsim/data_plane.h"
#include "obs/metrics.h"
#include "scan/zmap6.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::hitlist {

struct AliasDetectorConfig {
  net::Ipv6Address source;
  // Random addresses probed per prefix.
  std::uint32_t probes_per_prefix = 8;
  // Prefix is declared aliased when at least this many answer (the
  // canonical detector requires all of them).
  std::uint32_t response_threshold = 8;
  std::uint64_t seed = 5;
  // Optional metrics sink (not owned): the detector's probes count in
  // v6_scan_probes_total like any other ZMap6 probe.
  obs::Registry* metrics = nullptr;
};

class AliasDetector {
 public:
  AliasDetector(netsim::DataPlane& plane, const AliasDetectorConfig& config);

  bool is_aliased(const net::Ipv6Prefix& prefix, util::SimTime t);

  // The subset of `prefixes` detected as aliased.
  std::vector<net::Ipv6Prefix> filter_aliased(
      std::span<const net::Ipv6Prefix> prefixes, util::SimTime t);

  std::uint64_t probes_sent() const noexcept {
    return scanner_.probes_sent();
  }

 private:
  netsim::DataPlane* plane_;
  AliasDetectorConfig config_;
  scan::Zmap6Scanner scanner_;
  util::Rng rng_;
};

}  // namespace v6::hitlist
