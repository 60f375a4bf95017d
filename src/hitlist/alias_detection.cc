#include "hitlist/alias_detection.h"

namespace v6::hitlist {

AliasDetector::AliasDetector(netsim::DataPlane& plane,
                             const AliasDetectorConfig& config)
    : plane_(&plane),
      config_(config),
      scanner_(plane, {config.source, 100000, 0, config.seed,
                       scan::ProbeProtocol::kIcmpv6Echo, config.metrics}),
      rng_(util::mix64(config.seed ^ 0xa11a)) {}

bool AliasDetector::is_aliased(const net::Ipv6Prefix& prefix,
                               util::SimTime t) {
  std::uint32_t hits = 0;
  for (std::uint32_t i = 0; i < config_.probes_per_prefix; ++i) {
    // Random host bits under the prefix. For prefixes shorter than /64 the
    // subnet half is randomized too (one probe per pseudo-random /64).
    const int host_bits = 128 - prefix.length();
    std::uint64_t hi = prefix.address().hi64();
    if (host_bits > 64) {
      const std::uint64_t subnet_mask =
          (std::uint64_t{1} << (host_bits - 64)) - 1;
      hi |= rng_.next() & subnet_mask;
    }
    const net::Ipv6Address target =
        net::Ipv6Address::from_u64(hi, rng_.next());
    if (scanner_.probe(target, t)) ++hits;
    // Early exit once the verdict is decided either way.
    if (hits >= config_.response_threshold) return true;
    if (hits + (config_.probes_per_prefix - 1 - i) <
        config_.response_threshold) {
      return false;
    }
  }
  return hits >= config_.response_threshold;
}

std::vector<net::Ipv6Prefix> AliasDetector::filter_aliased(
    std::span<const net::Ipv6Prefix> prefixes, util::SimTime t) {
  std::vector<net::Ipv6Prefix> out;
  for (const auto& p : prefixes) {
    if (is_aliased(p, t)) out.push_back(p);
  }
  return out;
}

}  // namespace v6::hitlist
