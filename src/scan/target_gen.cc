#include "scan/target_gen.h"

#include "util/rng.h"

namespace v6::scan {

std::vector<net::Ipv6Address> routed_slash48_targets(
    const sim::World& world, double fraction, std::uint64_t seed,
    util::ThreadPool* pool) {
  const auto threshold = static_cast<std::uint64_t>(
      fraction >= 1.0 ? ~std::uint64_t{0}
                      : fraction * 0x1p64);
  // Each AS costs 65536 hashes; a shard takes at least a few of them.
  std::vector<net::Ipv6Address> targets;
  util::append_sharded(
      pool, world.ases().size(), 4, targets,
      [&](std::size_t ai, std::vector<net::Ipv6Address>& part) {
        const sim::AsInfo& as = world.ases()[ai];
        // The /32 has 2^16 constituent /48s (bits 31..16 of the hi64's
        // low half select the /48).
        for (std::uint64_t s48 = 0; s48 < 0x10000; ++s48) {
          if (fraction < 1.0 &&
              util::mix64(seed ^ as.prefix_hi ^ s48) >= threshold) {
            continue;
          }
          const std::uint64_t hi = as.prefix_hi | (s48 << 16);
          part.push_back(net::Ipv6Address::from_u64(hi, 1));
        }
      });
  return targets;
}

std::vector<net::Ipv6Address> low_iid_candidates(
    std::span<const net::Ipv6Prefix> active_slash64s) {
  static constexpr std::uint64_t kIids[] = {0, 1, 2, 0xa, 0x100};
  std::vector<net::Ipv6Address> out;
  out.reserve(active_slash64s.size() * std::size(kIids));
  for (const auto& p : active_slash64s) {
    const std::uint64_t hi = p.address().hi64();
    for (const auto iid : kIids) {
      out.push_back(net::Ipv6Address::from_u64(hi, iid));
    }
  }
  return out;
}

std::vector<net::Ipv6Address> subnet_sweep_candidates(
    std::span<const net::Ipv6Prefix> active_slash48s, std::uint32_t subnets) {
  std::vector<net::Ipv6Address> out;
  out.reserve(active_slash48s.size() * subnets);
  for (const auto& p : active_slash48s) {
    for (std::uint32_t s = 0; s < subnets; ++s) {
      out.push_back(
          net::Ipv6Address::from_u64(p.address().hi64() | s, 1));
    }
  }
  return out;
}

}  // namespace v6::scan
