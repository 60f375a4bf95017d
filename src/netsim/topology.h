// Deterministic router-level paths through the simulated Internet.
//
// Yarrp-style traceroute needs per-hop responders. Paths are synthesized on
// demand from the world's structure: source-AS edge, source-country
// backbone, destination-country backbone, destination-AS core and edge
// routers, then (for customer-site targets) the site CPE, then the
// destination itself. Router choices hash on the destination /48 so that
// traces to the same region reuse hops, as real topology does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv6.h"
#include "sim/world.h"

namespace v6::netsim {

// One forwarding hop on a path.
struct Hop {
  net::Ipv6Address address;
  // True when this hop answers TTL-exceeded (routers nearly always do;
  // CPE hops answer unless the site declines).
  bool responds = true;
};

class Topology {
 public:
  // The longest possible path: source edge, both country backbones,
  // destination edge and core, then the site CPE.
  static constexpr std::size_t kMaxHops = 6;

  explicit Topology(const sim::World& world);

  // Hop `index` (0-based) of the path a packet from `src` to `dst` takes
  // at time `t`, or nullopt when the path has no more than `index` hops.
  // Allocation-free: only the requested hop's address is computed, and
  // the site lookup behind the CPE hop (always last) runs only when
  // `index` is past the router hops.
  std::optional<Hop> hop(const net::Ipv6Address& src,
                         const net::Ipv6Address& dst, util::SimTime t,
                         std::size_t index) const;

  // The router hops a packet from `src` to `dst` traverses at time `t`,
  // excluding the destination itself. Empty when src and dst are the same
  // /64. The destination's reachability is the data plane's concern.
  std::vector<Hop> path(const net::Ipv6Address& src,
                        const net::Ipv6Address& dst, util::SimTime t) const;

  // The backbone AS of a country: its first transit AS in world order,
  // if it has one.
  std::optional<std::uint32_t> backbone_of(std::uint16_t country_index) const;

 private:
  const sim::World* world_;
  // backbone_of(), indexed by country.
  std::vector<std::optional<std::uint32_t>> backbone_;
};

}  // namespace v6::netsim
