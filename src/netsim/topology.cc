#include "netsim/topology.h"

#include <array>

#include "util/rng.h"

namespace v6::netsim {

namespace {

// Stable router pick within an AS, keyed on the destination /48 so nearby
// targets share infrastructure.
std::uint32_t pick_router(const sim::AsInfo& as, std::uint64_t key) {
  if (as.router_count == 0) return 0;
  return static_cast<std::uint32_t>(util::mix64(as.seed ^ key) %
                                    as.router_count);
}

}  // namespace

Topology::Topology(const sim::World& world) : world_(&world) {
  const auto ases = world.ases();
  for (std::uint32_t i = 0; i < ases.size(); ++i) {
    if (ases[i].type != sim::AsType::kTransit) continue;
    const std::uint16_t country = ases[i].country_index;
    if (country >= backbone_.size()) backbone_.resize(country + 1);
    if (!backbone_[country]) backbone_[country] = i;
  }
}

std::optional<std::uint32_t> Topology::backbone_of(
    std::uint16_t country_index) const {
  if (country_index >= backbone_.size()) return std::nullopt;
  return backbone_[country_index];
}

std::optional<Hop> Topology::hop(const net::Ipv6Address& src,
                                 const net::Ipv6Address& dst,
                                 util::SimTime t, std::size_t index) const {
  if (src.hi64() == dst.hi64()) return std::nullopt;  // same /64: on-link
  const std::uint64_t dst48 = dst.hi64() >> 16;
  const auto src_as = world_->as_index_of(src);
  const auto dst_as = world_->as_index_of(dst);
  const auto ases = world_->ases();

  // The router hops in path order as (AS, pick key) pairs; only the
  // requested one becomes an address.
  struct RouterHop {
    std::uint32_t as_index;
    std::uint64_t key;
  };
  std::array<RouterHop, kMaxHops - 1> routers{};
  std::size_t n = 0;
  const auto add_router = [&](std::uint32_t as_index, std::uint64_t key) {
    if (ases[as_index].router_count != 0) routers[n++] = {as_index, key};
  };

  // Egress through the source AS.
  if (src_as) {
    add_router(*src_as, 0xe6e55 ^ dst48);
    const auto src_bb = backbone_of(ases[*src_as].country_index);
    if (src_bb && (!dst_as || *src_bb != *dst_as)) {
      add_router(*src_bb, 0xbb01 ^ dst48);
    }
  }
  // Unrouted destinations fall off the edge; the probe dies there.
  if (dst_as) {
    // Ingress: destination country backbone, then the destination AS.
    const auto dst_bb = backbone_of(ases[*dst_as].country_index);
    if (dst_bb && *dst_bb != *dst_as && (!src_as || *dst_bb != *src_as)) {
      add_router(*dst_bb, 0xbb02 ^ dst48);
    }
    if (!src_as || *src_as != *dst_as) {
      add_router(*dst_as, 0xed6e ^ dst48);  // AS edge
    }
    add_router(*dst_as, 0xc04e ^ dst48);  // AS core, nearer the target
  }

  if (index < n) {
    const RouterHop& r = routers[index];
    return Hop{world_->router_address(
                   r.as_index, pick_router(ases[r.as_index], r.key), 1),
               true};
  }
  if (index > n || !dst_as) return std::nullopt;

  // Customer-site targets traverse the site's CPE last (the "network
  // periphery" hop that CPE-focused campaigns harvest).
  const auto site_id = world_->site_at(dst, t);
  if (!site_id) return std::nullopt;
  const sim::Site& site = world_->sites()[*site_id];
  if (site.cpe == sim::kNoDevice) return std::nullopt;
  const net::Ipv6Address cpe_addr = world_->device_address(site.cpe, t);
  if (cpe_addr == dst) return std::nullopt;
  return Hop{cpe_addr, world_->devices()[site.cpe].responds_icmp};
}

std::vector<Hop> Topology::path(const net::Ipv6Address& src,
                                const net::Ipv6Address& dst,
                                util::SimTime t) const {
  std::vector<Hop> hops;
  while (const auto next = hop(src, dst, t, hops.size())) {
    hops.push_back(*next);
  }
  return hops;
}

}  // namespace v6::netsim
