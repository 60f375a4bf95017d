// Target generation for active campaigns.
//
// Two paper-relevant generators:
//   * CAIDA routed-/48 splitting — every announced prefix of length /32 or
//     longer is split into /48s and the ::1 of each is traced (§3). A
//     deterministic sampling fraction scales the probe budget the way the
//     paper's 1.08B-trace campaign scales to our world.
//   * Hitlist-style TGA expansion — seed addresses from "public sources"
//     (DNS), plus low-IID candidates generated inside every /64 and /48
//     already known to be active, mimicking how the IPv6 Hitlist grows its
//     frontier from learned structure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "net/prefix.h"
#include "sim/world.h"
#include "util/thread_pool.h"

namespace v6::scan {

// CAIDA-style: ::1 of every /48 under each routed /32, deterministically
// subsampled to `fraction` of the space (1.0 probes all 65536 per /32), in
// AS order. Given a pool, AS ranges are sampled in parallel and
// concatenated in order, so the list is the same.
std::vector<net::Ipv6Address> routed_slash48_targets(
    const sim::World& world, double fraction, std::uint64_t seed,
    util::ThreadPool* pool = nullptr);

// Low-IID candidate addresses (::0, ::1, ::2, ::a, ::100) inside each /64.
std::vector<net::Ipv6Address> low_iid_candidates(
    std::span<const net::Ipv6Prefix> active_slash64s);

// For each known-active /48, candidate subnet-router addresses of its first
// `subnets` /64s (::1 in each) — the "expand around structure" TGA step.
std::vector<net::Ipv6Address> subnet_sweep_candidates(
    std::span<const net::Ipv6Prefix> active_slash48s, std::uint32_t subnets);

}  // namespace v6::scan
