#include "scan/yarrp.h"

#include <algorithm>

#include "sim/feistel.h"
#include "util/rng.h"

namespace v6::scan {

YarrpTracer::YarrpTracer(netsim::DataPlane& plane, const YarrpConfig& config)
    : plane_(&plane), config_(config) {
  if (config_.metrics != nullptr) {
    metric_probes_ =
        config_.metrics->counter("v6_scan_probes_total", "Probes emitted",
                                 {{"scanner", "yarrp"}});
    metric_responses_ = config_.metrics->counter(
        "v6_scan_responsive_total", "Probes a live target answered",
        {{"scanner", "yarrp"}});
  }
}

std::vector<TraceResult> YarrpTracer::trace(
    std::span<const net::Ipv6Address> targets, util::SimTime t0) {
  using Kind = netsim::ProbeResult::Kind;
  const std::size_t hops = config_.max_hops;
  const std::uint64_t space = targets.size() * hops;
  // Probe the (target, ttl) space in a keyed pseudo-random permutation —
  // Yarrp's signature randomization, which spreads load across paths.
  const sim::FeistelPermutation order(space ? space : 1,
                                      config_.seed ^ 0x9a44b);
  const std::uint64_t rate = config_.probe_rate ? config_.probe_rate : 1;

  // Each probe writes its own (target, ttl) cell: the responder into the
  // trace's hop list, the outcome into a target-major kind slot (slot =
  // target * hops + ttl - 1). The permutation is a bijection, so every
  // cell has exactly one writer.
  std::vector<TraceResult> results(targets.size());
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    results[ti].target = targets[ti];
    results[ti].hops.assign(hops, net::Ipv6Address{});
  }
  std::vector<Kind> kinds(space, Kind::kTimeout);
  const unsigned shards =
      plane_->order_independent()
          ? util::shard_count(config_.pool, space, kMinProbesPerShard)
          : 1;
  std::vector<std::uint64_t> shard_responses(shards, 0);
  const auto probe = [&](unsigned shard, std::size_t begin, std::size_t end) {
    // Probe indices come from the permutation a chunk at a time
    // (apply_batch is bit-identical to per-index apply).
    constexpr std::uint64_t kChunk = 1024;
    std::uint64_t ks[kChunk];
    std::uint64_t slots[kChunk];
    std::uint64_t responses = 0;
    for (std::uint64_t base = begin; base < end; base += kChunk) {
      const std::uint64_t n = std::min<std::uint64_t>(kChunk, end - base);
      for (std::uint64_t i = 0; i < n; ++i) ks[i] = base + i;
      order.apply_batch(ks, n, slots);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t slot = slots[i];
        const std::size_t ti = slot / hops;
        const auto ttl = static_cast<std::uint8_t>(1 + slot % hops);
        const util::SimTime t =
            t0 + static_cast<util::SimTime>((base + i) / rate);
        // State rides in ident/seq so responses need no lookup table.
        const auto ident = static_cast<std::uint16_t>(
            util::mix64(targets[ti].lo64() ^ config_.seed));
        const auto result = plane_->hop_limited_echo(
            config_.source, targets[ti], ttl, ident, ttl, t);
        kinds[slot] = result.kind;
        if (result.kind == Kind::kTimeExceeded) {
          results[ti].hops[ttl - 1] = result.responder;
        }
        responses += result.kind != Kind::kTimeout;
      }
    }
    shard_responses[shard] = responses;
  };
  util::run_sharded(config_.pool, space, shards, probe);

  // Regroup per target range: each trace's hop_responded (a vector<bool>,
  // whose bits share words) is written by one shard only.
  const auto regroup = [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t ti = begin; ti < end; ++ti) {
      TraceResult& r = results[ti];
      r.hop_responded.assign(hops, false);
      for (std::size_t h = 0; h < hops; ++h) {
        const Kind kind = kinds[ti * hops + h];
        r.hop_responded[h] = kind == Kind::kTimeExceeded;
        r.destination_reached |= kind == Kind::kEchoReply;
      }
    }
  };
  util::run_sharded(
      config_.pool, targets.size(),
      util::shard_count(config_.pool, space, kMinProbesPerShard), regroup);

  std::uint64_t responses = 0;
  for (const std::uint64_t r : shard_responses) responses += r;
  sent_ += space;
  metric_probes_.inc(space);
  metric_responses_.inc(responses);
  return results;
}

std::vector<net::Ipv6Address> YarrpTracer::discovered(
    std::span<const TraceResult> results, util::ThreadPool* pool) {
  // Address order compares the two 64-bit halves, not 16 bytes one at a
  // time (the same order as operator<).
  const auto less = [](const net::Ipv6Address& a, const net::Ipv6Address& b) {
    return a.hi64() != b.hi64() ? a.hi64() < b.hi64() : a.lo64() < b.lo64();
  };
  // A trace holds up to max_hops probes; shard at about the probe floor.
  const unsigned shards =
      util::shard_count(pool, results.size(), kMinProbesPerShard / 8);
  std::vector<std::vector<net::Ipv6Address>> parts(shards);
  util::run_sharded(pool, results.size(), shards,
                    [&](unsigned shard, std::size_t begin, std::size_t end) {
    std::vector<net::Ipv6Address>& out = parts[shard];
    // Traces share most router hops. A small direct-mapped cache of
    // recent addresses drops most repeats before the sort; it never drops
    // a first sighting, and sort + unique remove the rest.
    constexpr std::size_t kCache = 1024;
    std::vector<net::Ipv6Address> recent(
        kCache, net::Ipv6Address::from_u64(~std::uint64_t{0}, 0));
    const auto add = [&](const net::Ipv6Address& a) {
      net::Ipv6Address& slot =
          recent[util::mix64(a.hi64() ^ a.lo64()) & (kCache - 1)];
      if (slot == a) return;
      slot = a;
      out.push_back(a);
    };
    for (std::size_t i = begin; i < end; ++i) {
      const TraceResult& r = results[i];
      for (std::size_t h = 0; h < r.hops.size(); ++h) {
        if (r.hop_responded[h]) add(r.hops[h]);
      }
      if (r.destination_reached) add(r.target);
    }
    std::sort(out.begin(), out.end(), less);
    out.erase(std::unique(out.begin(), out.end()), out.end());
  });
  // Each part is sorted and distinct: merge them in turn, then drop the
  // addresses several parts saw.
  std::vector<net::Ipv6Address> out;
  for (const auto& part : parts) {
    const auto mid = static_cast<std::ptrdiff_t>(out.size());
    out.insert(out.end(), part.begin(), part.end());
    std::inplace_merge(out.begin(), out.begin() + mid, out.end(), less);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace v6::scan
