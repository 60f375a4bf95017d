#include "hitlist/campaigns.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <unordered_set>

#include "scan/target_gen.h"
#include "scan/yarrp.h"
#include "scan/zmap6.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace v6::hitlist {

namespace {

// Hitlist campaign: one snapshot a week.
constexpr util::SimDuration kSnapshotInterval = util::kWeek;
// TGA expansion rounds per snapshot.
constexpr std::uint32_t kTgaIterations = 2;
// Frontier cap per snapshot (probe budget).
constexpr std::size_t kMaxFrontier = 150000;
// Fraction of frontier targets additionally traced with Yarrp.
constexpr double kTraceFraction = 0.12;
constexpr std::uint8_t kYarrpMaxHops = 12;
// Fraction of CPEs whose current address is exposed via reverse DNS.
constexpr double kRdnsCpeFraction = 0.08;
// Fraction of client devices whose current address leaks through
// crowdsourced panels / CDN logs / CT-style public sources per snapshot
// (the Hitlist ingests such feeds; Gasser et al. even ran MTurk).
constexpr double kCrowdsourcedClientFraction = 0.005;
// BGP-informed candidates: a light routed-/48 ::1 sample folded into the
// first snapshot's frontier (the real Hitlist also consumes BGP data).
constexpr double kRoutedSeedFraction = 0.001;
// CAIDA campaign: hop limit of its per-day Yarrp traces.
constexpr std::uint8_t kCaidaMaxHops = 12;

// Synthetic "public sources": addresses the campaign can learn without
// probing. Servers published in DNS, a slice of CPE WAN addresses visible
// through reverse DNS, and rDNS-named router interfaces. The per-site and
// per-device feeds are sampled by index range on `pool`.
std::vector<net::Ipv6Address> public_source_addresses(
    const sim::World& world, util::SimTime t, double rdns_cpe_fraction,
    double client_fraction, util::ThreadPool* pool) {
  std::vector<net::Ipv6Address> out = world.dns_seed_addresses();
  const auto fraction_hits = [](double fraction, std::uint64_t h) {
    return h < static_cast<std::uint64_t>(
                   fraction >= 1.0 ? ~std::uint64_t{0} : fraction * 0x1p64);
  };
  util::append_sharded(
      pool, world.sites().size(), scan::kMinProbesPerShard, out,
      [&](std::size_t i, std::vector<net::Ipv6Address>& part) {
        const sim::Site& site = world.sites()[i];
        if (site.cpe == sim::kNoDevice) return;
        const sim::Device& cpe = world.devices()[site.cpe];
        if (fraction_hits(rdns_cpe_fraction,
                          util::mix64(cpe.seed ^ 0x4d45))) {
          part.push_back(world.device_address(site.cpe, t));
        }
      });
  // Crowdsourced / log-derived client sightings: ephemeral end-host
  // addresses that no probe would ever guess. Re-rolled per snapshot
  // (different users show up in the feeds each week).
  util::append_sharded(
      pool, world.devices().size(), scan::kMinProbesPerShard, out,
      [&](std::size_t i, std::vector<net::Ipv6Address>& part) {
        const sim::Device& dev = world.devices()[i];
        if (dev.kind == sim::DeviceKind::kCpe ||
            dev.kind == sim::DeviceKind::kServer) {
          return;
        }
        // Panel/log feeds skew toward devices the NTP study never sees
        // (their time sync uses vendor servers), which is why the paper
        // found the datasets nearly disjoint.
        if (dev.ntp.uses_pool) return;
        if (fraction_hits(client_fraction,
                          util::mix64(dev.seed ^ 0xc10bd ^
                                      static_cast<std::uint64_t>(t)))) {
          part.push_back(world.device_address(dev.id, t));
        }
      });
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    const sim::AsInfo& as = world.ases()[ai];
    for (std::uint32_t r = 0; r < as.router_count; ++r) {
      if (util::mix64(as.seed ^ 0x4d46 ^ r) % 16 == 0) {
        out.push_back(world.router_address(ai, r, 1));
      }
    }
  }
  return out;
}

// The campaign's vantage: the first world vantage point (a cloud VM), or a
// fixed well-known address in an empty world.
net::Ipv6Address campaign_source(const sim::World& world) {
  if (!world.vantages().empty()) return world.vantages().front().address;
  return net::Ipv6Address::from_u64(0x2001067c00000000ULL, 0x1);
}

// The aliased-prefix list as a lookup. Prefixes are published at /64, /48
// or /36, all inside an address's high 64 bits, so each length keeps a set
// of masked hi64 words and a membership check is three integer lookups.
class AliasedSet {
 public:
  void insert(const net::Ipv6Prefix& p) {
    words_[slot(p.length())].insert(p.address().hi64());
  }
  bool contains(const net::Ipv6Prefix& p) const {
    return words_[slot(p.length())].contains(p.address().hi64());
  }
  // Whether any listed prefix covers `a`.
  bool covers(const net::Ipv6Address& a) const {
    const std::uint64_t hi = a.hi64();
    return words_[0].contains(hi) ||
           words_[1].contains(hi & (~std::uint64_t{0} << 16)) ||
           words_[2].contains(hi & (~std::uint64_t{0} << 28));
  }

 private:
  static std::size_t slot(int length) {
    return length == 64 ? 0 : length == 48 ? 1 : 2;
  }
  std::array<std::unordered_set<std::uint64_t>, 3> words_;  // /64, /48, /36
};

// A campaign's scan pool; none at one thread, so every scan runs inline.
std::unique_ptr<util::ThreadPool> campaign_pool(util::Parallelism threads) {
  const unsigned n = threads.resolved();
  return n > 1 ? std::make_unique<util::ThreadPool>(n) : nullptr;
}

}  // namespace

HitlistResult run_hitlist_campaign(const sim::World& world,
                                   netsim::DataPlane& plane,
                                   const HitlistCampaignConfig& config) {
  HitlistResult result;
  util::Rng rng(util::mix64(config.seed ^ 0x6175));
  const net::Ipv6Address source = campaign_source(world);
  const auto pool = campaign_pool(config.threads);

  std::unordered_set<net::Ipv6Address> known;          // published addrs
  std::unordered_set<net::Ipv6Prefix> active64, active48;
  AliasedSet aliased_set;
  std::unordered_set<std::uint64_t> alias_checked;  // /64s, by hi64
  std::vector<net::Ipv6Prefix> aliased_list;
  // Aliased /64s seen per /48: two siblings trigger testing the /48.
  std::unordered_map<net::Ipv6Prefix, int> aliased64_per_48;

  // BGP-driven alias detection: sample /48s under every routed /32 and,
  // where several siblings in one /36 test aliased, test (and publish) the
  // covering /36 itself. This is how whole CGN/CDN regions end up on the
  // Hitlist's aliased-prefix list.
  {
    AliasDetector detector(plane,
                           {source, 8, 8, rng.next(), config.metrics});
    constexpr int kSamplesPerPrefix = 64;
    for (const auto& as : world.ases()) {
      std::array<int, 16> hits_per_region{};
      std::vector<net::Ipv6Prefix> found48s;
      for (int k = 0; k < kSamplesPerPrefix; ++k) {
        const std::uint64_t s48 =
            util::mix64(config.seed ^ as.prefix_hi ^
                        static_cast<std::uint64_t>(k) * 0x9e3779b9ULL) &
            0xffff;
        const net::Ipv6Prefix p48(
            net::Ipv6Address::from_u64(as.prefix_hi | (s48 << 16), 0), 48);
        if (detector.is_aliased(p48, config.start)) {
          ++hits_per_region[s48 >> 12];
          found48s.push_back(p48);
        }
      }
      for (int region = 0; region < 16; ++region) {
        if (hits_per_region[region] < 2) continue;
        const net::Ipv6Prefix p36(
            net::Ipv6Address::from_u64(
                as.prefix_hi | (static_cast<std::uint64_t>(region) << 28), 0),
            36);
        if (detector.is_aliased(p36, config.start)) {
          aliased_set.insert(p36);
          aliased_list.push_back(p36);
          // The /48s are subsumed by the /36.
          std::erase_if(found48s, [&](const net::Ipv6Prefix& p) {
            return p36.contains(p);
          });
        }
      }
      for (const auto& p48 : found48s) {
        aliased_set.insert(p48);
        aliased_list.push_back(p48);
      }
    }
    result.probes_sent += detector.probes_sent();
  }

  const auto in_aliased = [&aliased_set](const net::Ipv6Address& a) {
    return aliased_set.covers(a);
  };

  const util::SimTime end = config.start + config.duration;
  for (util::SimTime snap = config.start; snap < end;
       snap += kSnapshotInterval) {
    ++result.snapshots;
    scan::Zmap6Scanner zmap(
        plane, {source, 100000, 0, rng.next(),
                scan::ProbeProtocol::kIcmpv6Echo, config.metrics, pool.get()});
    scan::YarrpTracer yarrp(plane,
                            {source, kYarrpMaxHops, 50000, rng.next(),
                             config.metrics, pool.get()});

    // Re-verify previously published addresses: each weekly release
    // contains what is *still* responsive, so records keep fresh
    // last-seen timestamps (Fig 5 compares against such a snapshot).
    if (!known.empty()) {
      std::vector<net::Ipv6Address> recheck(known.begin(), known.end());
      for (const auto& rec : zmap.scan(recheck, snap)) {
        if (rec.responded) result.corpus.add(rec.target, snap);
      }
    }

    // Frontier: public sources plus TGA expansion of known structure.
    std::vector<net::Ipv6Address> frontier = public_source_addresses(
        world, snap, kRdnsCpeFraction, kCrowdsourcedClientFraction,
        pool.get());
    if (snap == config.start) {
      const auto routed = scan::routed_slash48_targets(
          world, kRoutedSeedFraction, config.seed ^ 0xb69, pool.get());
      frontier.insert(frontier.end(), routed.begin(), routed.end());
    }
    {
      std::vector<net::Ipv6Prefix> v64(active64.begin(), active64.end());
      std::vector<net::Ipv6Prefix> v48(active48.begin(), active48.end());
      const auto low_iids = scan::low_iid_candidates(v64);
      frontier.insert(frontier.end(), low_iids.begin(), low_iids.end());
      const auto sweeps = scan::subnet_sweep_candidates(v48, 16);
      frontier.insert(frontier.end(), sweeps.begin(), sweeps.end());
    }
    if (frontier.size() > kMaxFrontier) {
      rng.shuffle(frontier);
      frontier.resize(kMaxFrontier);
    }

    for (std::uint32_t iteration = 0; iteration < kTgaIterations;
         ++iteration) {
      if (frontier.empty()) break;
      std::vector<net::Ipv6Address> found;

      // ZMap the frontier: ICMPv6 first, then TCP 443 and 80 against the
      // silent remainder (the Hitlist probes multiple protocols; TCP
      // reaches ICMP-silent servers and RST-ing hosts).
      std::vector<net::Ipv6Address> silent;
      for (const auto& rec : zmap.scan(frontier, snap)) {
        (rec.responded ? found : silent)
            .push_back(rec.target);
      }
      for (const auto protocol :
           {scan::ProbeProtocol::kTcpSyn443, scan::ProbeProtocol::kTcpSyn80}) {
        if (silent.empty()) break;
        scan::Zmap6Scanner tcp_zmap(plane,
                                    {source, 100000, 0, rng.next(), protocol,
                                     config.metrics, pool.get()});
        std::vector<net::Ipv6Address> still_silent;
        for (const auto& rec : tcp_zmap.scan(silent, snap)) {
          (rec.responded ? found : still_silent).push_back(rec.target);
        }
        silent = std::move(still_silent);
        result.probes_sent += tcp_zmap.probes_sent();
      }
      // Yarrp a sample: traces harvest periphery (CPE) and core routers.
      std::vector<net::Ipv6Address> trace_targets;
      for (const auto& target : frontier) {
        if (rng.chance(kTraceFraction)) trace_targets.push_back(target);
      }
      const auto traces = yarrp.trace(trace_targets, snap);
      const auto hops = scan::YarrpTracer::discovered(traces, pool.get());
      found.insert(found.end(), hops.begin(), hops.end());

      // Alias filtering on newly active /64s, then publication.
      std::vector<net::Ipv6Prefix> fresh64;  // in publication order
      for (const auto& addr : found) {
        if (in_aliased(addr)) continue;
        const auto p64 = net::slash64_of(addr);
        if (alias_checked.insert(addr.hi64()).second) {
          AliasDetector detector(
              plane, {source, 8, 8, rng.next(), config.metrics});
          const bool aliased = detector.is_aliased(p64, snap);
          if (aliased) {
            aliased_set.insert(p64);
            aliased_list.push_back(p64);
            // Aggregate upward: sibling aliased /64s suggest the whole
            // /48 is aliased; verify and publish the aggregate.
            const auto p48 = net::slash48_of(addr);
            if (++aliased64_per_48[p48] == 2 &&
                !aliased_set.contains(p48) &&
                detector.is_aliased(p48, snap)) {
              aliased_set.insert(p48);
              aliased_list.push_back(p48);
            }
          }
          result.probes_sent += detector.probes_sent();
          if (aliased) continue;
        }
        if (known.insert(addr).second) {
          result.corpus.add(addr, snap);
          // A fresh /64 is fodder for the next TGA round.
          if (active64.insert(p64).second) fresh64.push_back(p64);
          active48.insert(net::slash48_of(addr));
        }
      }
      frontier = scan::low_iid_candidates(fresh64);
      if (frontier.size() > kMaxFrontier) {
        rng.shuffle(frontier);
        frontier.resize(kMaxFrontier);
      }
    }
    result.probes_sent += zmap.probes_sent() + yarrp.probes_sent();
    if (config.sampler != nullptr) {
      config.sampler->sample(
          std::min<util::SimTime>(snap + kSnapshotInterval, end),
          "campaigns");
    }
  }

  std::sort(aliased_list.begin(), aliased_list.end());
  aliased_list.erase(std::unique(aliased_list.begin(), aliased_list.end()),
                     aliased_list.end());
  result.aliased_prefixes = std::move(aliased_list);

  // Retro-filter: alias knowledge accumulates across snapshots, so an
  // address published early can later turn out to lie inside an aliased
  // aggregate. The published responsive list never contains such
  // artifacts (the real Hitlist re-filters every snapshot the same way).
  Corpus filtered(result.corpus.size());
  for (const auto& rec : result.corpus.records()) {
    if (!in_aliased(rec.address)) filtered.add_record(rec);
  }
  result.corpus = std::move(filtered);
  return result;
}

CaidaResult run_caida_campaign(const sim::World& world,
                               netsim::DataPlane& plane,
                               const CaidaCampaignConfig& config) {
  CaidaResult result;
  const net::Ipv6Address source = campaign_source(world);
  const auto pool = campaign_pool(config.threads);
  const auto targets = scan::routed_slash48_targets(
      world, config.slash48_fraction, config.seed, pool.get());
  if (targets.empty()) return result;

  // Spread traces uniformly across the campaign window; Yarrp advances
  // time with its probe rate, so chunk the target list per day.
  const auto days = std::max<util::SimDuration>(
      1, config.duration / util::kDay);
  const std::size_t per_day =
      (targets.size() + static_cast<std::size_t>(days) - 1) /
      static_cast<std::size_t>(days);
  const std::size_t traced_days = (targets.size() + per_day - 1) / per_day;

  // Whole days shard across the pool (each day's tracer runs inline on
  // its worker, so at most one day per worker is in flight); the days'
  // discovered lists then merge into the corpus in day order. Under
  // router ICMP rate limiting the days run one after another on this
  // thread.
  struct Day {
    std::vector<net::Ipv6Address> discovered;
    std::uint64_t traces = 0;
    std::uint64_t probes = 0;
  };
  std::vector<Day> out(traced_days);
  util::run_sharded(
      plane.order_independent() ? pool.get() : nullptr, traced_days,
      static_cast<unsigned>(traced_days),
      [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t day = begin; day < end; ++day) {
          const std::size_t offset = day * per_day;
          scan::YarrpTracer yarrp(
              plane,
              {source, kCaidaMaxHops, 50000,
               config.seed ^ (0x471ULL + static_cast<std::uint64_t>(day)),
               config.metrics});
          const auto traces = yarrp.trace(
              std::span(targets).subspan(
                  offset, std::min(per_day, targets.size() - offset)),
              config.start + static_cast<util::SimDuration>(day) * util::kDay);
          out[day] = {scan::YarrpTracer::discovered(traces), traces.size(),
                      yarrp.probes_sent()};
        }
      });
  for (std::size_t day = 0; day < traced_days; ++day) {
    const util::SimTime t0 =
        config.start + static_cast<util::SimDuration>(day) * util::kDay;
    for (const auto& addr : out[day].discovered) result.corpus.add(addr, t0);
    result.traces += out[day].traces;
    result.probes_sent += out[day].probes;
  }
  return result;
}

}  // namespace v6::hitlist
