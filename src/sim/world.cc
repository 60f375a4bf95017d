#include "sim/world.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/addressing.h"
#include "sim/feistel.h"

namespace v6::sim {

namespace {

constexpr std::uint64_t kSiteSlotBits = 20;
constexpr std::uint64_t kSiteSlotCount = std::uint64_t{1} << kSiteSlotBits;
constexpr std::uint32_t kSubnetsPerSite = 4;
constexpr std::uint32_t kIfacesPerRouter = 2;
constexpr std::uint64_t kCellSlotMask = 0xfffffff;  // 28 bits

// Mean client devices per site (besides the CPE).
constexpr double kDevicesPerSiteMean = 3.0;
// Cellular-only subscribers as a multiple of total_sites.
constexpr double kCellularOnlyRatio = 1.2;
// Probability a given CPE access point appears in the wardriving DB,
// scaled per-country (Germany is heavily wardriven).
constexpr double kWardrivingCoverage = 0.6;

// Domain-separation tags for derived randomness.
constexpr std::uint64_t kTagSiteRotation = 0x517e;
constexpr std::uint64_t kTagCellAttach = 0xce11;
constexpr std::uint64_t kTagCellAlias = 0xa11a5;
constexpr std::uint64_t kTagMobility = 0xa77ac4;

double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t next_pow2(std::uint64_t n) noexcept {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Per-country wardriving intensity multiplier: Germany and its neighbours
// are saturated with WiGLE/OpenBMap coverage (hence the paper's 75%-German
// geolocation skew); much of Asia is sparsely covered.
double wardriving_factor(geo::CountryCode c) {
  const std::string code = c.to_string();
  if (code == "DE") return 2.0;
  if (code == "LU" || code == "NL" || code == "AT" || code == "CH" ||
      code == "FR" || code == "BE") {
    return 0.9;
  }
  if (code == "US" || code == "GB" || code == "PL" || code == "CZ" ||
      code == "SE") {
    return 0.6;
  }
  if (code == "MX" || code == "IN") return 0.35;
  return 0.22;
}

struct VantageSpec {
  const char* country;
  int count;
};

// §3: 27 servers in 20 countries — 6 US, 2 JP, 2 DE, 1 each elsewhere.
constexpr VantageSpec kVantagePlan[] = {
    {"US", 6}, {"JP", 2}, {"DE", 2}, {"AU", 1}, {"BH", 1}, {"BR", 1},
    {"BG", 1}, {"HK", 1}, {"IN", 1}, {"ID", 1}, {"MX", 1}, {"NL", 1},
    {"PL", 1}, {"SG", 1}, {"ZA", 1}, {"KR", 1}, {"ES", 1}, {"SE", 1},
    {"TW", 1}, {"GB", 1},
};

IidStrategy sample_strategy(const StrategyWeights& weights, util::Rng& rng) {
  return static_cast<IidStrategy>(rng.weighted(weights));
}

}  // namespace

std::uint64_t World::rotation_generation(const AsInfo& as,
                                         util::SimTime t) const {
  if (as.profile.rotation_period <= 0) return 0;
  const util::SimTime rel = t - config_.study_start;
  if (rel <= 0) return 0;
  return static_cast<std::uint64_t>(rel / as.profile.rotation_period);
}

std::uint64_t World::site_prefix_hi(SiteId site, util::SimTime t) const {
  const Site& s = sites_[site];
  const AsInfo& as = ases_[s.as_index];
  const std::uint64_t gen = rotation_generation(as, t);
  const FeistelPermutation perm(kSiteSlotCount,
                                as.seed ^ util::mix64(gen) ^ kTagSiteRotation);
  const std::uint64_t slot = perm.apply(s.local_index);
  return as.prefix_hi | (kRegionSite << 28) | (slot << 8);
}

World::Attachment World::attachment(DeviceId device, util::SimTime t) const {
  const Device& dev = devices_[device];
  if (dev.mobility.mobile && dev.mobility.carrier_count > 0) {
    const auto epoch =
        static_cast<std::uint64_t>((t - config_.study_start) / kAttachEpoch);
    const std::uint64_t roll =
        util::mix64(dev.seed ^ util::mix64(epoch) ^ kTagMobility);
    if (to_unit(roll) < dev.mobility.cellular_fraction) {
      const auto which = static_cast<std::uint8_t>(
          util::mix64(roll) % dev.mobility.carrier_count);
      const std::uint32_t as_index = dev.mobility.carrier_as[which];
      const AsInfo& carrier = ases_[as_index];
      const FeistelPermutation perm(
          carrier.cell_domain,
          carrier.seed ^ util::mix64(epoch) ^ kTagCellAttach);
      const std::uint64_t slot = perm.apply(dev.mobility.carrier_pos[which]);
      return {true, true, as_index,
              carrier.prefix_hi | (kRegionCell << 28) | slot};
    }
  }
  // Home (or relocated) site attachment.
  SiteId home = dev.site;
  if (dev.mobility.relocation_site != kNoSite &&
      t >= dev.mobility.relocation_time) {
    home = dev.mobility.relocation_site;
  }
  if (home == kNoSite) {
    // Cellular-only device rolled "WiFi": park it on carrier 0 anyway.
    const std::uint32_t as_index = dev.mobility.carrier_as[0];
    const AsInfo& carrier = ases_[as_index];
    const auto epoch =
        static_cast<std::uint64_t>((t - config_.study_start) / kAttachEpoch);
    const FeistelPermutation perm(
        carrier.cell_domain,
        carrier.seed ^ util::mix64(epoch) ^ kTagCellAttach);
    const std::uint64_t slot = perm.apply(dev.mobility.carrier_pos[0]);
    return {true, true, as_index,
            carrier.prefix_hi | (kRegionCell << 28) | slot};
  }
  const Site& site = sites_[home];
  std::uint64_t subnet = 0;
  if (dev.kind != DeviceKind::kCpe) {
    subnet = 1 + util::mix64(dev.seed ^ 0x5b) % (kSubnetsPerSite - 1);
  }
  return {true, false, site.as_index, site_prefix_hi(home, t) | subnet};
}

net::Ipv6Address World::device_address(DeviceId device,
                                       util::SimTime t) const {
  const Device& dev = devices_[device];
  if (dev.kind == DeviceKind::kServer) return server_address(device);
  const Attachment att = attachment(device, t);
  return address_for(dev, att.prefix_hi, t);
}

net::Ipv6Address World::router_address(std::uint32_t as_index,
                                       std::uint32_t router,
                                       std::uint32_t interface) const {
  const AsInfo& as = ases_[as_index];
  const std::uint64_t hi = as.prefix_hi | (kRegionInfra << 28) |
                           (std::uint64_t{router} << 16) | interface;
  return net::Ipv6Address::from_u64(hi, 1);
}

net::Ipv6Address World::server_address(DeviceId device) const {
  const Device& dev = devices_[device];
  const AsInfo& as = ases_[dev.as_index];
  const std::uint64_t index = device - as.first_server;
  const std::uint64_t hi = as.prefix_hi | (kRegionServer << 28) | index;
  // Server addresses are stable: strategy functions that depend on time
  // (none of the server strategies do) would still get t=0.
  return address_for(dev, hi, 0);
}

std::vector<net::Ipv6Address> World::dns_seed_addresses() const {
  std::vector<net::Ipv6Address> seeds;
  for (const AsInfo& as : ases_) {
    for (std::uint32_t s = 0; s < as.server_count; ++s) {
      const DeviceId d = as.first_server + s;
      if (util::mix64(devices_[d].seed ^ 0xd25) % 5 < 2) {
        seeds.push_back(server_address(d));
      }
    }
    // CDN-style hostnames resolve into aliased datacenter space — that is
    // how real campaigns first learn of those prefixes.
    for (std::uint32_t i = 0; i < as.profile.alias_slash48_count; ++i) {
      const std::uint64_t base =
          as.prefix_hi | (kRegionAlias << 28) | (std::uint64_t{i} << 16);
      // Several names per /48, in distinct /64s.
      for (std::uint32_t k = 0; k < 3; ++k) {
        const std::uint64_t which = util::mix64(as.seed ^ 0xcd4 ^ i ^
                                                (std::uint64_t{k} << 40));
        seeds.push_back(net::Ipv6Address::from_u64(base | (which & 0xffff),
                                                   util::mix64(which)));
      }
    }
  }
  return seeds;
}

namespace {

// Whether the carrier filters unsolicited inbound to this subscriber —
// independent of the device's home-site firewall (handsets are behind the
// carrier's packet gateway when on cellular).
bool cell_firewalled(const AsInfo& carrier, const Device& dev) {
  const std::uint64_t h = util::mix64(carrier.seed ^ dev.seed ^ 0xf13e);
  return to_unit(h) < carrier.profile.firewall_fraction;
}

bool aliased_cell_slot(const AsInfo& as, std::uint64_t slot) {
  if (as.profile.cellular_fully_aliased) return true;
  if (as.profile.aliased_site_fraction <= 0.0) return false;
  const std::uint64_t h = util::mix64(as.seed ^ kTagCellAlias ^ slot);
  return to_unit(h) < as.profile.aliased_site_fraction;
}

}  // namespace

World::Resolution World::resolve(const net::Ipv6Address& address,
                                 util::SimTime t) const {
  Resolution res;
  const std::uint64_t hi = address.hi64();
  const auto as_it = as_by_prefix_.find(hi & ~std::uint64_t{0xffffffff});
  if (as_it == as_by_prefix_.end()) return res;
  const std::uint32_t as_index = as_it->second;
  const AsInfo& as = ases_[as_index];
  res.as_index = as_index;
  if (in_outage(as_index, t)) return res;  // the whole AS is dark

  const std::uint64_t low32 = hi & 0xffffffff;
  const std::uint64_t region = low32 >> 28;

  auto try_device = [&](DeviceId d, bool firewalled) -> bool {
    const Device& dev = devices_[d];
    if (t < dev.active_start || t >= dev.active_end) return false;
    if (device_address(d, t) != address) return false;
    res.kind = Resolution::Kind::kDevice;
    res.device = d;
    // Two distinct silences: a filter in front of the host (drops every
    // protocol) vs a host that merely ignores echo (but still RSTs TCP).
    res.firewalled = firewalled;
    res.icmp_silent = !dev.responds_icmp;
    return true;
  };

  switch (region) {
    case kRegionInfra: {
      const std::uint64_t router = (low32 >> 16) & 0xfff;
      const std::uint64_t iface = low32 & 0xffff;
      if (router < as.router_count && iface < kIfacesPerRouter &&
          address.iid() == 1) {
        res.kind = Resolution::Kind::kRouter;
        res.router = static_cast<std::uint32_t>(router);
      }
      return res;
    }
    case kRegionServer: {
      const std::uint64_t index = low32 & kCellSlotMask;
      if (index < as.server_count) {
        const DeviceId d = as.first_server + static_cast<DeviceId>(index);
        try_device(d, devices_[d].firewalled);
      }
      return res;
    }
    case kRegionSite: {
      const std::uint64_t slot = (low32 >> 8) & (kSiteSlotCount - 1);
      const std::uint64_t subnet = low32 & 0xff;
      const std::uint64_t gen = rotation_generation(as, t);
      const FeistelPermutation perm(
          kSiteSlotCount, as.seed ^ util::mix64(gen) ^ kTagSiteRotation);
      const std::uint64_t local = perm.invert(slot);
      if (local >= as.site_count) return res;
      const Site& site = sites_[as.first_site + local];
      // Exact device in this /64?
      const bool lan_firewalled = site.firewalled && !site.aliased;
      if (subnet == 0 && site.cpe != kNoDevice) {
        if (try_device(site.cpe, false)) return res;
      }
      if (subnet >= 1 && subnet < kSubnetsPerSite) {
        for (DeviceId d = site.first_device;
             d < site.first_device + site.device_count; ++d) {
          if (try_device(d, lan_firewalled)) return res;
        }
        for (const DeviceId d : site.adopted) {
          if (try_device(d, lan_firewalled)) return res;
        }
      }
      if (site.aliased && subnet < kSubnetsPerSite) {
        res.kind = Resolution::Kind::kAlias;
      }
      return res;
    }
    case kRegionCell: {
      const std::uint64_t slot = low32 & kCellSlotMask;
      if (slot < as.cell_domain) {
        const auto epoch = static_cast<std::uint64_t>(
            (t - config_.study_start) / kAttachEpoch);
        const FeistelPermutation perm(
            as.cell_domain, as.seed ^ util::mix64(epoch) ^ kTagCellAttach);
        const std::uint64_t pos = perm.invert(slot);
        if (pos < as.subscribers.size()) {
          const DeviceId d = as.subscribers[pos];
          const Attachment att = attachment(d, t);
          if (att.cellular && att.prefix_hi == hi &&
              try_device(d, cell_firewalled(as, devices_[d]))) {
            return res;
          }
        }
      }
      if (aliased_cell_slot(as, slot)) {
        res.kind = Resolution::Kind::kAlias;
      }
      return res;
    }
    case kRegionAlias: {
      const std::uint64_t a48 = (low32 >> 16) & 0xfff;
      if (a48 < as.profile.alias_slash48_count) {
        res.kind = Resolution::Kind::kAlias;
      }
      return res;
    }
    default:
      return res;
  }
}

std::optional<SiteId> World::site_at(const net::Ipv6Address& address,
                                     util::SimTime t) const {
  const std::uint64_t hi = address.hi64();
  const auto as_it = as_by_prefix_.find(hi & ~std::uint64_t{0xffffffff});
  if (as_it == as_by_prefix_.end()) return std::nullopt;
  const AsInfo& as = ases_[as_it->second];
  const std::uint64_t low32 = hi & 0xffffffff;
  if ((low32 >> 28) != kRegionSite) return std::nullopt;
  const std::uint64_t slot = (low32 >> 8) & (kSiteSlotCount - 1);
  const std::uint64_t gen = rotation_generation(as, t);
  const FeistelPermutation perm(kSiteSlotCount,
                                as.seed ^ util::mix64(gen) ^ kTagSiteRotation);
  const std::uint64_t local = perm.invert(slot);
  if (local >= as.site_count) return std::nullopt;
  return as.first_site + static_cast<SiteId>(local);
}

std::optional<std::uint32_t> World::as_index_of(
    const net::Ipv6Address& a) const {
  const auto it = as_by_prefix_.find(a.hi64() & ~std::uint64_t{0xffffffff});
  if (it == as_by_prefix_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> World::as_index_of_ipv4(
    net::Ipv4Address v4) const {
  const auto it = as_by_ipv4_.find(v4.value() & 0xffff0000);
  if (it == as_by_ipv4_.end()) return std::nullopt;
  return it->second;
}

bool World::in_outage(std::uint32_t as_index, util::SimTime t) const {
  const AsInfo& as = ases_[as_index];
  return as.outage_duration > 0 && t >= as.outage_start &&
         t < as.outage_start + as.outage_duration;
}

bool World::serves_tcp(DeviceId device, std::uint16_t port) const {
  const Device& dev = devices_[device];
  const std::uint64_t h =
      util::mix64(dev.seed ^ 0x7c9 ^ (std::uint64_t{port} << 32));
  const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
  switch (dev.kind) {
    case DeviceKind::kServer:
      // Most datacenter boxes serve web; 443 slightly ahead of 80.
      return roll < (port == 443 ? 0.75 : (port == 80 ? 0.65 : 0.02));
    case DeviceKind::kCpe:
      // Management UIs occasionally exposed on the WAN side.
      return port == 443 && roll < 0.15;
    default:
      return false;
  }
}

std::vector<net::Ipv6Prefix> World::aliased_datacenter_prefixes() const {
  std::vector<net::Ipv6Prefix> out;
  for (const AsInfo& as : ases_) {
    for (std::uint32_t i = 0; i < as.profile.alias_slash48_count; ++i) {
      const std::uint64_t hi =
          as.prefix_hi | (kRegionAlias << 28) | (std::uint64_t{i} << 16);
      out.emplace_back(net::Ipv6Address::from_u64(hi, 0), 48);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

World World::generate(const WorldConfig& config) {
  World w;
  w.config_ = config;
  w.ouis_ = OuiRegistry::standard();
  util::Rng rng(config.seed);

  const auto all = geo::all_countries();
  const std::size_t n_countries =
      std::min(config.country_count, all.size());
  w.countries_.assign(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(n_countries));
  double weight_total = 0.0;
  for (const auto& c : w.countries_) weight_total += c.client_weight;

  // ---- Pass 1: create ASes per country ----
  struct CountryAses {
    std::vector<std::uint32_t> mobile;
    std::vector<std::uint32_t> broadband;
  };
  std::vector<CountryAses> per_country(n_countries);

  auto add_as = [&](std::uint16_t country_index, AsType type,
                    std::string name) -> std::uint32_t {
    const auto index = static_cast<std::uint32_t>(w.ases_.size());
    AsInfo as;
    as.asn = 4200 + index * 3 + (index % 7);
    as.name = std::move(name);
    as.country_index = country_index;
    as.type = type;
    as.prefix_hi = (std::uint64_t{0x2a00} << 48) |
                   (static_cast<std::uint64_t>(index) << 32);
    as.seed = rng.fork(index).next();
    util::Rng as_rng(as.seed);
    as.profile = make_profile(type, as_rng);
    as.ipv4_base = 0x0b000000u + index * 0x10000u;
    w.as_by_prefix_[as.prefix_hi] = index;
    w.as_by_ipv4_[as.ipv4_base] = index;
    w.ases_.push_back(std::move(as));
    return index;
  };

  for (std::uint16_t ci = 0; ci < n_countries; ++ci) {
    const auto& country = w.countries_[ci];
    const double weight = country.client_weight / weight_total;
    const auto name = [&](const char* role, int k) {
      return std::string(country.name) + " " + role + " " +
             std::to_string(k + 1);
    };
    const int mobiles = std::clamp(static_cast<int>(weight * 25.0), 1, 3);
    const int broadbands = std::clamp(static_cast<int>(weight * 30.0), 1, 4);
    const int clouds = weight > 0.005 ? 2 : 1;
    const int edus = weight > 0.01 ? 1 : 0;
    for (int k = 0; k < mobiles; ++k) {
      per_country[ci].mobile.push_back(
          add_as(ci, AsType::kIspMobile, name("Mobile", k)));
    }
    for (int k = 0; k < broadbands; ++k) {
      per_country[ci].broadband.push_back(
          add_as(ci, AsType::kIspBroadband, name("Broadband", k)));
    }
    for (int k = 0; k < clouds; ++k) {
      add_as(ci, AsType::kCloud, name("Cloud", k));
    }
    for (int k = 0; k < edus; ++k) {
      add_as(ci, AsType::kEducation, name("University", k));
    }
    add_as(ci, AsType::kTransit, name("Backbone", 0));
  }

  // ---- Named exemplar ASes (the paper's §4.3 case studies) ----
  auto rename = [&](std::string_view country_code, bool mobile, int nth,
                    const char* name) -> AsInfo* {
    for (std::uint16_t ci = 0; ci < n_countries; ++ci) {
      if (w.countries_[ci].code.to_string() != country_code) continue;
      const auto& list =
          mobile ? per_country[ci].mobile : per_country[ci].broadband;
      if (nth < static_cast<int>(list.size())) {
        AsInfo& as = w.ases_[list[static_cast<std::size_t>(nth)]];
        as.name = name;
        // The paper's named exemplar carriers are not aliased networks;
        // aliasing stays with the anonymous long tail (its "36 ASes").
        as.profile.cellular_fully_aliased = false;
        as.profile.aliased_site_fraction =
            std::min(as.profile.aliased_site_fraction, 0.05);
        return &as;
      }
    }
    return nullptr;
  };
  using S = IidStrategy;
  if (AsInfo* jio = rename("IN", true, 0, "Reliance Jio")) {
    // Two coexisting address classes: fully random and "structured low"
    // (only the lower four IID bytes random) — Fig 4's signature.
    jio->profile.client_strategies = {};
    weight(jio->profile.client_strategies, S::kRandomEphemeral) = 0.60;
    weight(jio->profile.client_strategies, S::kStructuredLow) = 0.33;
    weight(jio->profile.client_strategies, S::kRandomStable) = 0.07;
  }
  if (AsInfo* tsel = rename("ID", true, 0, "Telekomunikasi Selular")) {
    tsel->profile.client_strategies = {};
    weight(tsel->profile.client_strategies, S::kRandomEphemeral) = 0.40;
    weight(tsel->profile.client_strategies, S::kStructuredLow) = 0.35;
    weight(tsel->profile.client_strategies, S::kDhcpSequential) = 0.25;
  }
  rename("US", true, 0, "T-Mobile US");
  rename("CN", true, 0, "China Mobile");
  rename("CN", false, 0, "ChinaNet");
  if (AsInfo* dtag = rename("DE", false, 0, "Deutsche Telekom")) {
    // German broadband ships AVM Fritz!Box CPE almost exclusively; its
    // EUI-64 WAN addressing powers the §5.3 geolocation result.
    for (std::size_t mi = 0; mi < w.ouis_.manufacturers().size(); ++mi) {
      if (w.ouis_.manufacturers()[mi].name == "AVM GmbH") {
        dtag->cpe_maker = static_cast<std::uint32_t>(mi);
      }
    }
  }

  // ---- Pass 2: sites, devices, subscribers ----
  const auto maker_list_for = [&](DeviceKind kind) {
    return w.ouis_.makers_for_kind(kind);
  };
  const auto cpe_makers = maker_list_for(DeviceKind::kCpe);
  const auto desktop_makers = maker_list_for(DeviceKind::kDesktop);
  const auto mobile_makers = maker_list_for(DeviceKind::kMobile);
  const auto iot_makers = maker_list_for(DeviceKind::kIot);
  const auto server_makers = maker_list_for(DeviceKind::kServer);

  std::vector<std::uint32_t> mac_counter(w.ouis_.manufacturers().size(), 1);
  std::optional<std::size_t> avm_maker;
  for (std::size_t mi = 0; mi < w.ouis_.manufacturers().size(); ++mi) {
    if (w.ouis_.manufacturers()[mi].name == "AVM GmbH") avm_maker = mi;
  }

  auto pick_maker = [&](const std::vector<std::size_t>& candidates,
                        util::Rng& r) -> std::size_t {
    std::vector<double> weights;
    weights.reserve(candidates.size());
    for (const auto m : candidates) {
      weights.push_back(w.ouis_.manufacturer(m).weight);
    }
    return candidates[r.weighted(weights)];
  };

  auto assign_mac = [&](std::size_t maker_index, util::Rng& r)
      -> net::MacAddress {
    const Manufacturer& maker = w.ouis_.manufacturer(maker_index);
    const net::Oui oui =
        maker.ouis[r.bounded(maker.ouis.size())];
    std::uint32_t suffix;
    if (maker.reuses_macs && r.chance(0.06)) {
      // Recycled MAC: drawn from a tiny shared pool, so the same EUI-64
      // IID shows up on devices scattered across the world.
      suffix = static_cast<std::uint32_t>(
          util::mix64(static_cast<std::uint64_t>(maker_index) ^ 0x4ec7c1ed ^
                      r.bounded(16)) &
          0xffffff);
    } else {
      // Suffixes scatter across the 24-bit space (production runs and
      // product lines), rather than counting up densely. This is what
      // makes per-OUI offset inference discriminative: a wired MAC's only
      // near neighbour in BSSID space is its own access point.
      suffix = static_cast<std::uint32_t>(
          util::mix64((static_cast<std::uint64_t>(maker_index) << 32) ^
                      mac_counter[maker_index]++) &
          0xffffff);
    }
    return net::MacAddress::from_u64(
        (static_cast<std::uint64_t>(oui.value()) << 24) | (suffix & 0xffffff));
  };

  auto client_strategy = [&](const AsInfo& as, DeviceKind kind,
                             std::size_t maker_index,
                             util::Rng& r) -> IidStrategy {
    const Manufacturer& maker = w.ouis_.manufacturer(maker_index);
    double eui64_p = maker.eui64_propensity;
    if (kind == DeviceKind::kMobile) eui64_p *= 0.12;
    if (kind == DeviceKind::kDesktop) eui64_p *= 0.10;
    if (r.chance(eui64_p)) return S::kEui64;
    StrategyWeights weights = as.profile.client_strategies;
    weight(weights, S::kEui64) = 0.0;
    // Sparse temporary addressing is a phone/desktop OS behaviour; IoT
    // firmware uses stable or vendor-specific schemes.
    if (kind == DeviceKind::kIot) weight(weights, S::kSparseEphemeral) = 0.0;
    return sample_strategy(weights, r);
  };

  // Upper bound for reservation: sites + clients + servers + cellular.
  w.sites_.reserve(config.total_sites + 64);
  w.devices_.reserve(static_cast<std::size_t>(
      config.total_sites * (1.0 + kDevicesPerSiteMean) +
      config.total_sites * kCellularOnlyRatio + 4096));

  // Client-device churn: a bit under half the population is present for
  // the whole study; the rest appear for a window averaging ~2 weeks
  // (new purchases, moves, devices retired). This is what makes most
  // corpus addresses — and most EUI-64 MACs — one-time sightings.
  auto assign_activity = [&config](Device& dev, util::Rng& r) {
    if (!config.client_churn) return;  // ablation: everyone stays
    if (r.chance(0.25)) return;  // present throughout
    const auto duration = static_cast<double>(config.study_duration);
    const auto start =
        config.study_start +
        static_cast<util::SimTime>(r.uniform(-0.15, 1.0) * duration);
    const auto length = static_cast<util::SimDuration>(
                            r.exponential(12.0 * util::kDay)) +
                        util::kHour;
    dev.active_start = start;
    dev.active_end = start + length;
  };

  auto register_subscriber = [&](Device& dev, std::uint32_t carrier) {
    AsInfo& as = w.ases_[carrier];
    const auto pos = static_cast<std::uint32_t>(as.subscribers.size());
    const auto k = dev.mobility.carrier_count;
    dev.mobility.carrier_as[k] = carrier;
    dev.mobility.carrier_pos[k] = pos;
    dev.mobility.carrier_count = static_cast<std::uint8_t>(k + 1);
    as.subscribers.push_back(dev.id);
  };

  for (std::uint32_t as_index = 0; as_index < w.ases_.size(); ++as_index) {
    // Sites are appended per AS below; record the range.
    AsInfo& as = w.ases_[as_index];
    util::Rng as_rng(util::mix64(as.seed ^ 0x9e37));

    const auto& country = w.countries_[as.country_index];
    const double weight_share = country.client_weight / weight_total;

    // --- infrastructure routers ---
    // Router counts scale with world size so infrastructure stays a
    // realistic sliver of the visible address space at every scale.
    const double scale = static_cast<double>(config.total_sites);
    std::uint32_t routers = 0;
    switch (as.type) {
      case AsType::kTransit:
        routers = static_cast<std::uint32_t>(3 + scale / 3000.0 +
                                             as_rng.bounded(4));
        break;
      case AsType::kCloud:
        routers = static_cast<std::uint32_t>(3 + as_rng.bounded(4));
        break;
      default:
        routers = static_cast<std::uint32_t>(
            2 + weight_share * scale / 400.0 + as_rng.bounded(3));
        break;
    }
    as.router_count = std::min<std::uint32_t>(routers, 0xfff);

    // --- datacenter servers (cloud + education) ---
    if (as.type == AsType::kCloud || as.type == AsType::kEducation) {
      as.first_server = static_cast<DeviceId>(w.devices_.size());
      const auto servers = static_cast<std::uint32_t>(
          (as.type == AsType::kCloud ? 10 + config.total_sites / 300
                                     : 4 + config.total_sites / 1000) +
          as_rng.bounded(std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(config.total_sites / 300))));
      as.server_count = servers;
      for (std::uint32_t s = 0; s < servers; ++s) {
        Device dev;
        dev.id = static_cast<DeviceId>(w.devices_.size());
        dev.kind = DeviceKind::kServer;
        dev.as_index = as_index;
        dev.seed = as_rng.next();
        util::Rng dev_rng(dev.seed);
        const auto maker = pick_maker(server_makers, dev_rng);
        dev.maker_index = static_cast<std::uint32_t>(maker);
        dev.mac = assign_mac(maker, dev_rng);
        dev.strategy = sample_strategy(as.profile.server_strategies, dev_rng);
        dev.ipv4 = as.ipv4_base |
                   static_cast<std::uint32_t>(dev_rng.bounded(0x10000));
        dev.firewalled = dev_rng.chance(as.profile.firewall_fraction);
        dev.responds_icmp = dev_rng.chance(0.95);
        // Servers rarely use the public pool (vendor/OS defaults or
        // internal NTP); those that do poll slowly.
        dev.ntp.uses_pool = dev_rng.chance(0.10);
        dev.ntp.poll_interval =
            static_cast<util::SimDuration>(dev_rng.range(15, 60)) *
            util::kMinute;
        dev.ntp.online_fraction = 1.0;
        if (dev_rng.chance(0.7)) {
          dev.ntp.burst = static_cast<std::uint8_t>(4 + dev_rng.bounded(5));
        }
        w.devices_.push_back(std::move(dev));
      }
    }
  }

  // --- customer sites: distribute over (country, broadband/edu AS) ---
  // First compute per-AS site budgets, then materialize.
  std::vector<std::uint32_t> site_budget(w.ases_.size(), 0);
  for (std::uint16_t ci = 0; ci < n_countries; ++ci) {
    const auto& country = w.countries_[ci];
    const double share = country.client_weight / weight_total;
    auto country_sites = static_cast<std::uint32_t>(
        std::llround(share * static_cast<double>(config.total_sites)));
    const auto& bb = per_country[ci].broadband;
    if (bb.empty() || country_sites == 0) continue;
    // Fixed-line markets are fragmented; the lead ISP holds ~35%.
    std::uint32_t remaining = country_sites;
    for (std::size_t k = 0; k < bb.size(); ++k) {
      const bool last = k + 1 == bb.size();
      const auto take =
          last ? remaining
               : static_cast<std::uint32_t>(
                     static_cast<double>(remaining) * (k == 0 ? 0.35 : 0.5));
      site_budget[bb[k]] += take;
      remaining -= take;
    }
  }
  // Education ASes get a trickle of lab sites.
  for (std::uint32_t ai = 0; ai < w.ases_.size(); ++ai) {
    if (w.ases_[ai].type == AsType::kEducation) {
      site_budget[ai] = 2 + static_cast<std::uint32_t>(
                                util::mix64(w.ases_[ai].seed) % 6);
    }
  }

  for (std::uint32_t as_index = 0; as_index < w.ases_.size(); ++as_index) {
    AsInfo& as = w.ases_[as_index];
    const std::uint32_t budget = site_budget[as_index];
    if (budget == 0) continue;
    as.first_site = static_cast<std::uint32_t>(w.sites_.size());
    as.site_count = budget;
    util::Rng as_rng(util::mix64(as.seed ^ 0x51735));
    const auto& country = w.countries_[as.country_index];
    const auto& mobiles = per_country[as.country_index].mobile;

    for (std::uint32_t local = 0; local < budget; ++local) {
      Site site;
      site.id = static_cast<SiteId>(w.sites_.size());
      site.as_index = as_index;
      site.local_index = local;
      site.aliased = as_rng.chance(as.profile.aliased_site_fraction);
      site.firewalled = as_rng.chance(as.profile.firewall_fraction);
      // Tight enough that centroid-based country attribution (our stand-in
      // for reverse geocoding) stays faithful.
      site.location = {country.latitude + as_rng.uniform(-1.2, 1.2),
                       country.longitude + as_rng.uniform(-1.2, 1.2)};

      // --- the CPE ---
      {
        Device dev;
        dev.id = static_cast<DeviceId>(w.devices_.size());
        dev.kind = DeviceKind::kCpe;
        dev.as_index = as_index;
        dev.site = site.id;
        dev.seed = as_rng.next();
        util::Rng dev_rng(dev.seed);
        std::size_t maker;
        if (as.cpe_maker) {
          maker = *as.cpe_maker;
        } else if (country.code == *geo::CountryCode::parse("DE") &&
                   avm_maker && dev_rng.chance(0.85)) {
          // German retail is dominated by AVM Fritz!Box regardless of ISP.
          maker = *avm_maker;
        } else {
          maker = pick_maker(cpe_makers, dev_rng);
        }
        dev.maker_index = static_cast<std::uint32_t>(maker);
        dev.mac = assign_mac(maker, dev_rng);
        const Manufacturer& m = w.ouis_.manufacturer(maker);
        if (dev_rng.chance(m.eui64_propensity)) {
          dev.strategy = S::kEui64;
        } else {
          StrategyWeights cw = as.profile.cpe_strategies;
          weight(cw, S::kEui64) = 0.0;
          dev.strategy = sample_strategy(cw, dev_rng);
        }
        if (m.bssid_offset != 0) {
          const std::uint32_t suffix =
              (dev.mac.suffix() +
               static_cast<std::uint32_t>(m.bssid_offset)) &
              0xffffff;
          dev.bssid = net::MacAddress::from_u64(
              (static_cast<std::uint64_t>(dev.mac.oui().value()) << 24) |
              suffix);
        }
        dev.ipv4 = as.ipv4_base |
                   static_cast<std::uint32_t>(dev_rng.bounded(0x10000));
        dev.firewalled = false;  // the CPE WAN itself is reachable
        dev.responds_icmp = dev_rng.chance(0.9);
        // Most gateways sync against ISP or vendor time sources; only a
        // minority are configured for the public pool.
        // Fritz!OS ships with NTP enabled against public pools, so AVM
        // gateways are disproportionately present in the corpus.
        dev.ntp.uses_pool =
            dev_rng.chance(avm_maker && maker == *avm_maker ? 0.35 : 0.05);
        // Gateways run ntpd: steady-state polls every 2^6..2^10 seconds;
        // we model the settled cadence at tens of minutes.
        dev.ntp.poll_interval =
            static_cast<util::SimDuration>(dev_rng.range(15, 90)) *
            util::kMinute;
        dev.ntp.online_fraction = 0.95;
        if (dev_rng.chance(0.6)) {
          dev.ntp.burst = static_cast<std::uint8_t>(4 + dev_rng.bounded(5));
        }
        site.cpe = dev.id;
        w.devices_.push_back(std::move(dev));
        // Wardriving coverage of the site's access point.
        const Device& cpe = w.devices_.back();
        if (cpe.bssid) {
          const double coverage = std::min(
              0.95,
              kWardrivingCoverage * wardriving_factor(country.code));
          if (as_rng.chance(coverage)) {
            w.wardriving_.add(*cpe.bssid,
                              {site.location.latitude +
                                   as_rng.uniform(-0.01, 0.01),
                               site.location.longitude +
                                   as_rng.uniform(-0.01, 0.01)});
          }
        }
      }

      // --- client devices ---
      const int clients = 1 + static_cast<int>(as_rng.exponential(
                                  kDevicesPerSiteMean - 1.0));
      site.first_device = static_cast<DeviceId>(w.devices_.size());
      site.device_count = static_cast<std::uint16_t>(
          std::min(clients, 12));
      for (int c = 0; c < static_cast<int>(site.device_count); ++c) {
        Device dev;
        dev.id = static_cast<DeviceId>(w.devices_.size());
        dev.as_index = as_index;
        dev.site = site.id;
        dev.seed = as_rng.next();
        util::Rng dev_rng(dev.seed);
        const double kind_roll = dev_rng.uniform();
        dev.kind = kind_roll < 0.30   ? DeviceKind::kDesktop
                   : kind_roll < 0.65 ? DeviceKind::kMobile
                                      : DeviceKind::kIot;
        const auto& makers = dev.kind == DeviceKind::kDesktop
                                 ? desktop_makers
                                 : dev.kind == DeviceKind::kMobile
                                       ? mobile_makers
                                       : iot_makers;
        const auto maker = pick_maker(makers, dev_rng);
        dev.maker_index = static_cast<std::uint32_t>(maker);
        dev.mac = assign_mac(maker, dev_rng);
        dev.strategy = client_strategy(as, dev.kind, maker, dev_rng);
        dev.ipv4 = as.ipv4_base |
                   static_cast<std::uint32_t>(dev_rng.bounded(0x10000));
        assign_activity(dev, dev_rng);
        dev.firewalled = site.firewalled;
        dev.responds_icmp = dev_rng.chance(0.85);
        dev.ntp.uses_pool = dev_rng.chance(as.profile.pool_usage_fraction);
        switch (dev.kind) {
          case DeviceKind::kIot:
            // Gadgets check the time occasionally (boot, scheduled
            // re-sync), not on an ntpd cadence.
            dev.ntp.poll_interval =
                static_cast<util::SimDuration>(dev_rng.range(4, 24)) *
                util::kHour;
            dev.ntp.online_fraction = dev_rng.uniform(0.6, 0.95);
            break;
          case DeviceKind::kDesktop:
            // timesyncd/ntpd poll at minute granularity whenever the
            // machine is up.
            dev.ntp.poll_interval =
                static_cast<util::SimDuration>(dev_rng.range(30, 120)) *
                util::kMinute;
            dev.ntp.online_fraction = dev_rng.uniform(0.2, 0.6);
            break;
          default:
            dev.ntp.poll_interval =
                static_cast<util::SimDuration>(dev_rng.range(2, 16)) *
                util::kHour;
            dev.ntp.online_fraction = dev_rng.uniform(0.5, 0.9);
            break;
        }
        // ntpdate/iburst-style clients send a packet burst per sync.
        if (dev_rng.chance(dev.kind == DeviceKind::kDesktop ? 0.35 : 0.12)) {
          dev.ntp.burst = static_cast<std::uint8_t>(4 + dev_rng.bounded(5));
        }
        if (dev.kind == DeviceKind::kMobile && !mobiles.empty() &&
            dev_rng.chance(0.85)) {
          dev.mobility.mobile = true;
          dev.mobility.cellular_fraction = dev_rng.uniform(0.35, 0.7);
          // ~15% of phones roam across several carriers ("user movement").
          const int carriers =
              dev_rng.chance(0.15) && mobiles.size() > 1
                  ? static_cast<int>(
                        2 + dev_rng.bounded(std::min<std::uint64_t>(
                                2, mobiles.size() - 1)))
                  : 1;
          w.devices_.push_back(dev);  // id already set
          Device& stored = w.devices_.back();
          std::vector<std::uint32_t> chosen;
          for (int k = 0; k < carriers; ++k) {
            std::uint32_t carrier;
            do {
              carrier = mobiles[dev_rng.bounded(mobiles.size())];
            } while (std::find(chosen.begin(), chosen.end(), carrier) !=
                     chosen.end());
            chosen.push_back(carrier);
            register_subscriber(stored, carrier);
          }
          continue;
        }
        // ~1.5% of static IoT devices relocate to another AS mid-study
        // ("changing providers").
        if (dev.kind == DeviceKind::kIot && dev_rng.chance(0.015)) {
          dev.mobility.relocation_time =
              config.study_start +
              static_cast<util::SimDuration>(dev_rng.range(
                  30 * util::kDay, config.study_duration - 30 * util::kDay));
          // Resolved after all sites exist; stash a sentinel for now.
          dev.mobility.relocation_site = 0;
        }
        w.devices_.push_back(std::move(dev));
      }
      w.sites_.push_back(std::move(site));
    }
  }

  // --- cellular-only subscribers ---
  for (std::uint16_t ci = 0; ci < n_countries; ++ci) {
    const auto& mobiles = per_country[ci].mobile;
    if (mobiles.empty()) continue;
    const auto& country = w.countries_[ci];
    const double share = country.client_weight / weight_total;
    auto phones = static_cast<std::uint32_t>(std::llround(
        share * static_cast<double>(config.total_sites) *
        kCellularOnlyRatio));
    util::Rng crng(util::mix64(config.seed ^ (0xce11u + ci)));
    for (std::uint32_t p = 0; p < phones; ++p) {
      Device dev;
      dev.id = static_cast<DeviceId>(w.devices_.size());
      dev.kind = DeviceKind::kMobile;
      dev.seed = crng.next();
      util::Rng dev_rng(dev.seed);
      const auto maker = pick_maker(mobile_makers, dev_rng);
      dev.maker_index = static_cast<std::uint32_t>(maker);
      dev.mac = assign_mac(maker, dev_rng);
      // Heavier share to the first carrier: the paper's top-5 ASes are
      // single dominant mobile providers.
      const std::size_t which =
          dev_rng.chance(0.7) ? 0 : dev_rng.bounded(mobiles.size());
      const std::uint32_t carrier = mobiles[which];
      dev.as_index = carrier;
      const AsInfo& as = w.ases_[carrier];
      dev.strategy = client_strategy(as, DeviceKind::kMobile, maker, dev_rng);
      dev.ipv4 =
          as.ipv4_base | static_cast<std::uint32_t>(dev_rng.bounded(0x10000));
      assign_activity(dev, dev_rng);
      dev.firewalled = dev_rng.chance(as.profile.firewall_fraction);
      dev.responds_icmp = dev_rng.chance(0.85);
      dev.ntp.uses_pool = dev_rng.chance(as.profile.pool_usage_fraction);
      dev.ntp.poll_interval =
          static_cast<util::SimDuration>(dev_rng.range(2, 12)) * util::kHour;
      dev.ntp.online_fraction = dev_rng.uniform(0.5, 0.95);
      if (dev_rng.chance(0.12)) {
        dev.ntp.burst = static_cast<std::uint8_t>(4 + dev_rng.bounded(5));
      }
      dev.mobility.mobile = true;
      dev.mobility.cellular_fraction = 1.0;
      w.devices_.push_back(dev);
      register_subscriber(w.devices_.back(), carrier);
    }
  }

  // --- finalize cellular Feistel domains ---
  for (AsInfo& as : w.ases_) {
    as.cell_domain =
        std::min<std::uint64_t>(next_pow2(as.subscribers.size() * 4 + 4),
                                kCellSlotMask + 1);
  }

  // --- resolve relocation targets now that all sites exist ---
  {
    util::Rng rrng(util::mix64(config.seed ^ 0x4e10c));
    for (Device& dev : w.devices_) {
      if (dev.mobility.relocation_time == 0 || dev.site == kNoSite) continue;
      // Prefer a site in a different AS of the same country.
      const auto& home_as = w.ases_[dev.as_index];
      const auto& bb = per_country[home_as.country_index].broadband;
      std::uint32_t target_as = dev.as_index;
      if (bb.size() > 1) {
        do {
          target_as = bb[rrng.bounded(bb.size())];
        } while (target_as == dev.as_index);
      }
      const AsInfo& tas = w.ases_[target_as];
      if (tas.site_count == 0) {
        dev.mobility.relocation_time = 0;
        dev.mobility.relocation_site = kNoSite;
        continue;
      }
      const SiteId target =
          tas.first_site +
          static_cast<SiteId>(rrng.bounded(tas.site_count));
      dev.mobility.relocation_site = target;
      w.sites_[target].adopted.push_back(dev.id);
    }
  }

  // --- vantage points ---
  {
    std::uint8_t vid = 0;
    for (const auto& spec : kVantagePlan) {
      const auto code = geo::CountryCode::parse(spec.country);
      // Only countries present in this world's (possibly truncated) list.
      std::optional<std::uint16_t> ci;
      for (std::uint16_t i = 0; i < n_countries; ++i) {
        if (w.countries_[i].code == *code) ci = i;
      }
      if (!ci) continue;
      // Host the vantage in a cloud AS of that country (there always is
      // one: every country gets >= 1 cloud AS).
      std::uint32_t host_as = 0;
      for (std::uint32_t ai = 0; ai < w.ases_.size(); ++ai) {
        if (w.ases_[ai].country_index == *ci &&
            w.ases_[ai].type == AsType::kCloud) {
          host_as = ai;
          break;
        }
      }
      for (int k = 0; k < spec.count; ++k) {
        VantagePoint v;
        v.id = vid++;
        v.country = *code;
        v.address = net::Ipv6Address::from_u64(
            w.ases_[host_as].prefix_hi | (kRegionServer << 28) |
                (0xff00000 + v.id),
            0x123);
        w.vantages_.push_back(v);
      }
    }
  }

  // --- injected outages: eyeball ASes that go dark mid-study ---
  if (config.outage_count > 0) {
    util::Rng orng(util::mix64(config.seed ^ 0x07a6e));
    std::vector<std::uint32_t> eyeballs;
    for (std::uint32_t ai = 0; ai < w.ases_.size(); ++ai) {
      const AsInfo& as = w.ases_[ai];
      if (as.site_count > 0 || !as.subscribers.empty()) eyeballs.push_back(ai);
    }
    orng.shuffle(eyeballs);
    const auto n = std::min<std::size_t>(config.outage_count,
                                         eyeballs.size());
    for (std::size_t k = 0; k < n; ++k) {
      AsInfo& as = w.ases_[eyeballs[k]];
      const auto latest = config.study_duration - config.outage_duration -
                          10 * util::kDay;
      as.outage_start =
          config.study_start + 20 * util::kDay +
          static_cast<util::SimTime>(orng.bounded(static_cast<std::uint64_t>(
              std::max<util::SimDuration>(latest - 20 * util::kDay, 1))));
      as.outage_duration = config.outage_duration;
    }
  }

  // --- IP geolocation database (with MaxMind-style errors) ---
  {
    util::Rng grng(util::mix64(config.seed ^ 0x6e0db));
    for (const AsInfo& as : w.ases_) {
      geo::CountryCode code = w.countries_[as.country_index].code;
      if (grng.chance(config.geodb_error_rate)) {
        code = w.countries_[grng.bounded(n_countries)].code;
      }
      w.geodb_.add(net::Ipv6Prefix(net::Ipv6Address::from_u64(as.prefix_hi, 0),
                                   32),
                   code);
    }
  }

  return w;
}

}  // namespace v6::sim
