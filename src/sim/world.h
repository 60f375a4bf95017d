// The simulated IPv6 Internet: countries -> ASes -> customer sites ->
// devices, plus datacenter servers, core routers, cellular pools, aliased
// networks, and the measurement vantage points.
//
// Design invariant: *addresses are pure functions of time*. A device's
// address at instant t is computed from (device, AS rotation state at t,
// mobility attachment at t) with invertible building blocks (Feistel
// permutations), so the world supports both directions:
//   forward  — device_address(d, t)  (collection, event generation)
//   reverse  — resolve(addr, t)      (the data plane answering probes)
// with no mutable per-tick state. The same World object therefore serves
// the passive NTP collection, the active ZMap6/Yarrp campaigns, and the
// ground-truth checks in tests.
//
// Prefix layout inside an AS's /32 (the 32 bits between /32 and /64):
//   bits 31..28  region nibble: 0=infra 1=servers 2=customer sites
//                3=cellular pool 4=aliased datacenter /48s
//   infra   : router r, interface i  ->  | 0 | r:12 | i:16 |   (IID ::1)
//   servers : server s               ->  | 1 | s:28 |
//   sites   : slot:20, subnet:8      ->  | 2 | slot | subnet |  (/56 per site)
//   cellular: slot:28                ->  | 3 | slot |          (/64 per phone)
//   alias   : a48:12, any:16         ->  | 4 | a48 | any |     (fully aliased)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/bssid_db.h"
#include "geo/country.h"
#include "geo/geodb.h"
#include "geo/location.h"
#include "net/ipv4.h"
#include "net/ipv6.h"
#include "net/prefix.h"
#include "sim/as_profile.h"
#include "sim/device.h"
#include "sim/oui_registry.h"
#include "sim/types.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::sim {

struct WorldConfig {
  std::uint64_t seed = 42;
  // How many of geo::all_countries() participate (most populous first).
  std::size_t country_count = 40;
  // Total broadband customer sites worldwide; the main scale knob.
  // The paper's world is ~3 orders of magnitude larger; all reported
  // quantities are shape-preserving ratios.
  std::uint32_t total_sites = 20000;
  // Study window.
  util::SimTime study_start = 0;
  util::SimDuration study_duration = 219 * util::kDay;  // Jan 25 - Aug 31
  // Probability the IP-geolocation DB entry for an AS is wrong (MaxMind
  // error model).
  double geodb_error_rate = 0.02;
  // Ablation switch: when false, every client device is present for the
  // whole study (no churn). The ablation bench shows how much of the
  // paper's observed-once statistic this mechanism carries.
  bool client_churn = true;
  // Injected outages: this many eyeball ASes go completely dark for
  // `outage_duration` at a deterministic mid-study instant. Off by
  // default; the outage-detection example turns it on.
  std::uint32_t outage_count = 0;
  util::SimDuration outage_duration = 3 * util::kDay;
};

struct Site {
  SiteId id = kNoSite;
  std::uint32_t as_index = 0;
  std::uint32_t local_index = 0;  // dense index within the AS
  bool aliased = false;           // CPE answers every address in its /64s
  bool firewalled = false;        // CPE drops unsolicited inbound to LAN
  geo::LatLon location;
  DeviceId cpe = kNoDevice;
  DeviceId first_device = 0;  // clients: [first_device, first_device+count)
  std::uint16_t device_count = 0;
  // Devices relocated into this site mid-study (see
  // MobilityProfile::relocation_site); checked by the resolver alongside
  // the contiguous device range.
  std::vector<DeviceId> adopted;
};

struct AsInfo {
  Asn asn = 0;
  std::string name;
  std::uint16_t country_index = 0;  // into World::countries()
  AsType type = AsType::kIspBroadband;
  std::uint64_t prefix_hi = 0;  // /32 network half; low 32 bits zero
  AsProfile profile;
  std::uint64_t seed = 0;
  std::uint32_t first_site = 0;
  std::uint32_t site_count = 0;
  std::uint32_t router_count = 0;
  DeviceId first_server = 0;
  std::uint32_t server_count = 0;
  // Phones that can attach to this carrier (device ids); their
  // Device::mobile_index is the position in this vector.
  std::vector<DeviceId> subscribers;
  // Power-of-two Feistel domain covering the subscriber list.
  std::uint64_t cell_domain = 1;
  // IPv4 /16 owned by the AS (for embedded-IPv4 ground truth).
  std::uint32_t ipv4_base = 0;
  // Injected outage window (start == 0 means none).
  util::SimTime outage_start = 0;
  util::SimDuration outage_duration = 0;
  // Preferred CPE manufacturer (index into the OUI registry), if any —
  // e.g. German ISPs shipping AVM Fritz!Box.
  std::optional<std::uint32_t> cpe_maker;
};

// One of the 27 NTP Pool vantage servers.
struct VantagePoint {
  std::uint8_t id = 0;
  geo::CountryCode country;
  net::Ipv6Address address;
};

class World {
 public:
  static World generate(const WorldConfig& config);

  const WorldConfig& config() const noexcept { return config_; }
  std::span<const geo::CountryInfo> countries() const noexcept {
    return countries_;
  }
  std::span<const AsInfo> ases() const noexcept { return ases_; }
  std::span<const Site> sites() const noexcept { return sites_; }
  std::span<const Device> devices() const noexcept { return devices_; }
  std::span<const VantagePoint> vantages() const noexcept {
    return vantages_;
  }
  const OuiRegistry& ouis() const noexcept { return ouis_; }
  const geo::GeoDatabase& geodb() const noexcept { return geodb_; }
  const geo::BssidLocationDb& wardriving() const noexcept {
    return wardriving_;
  }

  // ---- forward (time-dependent ground truth) ----

  // Rotation generation of an AS at time t (0 for static ASes).
  std::uint64_t rotation_generation(const AsInfo& as, util::SimTime t) const;

  // The /56 network half of a site at time t (subnet bits zero).
  std::uint64_t site_prefix_hi(SiteId site, util::SimTime t) const;

  // Where a device is attached at time t and the /64 it sits in.
  struct Attachment {
    bool online = true;
    bool cellular = false;
    std::uint32_t as_index = 0;
    std::uint64_t prefix_hi = 0;  // /64 network half
  };
  Attachment attachment(DeviceId device, util::SimTime t) const;

  // Calls fn(as_index) for every AS `device` can attach to at some
  // instant (home site, relocation site, carriers), possibly more than
  // once: a superset of attachment(device, t).as_index over all t.
  template <typename Fn>
  void for_each_attachable_as(DeviceId device, Fn&& fn) const {
    const Device& dev = devices_[device];
    const MobilityProfile& mob = dev.mobility;
    fn(dev.site != kNoSite ? sites_[dev.site].as_index : mob.carrier_as[0]);
    if (mob.relocation_site != kNoSite) {
      fn(sites_[mob.relocation_site].as_index);
    }
    if (!mob.mobile) return;
    for (std::uint8_t i = 0; i < mob.carrier_count; ++i) {
      fn(mob.carrier_as[i]);
    }
  }

  // The device's full address at time t.
  net::Ipv6Address device_address(DeviceId device, util::SimTime t) const;

  // Interface address of an infrastructure router (IID ::1).
  net::Ipv6Address router_address(std::uint32_t as_index, std::uint32_t router,
                                  std::uint32_t interface) const;

  // Datacenter server addresses are time-invariant.
  net::Ipv6Address server_address(DeviceId device) const;

  // Addresses of servers published in (synthetic) DNS — the public seeds
  // an IPv6-Hitlist-style campaign starts from.
  std::vector<net::Ipv6Address> dns_seed_addresses() const;

  // ---- reverse (the resolver behind the data plane) ----

  struct Resolution {
    enum class Kind : std::uint8_t {
      kNone,    // unrouted / no such host
      kDevice,  // exact address of a live device at this time
      kRouter,  // infrastructure router interface
      kAlias,   // inside an aliased prefix: something answers regardless
    };
    Kind kind = Kind::kNone;
    DeviceId device = kNoDevice;     // kDevice (and kAlias inside a site
                                     // when the probe exactly hits a device)
    std::uint32_t as_index = 0;      // valid unless kNone
    std::uint32_t router = 0;        // kRouter
    bool firewalled = false;         // inbound filtered at the CPE/carrier
    bool icmp_silent = false;        // host reachable but ignores echo
  };
  Resolution resolve(const net::Ipv6Address& address, util::SimTime t) const;

  // The customer site holding the given address's /56 at time t, if the
  // address lies in a site region and the slot is assigned.
  std::optional<SiteId> site_at(const net::Ipv6Address& address,
                                util::SimTime t) const;

  // AS containing the address (by /32 match), if any.
  std::optional<std::uint32_t> as_index_of(const net::Ipv6Address& a) const;
  // AS owning an IPv4 address (by /16 match), if any.
  std::optional<std::uint32_t> as_index_of_ipv4(net::Ipv4Address v4) const;

  geo::CountryCode country_of_as(std::uint32_t as_index) const {
    return countries_[ases_[as_index].country_index].code;
  }

  // Every fully-aliased /48 (region 4) in the world — ground truth for
  // alias-detection tests.
  std::vector<net::Ipv6Prefix> aliased_datacenter_prefixes() const;

  // Whether a device has a listener on the given TCP port (web servers on
  // 80/443, some CPE management UIs on 443; clients none). Deterministic
  // per (device, port).
  bool serves_tcp(DeviceId device, std::uint16_t port) const;

  // True while the AS is inside an injected outage window: none of its
  // hosts emit NTP traffic or answer probes.
  bool in_outage(std::uint32_t as_index, util::SimTime t) const;

 private:
  World() = default;

  WorldConfig config_;
  std::vector<geo::CountryInfo> countries_;
  std::vector<AsInfo> ases_;
  std::vector<Site> sites_;
  std::vector<Device> devices_;
  std::vector<VantagePoint> vantages_;
  OuiRegistry ouis_;
  geo::GeoDatabase geodb_;
  geo::BssidLocationDb wardriving_;
  // /32 network half (hi64 with low 32 bits zero) -> AS index.
  std::unordered_map<std::uint64_t, std::uint32_t> as_by_prefix_;
  // IPv4 /16 base -> AS index.
  std::unordered_map<std::uint32_t, std::uint32_t> as_by_ipv4_;
};

// Region nibble values of the intra-AS layout (exposed for tests).
inline constexpr std::uint64_t kRegionInfra = 0;
inline constexpr std::uint64_t kRegionServer = 1;
inline constexpr std::uint64_t kRegionSite = 2;
inline constexpr std::uint64_t kRegionCell = 3;
inline constexpr std::uint64_t kRegionAlias = 4;

}  // namespace v6::sim
