// The simulated data plane: delivers ICMPv6 and TCP probes and UDP
// datagrams between addresses, consulting the world for ownership,
// firewalls, and aliases, and the topology for hop-limited (traceroute)
// behaviour.
//
// Probes are not wire bytes. echo(), hop_limited_echo() and tcp_syn()
// decide each outcome from the world and the topology directly, walking
// only the path hop the hop limit names; no packet is built or parsed.
// UDP datagrams still travel as real wire bytes (send_udp(), the
// collector's wire_fidelity path): encoded, checksummed and decoded at
// both ends.
//
// A configurable loss rate models the real Internet's flakiness; scanners
// must tolerate it. Every datagram draws from one sequential loss RNG, so
// results depend on the order of those draws. A probe draws once for its
// request and, only if something answers, once for the answer; a Time
// Exceeded answer is first charged against the router's ICMP budget.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ipv6.h"
#include "netsim/fault_schedule.h"
#include "netsim/topology.h"
#include "obs/metrics.h"
#include "sim/world.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::netsim {

struct DataPlaneConfig {
  // Probability any single datagram is dropped in transit.
  double loss_rate = 0.01;
  std::uint64_t seed = 7;
  // Per-router ICMPv6 error generation budget per simulated second
  // (control-plane policing): Time Exceeded messages beyond it are
  // silently dropped. 0 disables the limit. Yarrp's randomized probe
  // order exists precisely to spread load under such budgets.
  std::uint32_t router_icmp_rate_limit = 0;
  // Optional metrics sink (not owned; must outlive the plane). Appended
  // last so existing positional initializers stay valid.
  obs::Registry* metrics = nullptr;
};

// Outcome of an ICMPv6 probe.
struct ProbeResult {
  enum class Kind : std::uint8_t {
    kEchoReply,     // destination answered
    kTimeExceeded,  // a router on the path answered (hop-limited probe)
    kTimeout,       // silence: filtered, dead, lost, or unrouted
  };
  Kind kind = Kind::kTimeout;
  // Who answered (valid unless kTimeout).
  net::Ipv6Address responder;
  // Echoed sequence number (kEchoReply only).
  std::uint16_t sequence = 0;
};

// A UDP service bound to an address (e.g. a vantage NTP server). Returns
// the response payload, if any.
using UdpService = std::function<std::optional<std::vector<std::uint8_t>>(
    const net::Ipv6Address& src, std::uint16_t src_port,
    const std::vector<std::uint8_t>& payload, util::SimTime t)>;

class DataPlane {
 public:
  DataPlane(const sim::World& world, const DataPlaneConfig& config);

  // Sends an ICMPv6 Echo Request from src to dst with unlimited hops.
  ProbeResult echo(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                   std::uint16_t identifier, std::uint16_t sequence,
                   util::SimTime t);

  // Hop-limited echo (the Yarrp primitive): if the path is longer than
  // `hop_limit` (counted from 1), the router at that hop answers Time
  // Exceeded. `identifier` and `sequence` identify the probe; only
  // `sequence` is echoed back.
  ProbeResult hop_limited_echo(const net::Ipv6Address& src,
                               const net::Ipv6Address& dst,
                               std::uint8_t hop_limit,
                               std::uint16_t identifier,
                               std::uint16_t sequence, util::SimTime t);

  // TCP SYN probe (the Hitlist's 80/443 scans). A listener answers
  // SYN-ACK; a reachable host without one answers RST (still proof of
  // liveness); firewalled/absent targets stay silent. Aliased prefixes
  // SYN-ACK everything. `src` and `sequence` identify the probe; no
  // outcome depends on them.
  enum class SynOutcome : std::uint8_t { kSynAck, kRst, kTimeout };
  SynOutcome tcp_syn(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                     std::uint16_t dst_port, std::uint32_t sequence,
                     util::SimTime t);

  // Registers a UDP service on (address, port). Datagrams to anyone else
  // are resolved against the world (devices do not run open UDP services,
  // so they produce no answer).
  void bind_udp(const net::Ipv6Address& address, std::uint16_t port,
                UdpService service);

  // Sends a UDP payload; returns the response payload when the service
  // answers and nothing was lost.
  std::optional<std::vector<std::uint8_t>> send_udp(
      const net::Ipv6Address& src, std::uint16_t src_port,
      const net::Ipv6Address& dst, std::uint16_t dst_port,
      const std::vector<std::uint8_t>& payload, util::SimTime t);

  const Topology& topology() const noexcept { return topology_; }

  // Attaches a vantage fault schedule: UDP datagrams to a vantage that is
  // in outage (or unlucky during slow start) vanish before reaching the
  // bound service. The schedule is consulted, never mutated, so one plan
  // can be shared across planes and with PoolDns. Pass nullptr to detach.
  void set_faults(const FaultSchedule* faults) noexcept { faults_ = faults; }
  const FaultSchedule* faults() const noexcept { return faults_; }

  // Number of datagrams dropped so far (both directions).
  std::uint64_t drops() const noexcept { return drops_; }
  // Time Exceeded messages suppressed by router rate limiting.
  std::uint64_t rate_limited() const noexcept { return rate_limited_; }
  // Datagrams swallowed by injected vantage faults.
  std::uint64_t fault_drops() const noexcept { return fault_drops_; }

 private:
  bool lost();
  // Charges one ICMP error against `router`'s budget for second `t`.
  bool icmp_error_allowed(const net::Ipv6Address& router, util::SimTime t);

  const sim::World* world_;
  DataPlaneConfig config_;
  Topology topology_;
  util::Rng rng_;
  const FaultSchedule* faults_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t rate_limited_ = 0;
  std::uint64_t fault_drops_ = 0;
  obs::Counter metric_drops_;
  obs::Counter metric_rate_limited_;
  obs::Counter metric_fault_drops_;
  // Per-second ICMP error budgets, keyed by second then router. Ordered so
  // stale seconds can be pruned as the newest-seen second advances; probes
  // may arrive out of chronological order (interleaved backscan intervals
  // revisit earlier seconds), and any second within the retention horizon
  // keeps an exact budget.
  util::SimTime budget_newest_ = std::numeric_limits<util::SimTime>::min();
  std::map<util::SimTime, std::unordered_map<std::uint64_t, std::uint32_t>>
      icmp_budget_;

  struct Endpoint {
    net::Ipv6Address address;
    std::uint16_t port;
    bool operator==(const Endpoint&) const = default;
  };
  struct EndpointHash {
    std::size_t operator()(const Endpoint& e) const noexcept {
      return net::Ipv6AddressHash{}(e.address) ^ e.port;
    }
  };
  std::unordered_map<Endpoint, UdpService, EndpointHash> services_;
};

}  // namespace v6::netsim
