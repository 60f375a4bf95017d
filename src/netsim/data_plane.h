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
// both ends, and handed to the service the sender passes in.
//
// A configurable loss rate models the real Internet's flakiness; scanners
// must tolerate it. Loss is a counter-based verdict, not a sequential RNG:
// each leg's fate is a hash of the plane key (from config.seed) and the
// probe's identity: src, dst, protocol and port, hop limit, ident/seq
// (TCP: sequence; UDP: both ports and the sender's nonce, never the
// payload), t, and the leg (request or answer). A probe's fate therefore
// does not depend on what else was sent, or in which order, and probes
// may be issued from many threads at once. Two identical probes (same
// identity, same second) share one fate; a scanner that retries must
// change the probe (ZMap6 puts the attempt number in the sequence). A probe is judged once for
// its request and, only if something answers, once for the answer.
//
// The one order-dependent piece is router ICMP rate limiting: a Time
// Exceeded answer is charged against the router's per-second budget
// before its answer leg is judged, and which probe finds the budget spent
// depends on send order. With router_icmp_rate_limit > 0, hop-limited
// probes must be issued from one thread in a fixed order
// (order_independent() says whether that applies).
#pragma once

#include <array>
#include <atomic>
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

// The service a UDP datagram is delivered to (e.g. a vantage NTP server).
// Returns the response payload, if any; an empty service never answers.
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

  // The loss verdict of one UDP exchange, keyed on its identity (both
  // addresses and ports, t, the sender's `nonce`), never the payload.
  // Asking it encodes and counts nothing; send_udp() acts on exactly it.
  struct UdpFate {
    bool request_lost = false;
    bool answer_lost = false;
  };
  UdpFate udp_fate(const net::Ipv6Address& src, std::uint16_t src_port,
                   const net::Ipv6Address& dst, std::uint16_t dst_port,
                   std::uint32_t nonce, util::SimTime t) const noexcept;

  // Sends a UDP payload to `service` at (dst, dst_port); returns the
  // response payload when the service answers and nothing was lost.
  std::optional<std::vector<std::uint8_t>> send_udp(
      const net::Ipv6Address& src, std::uint16_t src_port,
      const net::Ipv6Address& dst, std::uint16_t dst_port,
      std::uint32_t nonce, const std::vector<std::uint8_t>& payload,
      util::SimTime t, const UdpService& service);

  const Topology& topology() const noexcept { return topology_; }

  // Attaches a vantage fault schedule: UDP datagrams to a vantage that is
  // in outage (or unlucky during slow start) vanish before reaching the
  // bound service. The schedule is consulted, never mutated, so one plan
  // can be shared across planes and with PoolDns. Pass nullptr to detach.
  void set_faults(const FaultSchedule* faults) noexcept { faults_ = faults; }
  const FaultSchedule* faults() const noexcept { return faults_; }

  // True unless router ICMP budgets are on: then hop-limited probes
  // (the only ones that can be charged) depend on send order.
  bool order_independent() const noexcept {
    return config_.router_icmp_rate_limit == 0;
  }

  // Number of datagrams dropped so far (both directions).
  std::uint64_t drops() const noexcept {
    return drops_.value.load(std::memory_order_relaxed);
  }
  // Time Exceeded messages suppressed by router rate limiting.
  std::uint64_t rate_limited() const noexcept { return rate_limited_; }
  // Datagrams swallowed by injected vantage faults.
  std::uint64_t fault_drops() const noexcept {
    return fault_drops_.value.load(std::memory_order_relaxed);
  }

 private:
  // Keyed hash of everything that identifies one probe: both addresses,
  // the protocol fields packed in `fields`, and the send second.
  std::uint64_t probe_identity(const net::Ipv6Address& src,
                               const net::Ipv6Address& dst,
                               std::uint64_t fields,
                               util::SimTime t) const noexcept;
  // The loss verdict for one leg of probe `identity`; lost() also counts
  // the drop.
  enum Leg : std::uint64_t {
    kRequest = 0,
    kAnswer = std::uint64_t{1} << 63,
  };
  bool dropped(std::uint64_t identity, Leg leg) const noexcept;
  bool lost(std::uint64_t identity, Leg leg);
  void count_drop() noexcept;
  // Charges one ICMP error against `router`'s budget for second `t`.
  bool icmp_error_allowed(const net::Ipv6Address& router, util::SimTime t);

  const sim::World* world_;
  DataPlaneConfig config_;
  Topology topology_;
  // The plane key: six words derived from config.seed.
  std::array<std::uint64_t, 6> loss_keys_{};
  // mix64 draws below this are lost; loss_all_ covers loss_rate >= 1.
  std::uint64_t loss_threshold_ = 0;
  bool loss_all_ = false;
  const FaultSchedule* faults_ = nullptr;
  // Probes and wire polls run on many threads, so the drop tallies are
  // relaxed atomics; the wrapper keeps the plane movable.
  struct DropCount {
    std::atomic<std::uint64_t> value{0};
    DropCount() = default;
    DropCount(DropCount&& other) noexcept
        : value(other.value.load(std::memory_order_relaxed)) {}
  };
  DropCount drops_;
  std::uint64_t rate_limited_ = 0;
  DropCount fault_drops_;
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
};

}  // namespace v6::netsim
