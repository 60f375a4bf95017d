#include "netsim/data_plane.h"

#include "proto/udp.h"

namespace v6::netsim {

DataPlane::DataPlane(const sim::World& world, const DataPlaneConfig& config)
    : world_(&world),
      config_(config),
      topology_(world),
      rng_(util::mix64(config.seed ^ 0xda7a)) {
  if (config_.metrics != nullptr) {
    metric_drops_ = config_.metrics->counter(
        "v6_plane_drops_total", "Datagrams lost in transit (both directions)");
    metric_rate_limited_ = config_.metrics->counter(
        "v6_plane_rate_limited_total",
        "Time Exceeded messages suppressed by router ICMP budgets");
    metric_fault_drops_ = config_.metrics->counter(
        "v6_plane_fault_drops_total",
        "Datagrams swallowed by injected vantage faults");
  }
}

bool DataPlane::lost() {
  if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
    ++drops_;
    metric_drops_.inc();
    return true;
  }
  return false;
}

namespace {

// How far back per-second ICMP budgets are retained. Probe schedules that
// jump backwards (interleaved backscan intervals) still see exact budgets
// within the horizon; only seconds more than an hour older than the newest
// second ever observed are forgotten, keeping memory bounded.
constexpr util::SimDuration kIcmpBudgetHorizon = util::kHour;

}  // namespace

bool DataPlane::icmp_error_allowed(const net::Ipv6Address& router,
                                   util::SimTime t) {
  if (config_.router_icmp_rate_limit == 0) return true;
  if (t > budget_newest_) {
    budget_newest_ = t;
    // Prune only on forward progress: a backward-moving t must never wipe
    // budgets it already charged (the old clear-on-change reset let a
    // revisited second start from a fresh budget).
    icmp_budget_.erase(icmp_budget_.begin(),
                       icmp_budget_.lower_bound(t - kIcmpBudgetHorizon));
  }
  auto& used =
      icmp_budget_[t][router.hi64() ^ util::mix64(router.lo64())];
  if (used >= config_.router_icmp_rate_limit) {
    ++rate_limited_;
    metric_rate_limited_.inc();
    return false;
  }
  ++used;
  return true;
}

ProbeResult DataPlane::echo(const net::Ipv6Address& src,
                            const net::Ipv6Address& dst,
                            std::uint16_t identifier, std::uint16_t sequence,
                            util::SimTime t) {
  return hop_limited_echo(src, dst, 255, identifier, sequence, t);
}

ProbeResult DataPlane::hop_limited_echo(const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst,
                                        std::uint8_t hop_limit,
                                        std::uint16_t /*identifier*/,
                                        std::uint16_t sequence,
                                        util::SimTime t) {
  ProbeResult result;
  if (lost()) return result;  // the request

  // Walk the forwarding path; a hop-limit expiry elicits Time Exceeded.
  // A limit past the longest possible path can never expire.
  if (hop_limit <= Topology::kMaxHops) {
    if (const auto hop = topology_.hop(src, dst, t, hop_limit - 1u)) {
      if (!hop->responds || !icmp_error_allowed(hop->address, t) ||
          lost()) {
        return result;
      }
      result.kind = ProbeResult::Kind::kTimeExceeded;
      result.responder = hop->address;
      return result;
    }
  }

  // Delivered: the destination answers unless filtered or absent.
  const auto res = world_->resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  const bool answers =
      (res.kind == Kind::kDevice && !res.firewalled && !res.icmp_silent) ||
      res.kind == Kind::kRouter || res.kind == Kind::kAlias;
  if (!answers || lost()) return result;  // or the reply is lost
  result.kind = ProbeResult::Kind::kEchoReply;
  result.responder = dst;
  result.sequence = sequence;
  return result;
}

DataPlane::SynOutcome DataPlane::tcp_syn(const net::Ipv6Address& /*src*/,
                                         const net::Ipv6Address& dst,
                                         std::uint16_t dst_port,
                                         std::uint32_t /*sequence*/,
                                         util::SimTime t) {
  if (lost()) return SynOutcome::kTimeout;  // the SYN

  const auto res = world_->resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  bool listening = false, reachable = false;
  switch (res.kind) {
    case Kind::kDevice:
      reachable = !res.firewalled;
      listening = reachable && world_->serves_tcp(res.device, dst_port);
      break;
    case Kind::kRouter:
      // Routers drop unsolicited TCP to their interfaces (control-plane
      // protection), but the interface is alive: answer RST.
      reachable = true;
      break;
    case Kind::kAlias:
      reachable = listening = true;  // the alias box fronts everything
      break;
    case Kind::kNone:
      break;
  }
  if (!reachable || lost()) return SynOutcome::kTimeout;  // or the answer
  return listening ? SynOutcome::kSynAck : SynOutcome::kRst;
}

void DataPlane::bind_udp(const net::Ipv6Address& address, std::uint16_t port,
                         UdpService service) {
  services_[{address, port}] = std::move(service);
}

std::optional<std::vector<std::uint8_t>> DataPlane::send_udp(
    const net::Ipv6Address& src, std::uint16_t src_port,
    const net::Ipv6Address& dst, std::uint16_t dst_port,
    const std::vector<std::uint8_t>& payload, util::SimTime t) {
  // Outbound: wire-encode, lose, deliver, decode (checksum verified).
  const proto::UdpDatagram datagram{src_port, dst_port, payload};
  const auto wire = proto::encode_udp(datagram, src, dst);
  if (lost()) return std::nullopt;
  const auto delivered = proto::decode_udp(wire, src, dst);
  if (!delivered) return std::nullopt;

  // Injected vantage faults swallow the datagram before the service sees
  // it. Checked after lost() so the loss RNG stream is untouched by the
  // (pure-function) fault plan.
  if (faults_ != nullptr && !faults_->delivers_to(dst, src, t)) {
    ++fault_drops_;
    metric_fault_drops_.inc();
    return std::nullopt;
  }

  const auto it = services_.find({dst, dst_port});
  if (it == services_.end()) return std::nullopt;
  auto response =
      it->second(src, delivered->src_port, delivered->payload, t);
  if (!response) return std::nullopt;

  // Return path.
  const proto::UdpDatagram back{dst_port, delivered->src_port, *response};
  const auto back_wire = proto::encode_udp(back, dst, src);
  if (lost()) return std::nullopt;
  const auto back_delivered = proto::decode_udp(back_wire, dst, src);
  if (!back_delivered) return std::nullopt;
  return back_delivered->payload;
}

}  // namespace v6::netsim
