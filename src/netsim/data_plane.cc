#include "netsim/data_plane.h"

#include "proto/udp.h"
#include "util/rng.h"

namespace v6::netsim {

DataPlane::DataPlane(const sim::World& world, const DataPlaneConfig& config)
    : world_(&world),
      config_(config),
      topology_(world) {
  std::uint64_t state = util::mix64(config.seed ^ 0xda7a);
  for (auto& key : loss_keys_) key = util::splitmix64(state);
  const double scaled = config_.loss_rate * 0x1p64;
  if (scaled >= 0x1p64) {
    loss_all_ = true;
  } else if (scaled > 0.0) {
    loss_threshold_ = static_cast<std::uint64_t>(scaled);
  }
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

namespace {

// One 64x64->128-bit multiply folded to 64 bits (wyhash's "mum"). With
// keyed operands it mixes both words, at a fraction of a mix64 chain.
inline std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) noexcept {
  const auto product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

}  // namespace

std::uint64_t DataPlane::probe_identity(const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst,
                                        std::uint64_t fields,
                                        util::SimTime t) const noexcept {
  return fold_mul(src.hi64() ^ loss_keys_[0], src.lo64() ^ loss_keys_[1]) ^
         fold_mul(dst.hi64() ^ loss_keys_[2], dst.lo64() ^ loss_keys_[3]) ^
         fold_mul(fields ^ loss_keys_[4],
                  static_cast<std::uint64_t>(t) ^ loss_keys_[5]);
}

bool DataPlane::dropped(std::uint64_t identity, Leg leg) const noexcept {
  return loss_all_ || util::mix64(identity ^ leg) < loss_threshold_;
}

bool DataPlane::lost(std::uint64_t identity, Leg leg) {
  if (!dropped(identity, leg)) return false;
  count_drop();
  return true;
}

void DataPlane::count_drop() noexcept {
  drops_.value.fetch_add(1, std::memory_order_relaxed);
  metric_drops_.inc();
}

namespace {

// Protocol tags in the top byte of a probe identity's `fields` word.
constexpr std::uint64_t kIcmpTag = std::uint64_t{1} << 56;
constexpr std::uint64_t kTcpTag = std::uint64_t{2} << 56;
constexpr std::uint64_t kUdpTag = std::uint64_t{3} << 56;

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
                                        std::uint16_t identifier,
                                        std::uint16_t sequence,
                                        util::SimTime t) {
  ProbeResult result;
  const std::uint64_t id = probe_identity(
      src, dst,
      kIcmpTag | (std::uint64_t{hop_limit} << 32) |
          (std::uint64_t{identifier} << 16) | sequence,
      t);
  if (lost(id, kRequest)) return result;

  // Walk the forwarding path; a hop-limit expiry elicits Time Exceeded.
  // A limit past the longest possible path can never expire.
  if (hop_limit <= Topology::kMaxHops) {
    if (const auto hop = topology_.hop(src, dst, t, hop_limit - 1u)) {
      if (!hop->responds || !icmp_error_allowed(hop->address, t) ||
          lost(id, kAnswer)) {
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
  if (!answers || lost(id, kAnswer)) return result;
  result.kind = ProbeResult::Kind::kEchoReply;
  result.responder = dst;
  result.sequence = sequence;
  return result;
}

DataPlane::SynOutcome DataPlane::tcp_syn(const net::Ipv6Address& src,
                                         const net::Ipv6Address& dst,
                                         std::uint16_t dst_port,
                                         std::uint32_t sequence,
                                         util::SimTime t) {
  const std::uint64_t id = probe_identity(
      src, dst, kTcpTag | (std::uint64_t{dst_port} << 32) | sequence, t);
  if (lost(id, kRequest)) return SynOutcome::kTimeout;

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
  if (!reachable || lost(id, kAnswer)) return SynOutcome::kTimeout;
  return listening ? SynOutcome::kSynAck : SynOutcome::kRst;
}

DataPlane::UdpFate DataPlane::udp_fate(const net::Ipv6Address& src,
                                       std::uint16_t src_port,
                                       const net::Ipv6Address& dst,
                                       std::uint16_t dst_port,
                                       std::uint32_t nonce,
                                       util::SimTime t) const noexcept {
  if (!loss_all_ && loss_threshold_ == 0) return {};
  const std::uint64_t id = util::mix64(
      probe_identity(src, dst,
                     kUdpTag | (std::uint64_t{src_port} << 16) | dst_port, t) ^
      nonce);
  return {dropped(id, kRequest), dropped(id, kAnswer)};
}

std::optional<std::vector<std::uint8_t>> DataPlane::send_udp(
    const net::Ipv6Address& src, std::uint16_t src_port,
    const net::Ipv6Address& dst, std::uint16_t dst_port, std::uint32_t nonce,
    const std::vector<std::uint8_t>& payload, util::SimTime t,
    const UdpService& service) {
  // Outbound: lose, wire-encode, deliver, decode (checksum verified).
  const UdpFate fate = udp_fate(src, src_port, dst, dst_port, nonce, t);
  if (fate.request_lost) {
    count_drop();
    return std::nullopt;
  }
  const proto::UdpDatagram datagram{src_port, dst_port, payload};
  const auto delivered =
      proto::decode_udp(proto::encode_udp(datagram, src, dst), src, dst);
  if (!delivered) return std::nullopt;

  // Injected vantage faults swallow the datagram before the service sees
  // it. Both are pure functions of the datagram, so their order is free.
  if (faults_ != nullptr && !faults_->delivers_to(dst, src, t)) {
    fault_drops_.value.fetch_add(1, std::memory_order_relaxed);
    metric_fault_drops_.inc();
    return std::nullopt;
  }

  if (!service) return std::nullopt;
  auto response = service(src, delivered->src_port, delivered->payload, t);
  if (!response) return std::nullopt;

  // Return path.
  if (fate.answer_lost) {
    count_drop();
    return std::nullopt;
  }
  const proto::UdpDatagram back{dst_port, delivered->src_port, *response};
  const auto back_delivered =
      proto::decode_udp(proto::encode_udp(back, dst, src), dst, src);
  if (!back_delivered) return std::nullopt;
  return back_delivered->payload;
}

}  // namespace v6::netsim
