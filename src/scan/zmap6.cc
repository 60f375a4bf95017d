#include "scan/zmap6.h"

#include "util/rng.h"

namespace v6::scan {

Zmap6Scanner::Zmap6Scanner(netsim::DataPlane& plane,
                           const Zmap6Config& config)
    : plane_(&plane), config_(config) {
  if (config_.metrics != nullptr) {
    metric_probes_ =
        config_.metrics->counter("v6_scan_probes_total", "Probes emitted",
                                 {{"scanner", "zmap6"}});
    metric_hits_ = config_.metrics->counter(
        "v6_scan_responsive_total", "Probes a live target answered",
        {{"scanner", "zmap6"}});
    metric_retries_ = config_.metrics->counter(
        "v6_scan_retries_total", "Re-probes of initially silent targets",
        {{"scanner", "zmap6"}});
  }
}

std::uint32_t Zmap6Scanner::validator(
    const net::Ipv6Address& target) const noexcept {
  return static_cast<std::uint32_t>(
      util::mix64(target.hi64() ^ util::mix64(target.lo64()) ^ config_.seed));
}

bool Zmap6Scanner::fire(const net::Ipv6Address& target, util::SimTime t,
                        std::uint32_t attempt) const {
  // The attempt number rides in the sequence: each retry is a new probe.
  const std::uint32_t v = validator(target);
  switch (config_.protocol) {
    case ProbeProtocol::kIcmpv6Echo: {
      const auto ident = static_cast<std::uint16_t>(v >> 16);
      const auto seq = static_cast<std::uint16_t>(v + attempt);
      const auto result =
          plane_->echo(config_.source, target, ident, seq, t);
      return result.kind == netsim::ProbeResult::Kind::kEchoReply &&
             result.responder == target && result.sequence == seq;
    }
    case ProbeProtocol::kTcpSyn80:
    case ProbeProtocol::kTcpSyn443: {
      const std::uint16_t port =
          config_.protocol == ProbeProtocol::kTcpSyn80 ? 80 : 443;
      // Any answer — SYN-ACK or RST — proves a live host, exactly how the
      // Hitlist counts TCP responsiveness.
      const auto outcome =
          plane_->tcp_syn(config_.source, target, port, v + attempt, t);
      return outcome != netsim::DataPlane::SynOutcome::kTimeout;
    }
  }
  return false;
}

bool Zmap6Scanner::probe(const net::Ipv6Address& target, util::SimTime t) {
  ++sent_;
  metric_probes_.inc();
  return fire(target, t, 0);
}

std::vector<EchoRecord> Zmap6Scanner::scan(
    std::span<const net::Ipv6Address> targets, util::SimTime t0) {
  std::vector<EchoRecord> records(targets.size());
  const std::uint64_t rate = config_.probe_rate ? config_.probe_rate : 1;
  // Round `attempt` probes records[at(j)] for j in [0, n), the j-th at
  // global probe index `sent + j` (which sets its send time). Shards tally
  // hits locally; the totals are folded once per round.
  std::uint64_t sent = 0, hits = 0;
  const auto round = [&](std::size_t n, std::uint32_t attempt,
                         const auto& at) {
    const unsigned shards =
        util::shard_count(config_.pool, n, kMinProbesPerShard);
    std::vector<std::uint64_t> shard_hits(shards, 0);
    const auto run = [&](unsigned shard, std::size_t begin, std::size_t end) {
      std::uint64_t local = 0;
      for (std::size_t j = begin; j < end; ++j) {
        EchoRecord& rec = records[at(j)];
        const util::SimTime t =
            t0 + static_cast<util::SimTime>((sent + j) / rate);
        rec.responded = fire(rec.target, t, attempt);
        local += rec.responded;
      }
      shard_hits[shard] = local;
    };
    util::run_sharded(config_.pool, n, shards, run);
    sent += n;
    for (const std::uint64_t h : shard_hits) hits += h;
  };

  for (std::size_t i = 0; i < targets.size(); ++i) {
    records[i].target = targets[i];
  }
  round(targets.size(), 0, [](std::size_t j) { return j; });
  std::vector<std::size_t> silent;
  for (std::uint32_t r = 1; r <= config_.retries; ++r) {
    silent.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!records[i].responded) silent.push_back(i);
    }
    if (silent.empty()) break;
    metric_retries_.inc(silent.size());
    round(silent.size(), r, [&silent](std::size_t j) { return silent[j]; });
  }
  sent_ += sent;
  metric_probes_.inc(sent);
  metric_hits_.inc(hits);
  return records;
}

}  // namespace v6::scan
