#include "scan/backscanner.h"

#include <algorithm>

namespace v6::scan {

Backscanner::Backscanner(netsim::DataPlane& plane,
                         const BackscanConfig& config)
    : plane_(&plane), config_(config), rng_(util::mix64(config.seed ^ 0xbac)) {
  if (config_.metrics != nullptr) {
    obs::Registry& reg = *config_.metrics;
    metric_clients_probed_ = reg.counter(
        "v6_backscan_clients_probed_total",
        "Observed clients probed at their interval boundary");
    metric_clients_responded_ = reg.counter(
        "v6_backscan_clients_responded_total",
        "Probed clients that answered (echo or trace)");
    metric_random_probed_ = reg.counter(
        "v6_backscan_random_probed_total",
        "Random same-/64 addresses probed for alias discovery");
    metric_alias_verdicts_ = reg.counter(
        "v6_backscan_alias_verdicts_total",
        "Random-IID probes that answered, marking the /64 aliased");
    metric_traces_ = reg.counter("v6_backscan_traces_total",
                                 "Sampled Yarrp traces back to clients");
  }
}

void Backscanner::observe(const ntp::Observation& obs,
                          const net::Ipv6Address& vantage_source) {
  const auto interval = static_cast<std::uint64_t>(
      obs.time / std::max<util::SimDuration>(config_.interval, 1));
  // "No IP probed more than once during a 10 minute interval."
  const std::uint64_t key =
      util::mix64(interval ^ util::mix64(obs.client.hi64()) ^
                  util::mix64(obs.client.lo64() + 0x9e37));
  if (!probed_keys_.insert(key).second) return;

  const util::SimTime probe_time = static_cast<util::SimTime>(interval + 1) *
                                   config_.interval;
  // A per-client deterministic RNG keeps the probe sequence independent of
  // observation arrival order.
  util::Rng probe_rng(key);

  // Loss-tolerant probing: scan() re-probes silent targets
  // config_.retries extra times, exactly as the real ZMap6 invocation
  // would.
  Zmap6Config zmap_config;
  zmap_config.source = vantage_source;
  zmap_config.probe_rate = 100000;
  zmap_config.retries = config_.retries;
  zmap_config.seed = probe_rng.next();
  zmap_config.metrics = config_.metrics;
  Zmap6Scanner zmap(*plane_, zmap_config);

  BackscanOutcome outcome;
  outcome.client = obs.client;
  outcome.vantage = obs.vantage;
  outcome.client_responded =
      zmap.scan(std::span(&obs.client, 1), probe_time)[0].responded;
  ++report_.clients_probed;
  metric_clients_probed_.inc();
  if (outcome.client_responded) ++report_.clients_responded;

  // One random address in the client's /64.
  std::uint64_t iid = probe_rng.next();
  if (iid == obs.client.lo64()) iid ^= 1;
  outcome.random_target = net::Ipv6Address::from_u64(obs.client.hi64(), iid);
  outcome.random_responded =
      zmap.scan(std::span(&outcome.random_target, 1), probe_time)[0]
          .responded;
  ++report_.random_probed;
  metric_random_probed_.inc();
  if (outcome.random_responded) {
    responsive_random_.insert(outcome.random_target);
    aliased_.insert(net::slash64_of(outcome.random_target));
    metric_alias_verdicts_.inc();
  }

  // A sampled Yarrp trace back to the client.
  if (probe_rng.chance(config_.trace_fraction)) {
    YarrpConfig yarrp_config;
    yarrp_config.source = vantage_source;
    yarrp_config.max_hops = config_.yarrp_max_hops;
    yarrp_config.probe_rate = 50000;
    yarrp_config.seed = probe_rng.next();
    yarrp_config.metrics = config_.metrics;
    YarrpTracer yarrp(*plane_, yarrp_config);
    metric_traces_.inc();
    const net::Ipv6Address targets[] = {obs.client};
    const auto traces = yarrp.trace(targets, probe_time);
    report_.probes_sent += yarrp.probes_sent();
    for (const auto& addr : YarrpTracer::discovered(traces)) {
      trace_found_.insert(addr);
    }
    if (!outcome.client_responded && traces[0].destination_reached) {
      outcome.client_responded = true;
      ++report_.clients_responded;
    }
  }
  report_.probes_sent += zmap.probes_sent();
  if (outcome.client_responded) metric_clients_responded_.inc();
  report_.outcomes.push_back(outcome);
}

BackscanReport Backscanner::finish() {
  report_.aliased_slash64s.assign(aliased_.begin(), aliased_.end());
  std::sort(report_.aliased_slash64s.begin(), report_.aliased_slash64s.end());
  report_.responsive_random_addresses = responsive_random_.size();
  report_.trace_discovered.assign(trace_found_.begin(), trace_found_.end());
  std::sort(report_.trace_discovered.begin(), report_.trace_discovered.end());

  BackscanReport out = std::move(report_);
  report_ = {};
  probed_keys_.clear();
  aliased_.clear();
  responsive_random_.clear();
  trace_found_.clear();
  return out;
}

}  // namespace v6::scan
