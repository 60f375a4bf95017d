#include "netsim/pool_dns.h"

#include <cmath>
#include <limits>

#include "geo/location.h"

namespace v6::netsim {

PoolDns::PoolDns(const sim::World& world, double global_fraction,
                 double vantage_share)
    : world_(&world),
      global_fraction_(global_fraction),
      skip_scale_(std::numeric_limits<double>::infinity()) {
  for (const auto& v : world.vantages()) {
    by_country_[v.country].push_back(&v);
    all_.push_back(&v);
  }
  if (!all_.empty() && vantage_share > 0.0) {
    skip_scale_ =
        vantage_share >= 1.0 ? 0.0 : 1.0 / std::log1p(-vantage_share);
  }
  // Materialize the steering table for every country the registry knows:
  // resolve() runs concurrently from collection shards, so lookups after
  // construction must never write.
  for (const auto& [code, list] : by_country_) steer_cache_[code] = list;
  for (const auto& info : geo::all_countries()) {
    auto& entry = steer_cache_[info.code];
    if (const auto it = by_country_.find(info.code);
        it != by_country_.end()) {
      entry = it->second;
      continue;
    }
    // No vantage in-country: steer to the geographically nearest vantage
    // country (what the pool's coarse geolocation effectively does).
    double best = std::numeric_limits<double>::max();
    const std::vector<const sim::VantagePoint*>* best_list = &all_;
    for (const auto& [code, list] : by_country_) {
      const geo::CountryInfo* vantage_info = geo::find_country(code);
      if (vantage_info == nullptr) continue;
      const double d = geo::distance_km(
          {info.latitude, info.longitude},
          {vantage_info->latitude, vantage_info->longitude});
      if (d < best) {
        best = d;
        best_list = &list;
      }
    }
    entry = *best_list;
  }
}

void PoolDns::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    metric_resolutions_ = obs::Counter();
    metric_steer_flips_ = obs::Counter();
    return;
  }
  metric_resolutions_ = registry->counter(
      "v6_pool_resolutions_total",
      "Pool DNS queries answered with one of the study's vantages");
  metric_steer_flips_ = registry->counter(
      "v6_pool_steer_flips_total",
      "Resolutions where health monitoring removed a steering candidate");
}

std::uint64_t PoolDns::next_capture(std::uint64_t key,
                                    std::uint64_t from) const noexcept {
  if (skip_scale_ > 0.0) return kNoCapture;
  if (skip_scale_ == 0.0) return from;
  const double u = static_cast<double>(
                       util::mix64(key + from * 0x9e3779b97f4a7c15ULL) >> 11) *
                   0x1.0p-53;
  // Uncaptured queries before the next capture: ⌊ln(1−u) / ln(1−share)⌋.
  const double skip = std::floor(std::log1p(-u) * skip_scale_);
  return skip < 0x1.0p62 ? from + static_cast<std::uint64_t>(skip)
                         : kNoCapture;
}

const std::vector<const sim::VantagePoint*>& PoolDns::candidates(
    geo::CountryCode country) const {
  if (const auto it = steer_cache_.find(country); it != steer_cache_.end()) {
    return it->second;
  }
  // Country unknown to the registry (the cache holds every registered
  // one): fall back to the whole pool.
  return all_;
}

const sim::VantagePoint* PoolDns::resolve(const net::Ipv6Address& client,
                                          util::Rng& rng, util::SimTime t,
                                          bool* steered_away) const {
  if (steered_away != nullptr) *steered_away = false;
  if (all_.empty()) return nullptr;
  if (global_fraction_ > 0.0 && rng.chance(global_fraction_)) {
    return pick(all_, rng, t, steered_away);
  }
  const auto country = world_->geodb().lookup(client);
  const auto& list = country ? candidates(*country) : all_;
  if (list.empty()) return pick(all_, rng, t, steered_away);
  return pick(list, rng, t, steered_away);
}

const sim::VantagePoint* PoolDns::pick(
    const std::vector<const sim::VantagePoint*>& list, util::Rng& rng,
    util::SimTime t, bool* steered_away) const {
  metric_resolutions_.inc();
  if (health_ != nullptr) {
    // Common case first: nothing in this list is down, so no filtering
    // (and no allocation) — the pick is bit-identical to the health-free
    // path, which keeps zero-fault plans indistinguishable from no plan.
    bool any_down = false;
    for (const auto* v : list) {
      if (health_->marked_down(v->id, t, monitoring_delay_)) {
        any_down = true;
        break;
      }
    }
    if (any_down) {
      if (steered_away != nullptr) *steered_away = true;
      metric_steer_flips_.inc();
      std::vector<const sim::VantagePoint*> healthy;
      healthy.reserve(list.size());
      for (const auto* v : list) {
        if (!health_->marked_down(v->id, t, monitoring_delay_)) {
          healthy.push_back(v);
        }
      }
      if (!healthy.empty()) return healthy[rng.bounded(healthy.size())];
      // Whole candidate list is down: the pool widens the answer to any
      // healthy server worldwide.
      for (const auto* v : all_) {
        if (!health_->marked_down(v->id, t, monitoring_delay_)) {
          healthy.push_back(v);
        }
      }
      if (!healthy.empty()) return healthy[rng.bounded(healthy.size())];
      // Every vantage is marked down; answer from the unfiltered list
      // rather than returning nothing.
    }
  }
  return list[rng.bounded(list.size())];
}

}  // namespace v6::netsim
