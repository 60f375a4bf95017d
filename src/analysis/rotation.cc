#include "analysis/rotation.h"

#include <algorithm>
#include <unordered_map>

namespace v6::analysis {

std::vector<RotationEstimate> infer_rotation_periods(
    const Eui64Tracker& tracker, const sim::World& world,
    const RotationConfig& config) {
  // Gather /64-transition gaps per AS from every trackable MAC's timeline.
  std::unordered_map<std::uint32_t, std::vector<util::SimDuration>> gaps;
  std::unordered_map<sim::Asn, std::uint32_t> as_by_asn;
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    as_by_asn[world.ases()[ai].asn] = ai;
  }

  const auto tracks = tracker.tracks();
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    if (tracks[t].slash64s < 2) continue;
    const auto timeline = tracker.sightings(t);
    for (std::size_t i = 1; i < timeline.size(); ++i) {
      const auto& prev = timeline[i - 1];
      const auto& curr = timeline[i];
      // Only renumbering *within* one AS estimates that AS's policy; a
      // device switching providers or roaming is a different phenomenon.
      if (curr.asn != prev.asn || curr.slash64_hi == prev.slash64_hi) {
        continue;
      }
      const auto gap = static_cast<util::SimDuration>(curr.first_seen) -
                       static_cast<util::SimDuration>(prev.first_seen);
      if (gap <= 0) continue;
      const auto it = as_by_asn.find(curr.asn);
      if (it == as_by_asn.end()) continue;
      gaps[it->second].push_back(gap);
    }
  }

  std::vector<RotationEstimate> estimates;
  for (auto& [as_index, samples] : gaps) {
    if (samples.size() < config.min_samples) continue;
    std::sort(samples.begin(), samples.end());
    RotationEstimate estimate;
    estimate.as_index = as_index;
    estimate.asn = world.ases()[as_index].asn;
    estimate.estimated_period = samples[samples.size() / 2];
    estimate.samples = samples.size();
    estimate.true_period = world.ases()[as_index].profile.rotation_period;
    estimates.push_back(estimate);
  }
  std::sort(estimates.begin(), estimates.end(),
            [](const RotationEstimate& a, const RotationEstimate& b) {
              return a.samples > b.samples;
            });
  return estimates;
}

}  // namespace v6::analysis
