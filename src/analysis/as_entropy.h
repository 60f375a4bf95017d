// Per-AS entropy profiles (Figure 4): the top-N ASes by observed address
// volume and the entropy distribution of their addresses, over an arbitrary
// observation window (whole study for Fig 4a, one day for Fig 4b).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parallel_scan.h"
#include "hitlist/corpus.h"
#include "sim/world.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace v6::analysis {

struct AsEntropyProfile {
  std::uint32_t as_index = 0;
  sim::Asn asn = 0;
  std::string name;
  std::uint64_t addresses = 0;
  util::EmpiricalDistribution entropy;
};

// Top `n` ASes by address count within [window_start, window_end).
// Ordered by descending address count, ties broken by ascending ASN, so
// the ranking (Fig 4's legend order) is stable across runs and platforms.
std::vector<AsEntropyProfile> top_as_entropy_profiles(
    const ScanSource& source, const sim::World& world, std::size_t n,
    util::SimTime window_start, util::SimTime window_end,
    const AnalysisConfig& config = {},
    std::vector<AnalysisStageStats>* stats = nullptr);

}  // namespace v6::analysis
