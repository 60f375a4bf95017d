// Dataset comparison (Table 1): size, overlap, AS and /48 coverage, and
// address density of a corpus, plus the AS-type mix (§4.1's "Phone
// Provider" observation) and the /48 aggregate of the ethical release
// (§6, hitlist/release.h).
//
// The Table 1 entry points scan on analysis::ParallelScan; every aggregate
// is a set size or integer count, so results are identical at any thread
// count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parallel_scan.h"
#include "hitlist/release.h"
#include "sim/world.h"

namespace v6::analysis {

struct DatasetSummary {
  std::string name;
  std::uint64_t addresses = 0;
  std::uint64_t asns = 0;
  std::uint64_t slash48s = 0;
  double addrs_per_slash48 = 0.0;
  // Intersections with the base (NTP) corpus; zero for the base itself.
  std::uint64_t common_addresses = 0;
  std::uint64_t common_asns = 0;
  std::uint64_t common_slash48s = 0;
};

// Summarizes `corpus`; when `base` is non-null, fills the intersection
// columns against it. The base may be out of core: its coverage pass
// counts common_addresses by probing `corpus`, so with a base `corpus`
// must be an in-memory source (with contains()), else this throws
// std::invalid_argument.
DatasetSummary summarize_dataset(const std::string& name,
                                 const ScanSource& corpus,
                                 const sim::World& world,
                                 const ScanSource* base = nullptr,
                                 const AnalysisConfig& config = {},
                                 std::vector<AnalysisStageStats>* stats =
                                     nullptr);

// Fraction of corpus addresses originating in ASes of each type (the ASdb
// classification proxy). Indexed by sim::AsType.
std::vector<std::pair<sim::AsType, double>> as_type_fractions(
    const ScanSource& corpus, const sim::World& world,
    const AnalysisConfig& config = {},
    std::vector<AnalysisStageStats>* stats = nullptr);

// Aggregates a corpus to sorted unique /48s with their address counts.
std::vector<hitlist::ReleaseEntry> aggregate_to_slash48(
    const ScanSource& corpus);

}  // namespace v6::analysis
