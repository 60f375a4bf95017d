// The seven-way address-category breakdown of Figure 5.
//
// Structural categories (zeroes / low-byte / low-2-bytes) come straight
// from the IID; IPv4-mapped needs the paper's AS-contextual acceptance
// gates (enough instances in the AS, a meaningful share of the AS's
// addresses, and the embedded IPv4 belonging to the same AS); the rest
// fall into entropy bands.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/parallel_scan.h"
#include "hitlist/corpus.h"
#include "net/classify.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::analysis {

struct CategoryConfig {
  // Paper thresholds are >=100 instances and >10% of the AS's addresses;
  // the instance floor scales with corpus size (ours default to a value
  // appropriate for worlds ~1/1000 the Internet's size).
  std::uint64_t min_instances_per_as = 20;
  double min_fraction_of_as = 0.10;
};

struct CategoryBreakdown {
  // Indexed by net::AddressCategory.
  std::array<std::uint64_t, 7> counts{};
  std::uint64_t total = 0;

  double fraction(net::AddressCategory c) const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(
                            counts[static_cast<std::size_t>(c)]) /
                            static_cast<double>(total);
  }
};

// Classifies every corpus address whose observation interval intersects
// [window_start, window_end); pass the full study window for Fig-1-style
// totals or one day for the Fig 5 comparison.
CategoryBreakdown categorize_corpus(const ScanSource& source,
                                    const sim::World& world,
                                    util::SimTime window_start,
                                    util::SimTime window_end,
                                    const CategoryConfig& config = {},
                                    const AnalysisConfig& analysis = {},
                                    std::vector<AnalysisStageStats>* stats =
                                        nullptr);

}  // namespace v6::analysis
