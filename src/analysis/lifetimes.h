// Address and IID lifetime analysis (Figure 2).
//
// "Lifetime" is last_seen - first_seen: 0 for addresses observed once. The
// paper's headline numbers: >60% of addresses observed once; 1.2% live a
// week or longer, 0.4% a month, 0.03% six months — and low-entropy IIDs
// persist far longer than high-entropy ones.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/parallel_scan.h"
#include "hitlist/corpus.h"
#include "net/entropy.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace v6::analysis {

struct AddressLifetimeReport {
  std::uint64_t total = 0;
  double fraction_once = 0.0;       // lifetime == 0
  double fraction_week = 0.0;       // >= 1 week
  double fraction_month = 0.0;      // >= 30 days
  double fraction_six_months = 0.0; // >= 180 days
  // CCDF samples: (duration, fraction of addresses with lifetime >= d).
  std::vector<std::pair<util::SimDuration, double>> ccdf;
};

AddressLifetimeReport address_lifetimes(
    const ScanSource& source, std::span<const util::SimDuration> ccdf_points,
    const AnalysisConfig& config = {},
    std::vector<AnalysisStageStats>* stats = nullptr);

// IID lifetimes bucketed by entropy band (Fig 2b): an IID's lifetime spans
// every address it appeared in.
struct IidLifetimeReport {
  struct Band {
    std::uint64_t total = 0;
    double fraction_once = 0.0;
    double fraction_week = 0.0;
    // CDF samples: (duration, fraction with lifetime <= d).
    std::vector<std::pair<util::SimDuration, double>> cdf;
  };
  std::array<Band, 3> bands;  // indexed by net::EntropyBand
  std::uint64_t unique_iids = 0;
};

IidLifetimeReport iid_lifetimes(const ScanSource& source,
                                std::span<const util::SimDuration> cdf_points,
                                const AnalysisConfig& config = {},
                                std::vector<AnalysisStageStats>* stats =
                                    nullptr);

}  // namespace v6::analysis
