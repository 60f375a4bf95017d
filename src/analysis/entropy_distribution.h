// IID-entropy distributions over corpora (Figures 1, 3, 4).
//
// Corpus-wide variants run on analysis::ParallelScan: pass an
// AnalysisConfig with threads > 1 to shard the scan; results are
// bit-identical to the serial (threads == 1) path at any thread count.
#pragma once

#include <span>
#include <vector>

#include "analysis/parallel_scan.h"
#include "hitlist/corpus.h"
#include "net/ipv6.h"
#include "util/stats.h"

namespace v6::analysis {

// Entropy of every unique address's IID in the corpus (in-memory or
// out-of-core); results are bit-identical across backends for the same
// record set.
util::EmpiricalDistribution entropy_distribution(
    const ScanSource& source, const AnalysisConfig& config = {},
    std::vector<AnalysisStageStats>* stats = nullptr);

// Same, over an explicit address set.
util::EmpiricalDistribution entropy_distribution(
    std::span<const net::Ipv6Address> addresses);

// Entropy of addresses present in BOTH corpora (Fig 1's intersection
// curves). Iterates the smaller corpus.
util::EmpiricalDistribution intersection_entropy_distribution(
    const hitlist::Corpus& a, const hitlist::Corpus& b,
    const AnalysisConfig& config = {},
    std::vector<AnalysisStageStats>* stats = nullptr);

// Number of addresses present in both corpora.
std::uint64_t intersection_size(const hitlist::Corpus& a,
                                const hitlist::Corpus& b,
                                const AnalysisConfig& config = {},
                                std::vector<AnalysisStageStats>* stats =
                                    nullptr);

}  // namespace v6::analysis
