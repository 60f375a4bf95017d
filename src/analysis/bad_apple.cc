#include "analysis/bad_apple.h"

#include <unordered_map>
#include <unordered_set>

#include "net/entropy.h"
#include "net/eui64.h"

namespace v6::analysis {

BadAppleReport bad_apple_linkage(const ScanSource& corpus,
                                 const Eui64Tracker& tracker) {
  BadAppleReport report;

  // Index: /64 network half -> indices of the apples seen there.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_slash64;
  const auto tracks = tracker.tracks();
  for (std::uint32_t i = 0; i < tracks.size(); ++i) {
    for (const auto& point : tracker.sightings(i)) {
      auto& apples = by_slash64[point.slash64_hi];
      if (apples.empty() || apples.back() != i) apples.push_back(i);
    }
  }

  // Join every corpus address against the tag index.
  std::vector<std::uint64_t> cotenant_addrs(tracks.size(), 0);
  std::vector<std::unordered_set<std::uint64_t>> cotenant_prefixes(
      tracks.size());
  corpus.visit_blocks(
      0, corpus.span, [&](std::span<const hitlist::AddressRecord> block) {
        for (const auto& rec : block) {
          const auto it = by_slash64.find(rec.address.hi64());
          if (it == by_slash64.end()) continue;
          if (net::looks_like_eui64(rec.address)) continue;  // the apple
          ++report.linked_addresses;
          if (net::entropy_band(net::iid_entropy(rec.address)) ==
              net::EntropyBand::kHigh) {
            ++report.linked_privacy_addresses;
          }
          for (const auto apple : it->second) {
            ++cotenant_addrs[apple];
            cotenant_prefixes[apple].insert(rec.address.hi64());
          }
        }
      });

  for (std::uint32_t i = 0; i < tracks.size(); ++i) {
    if (cotenant_addrs[i] > 0) ++report.apples_with_cotenants;
    if (cotenant_prefixes[i].size() >= 2) {
      ++report.households_stitched_across_prefixes;
    }
  }
  return report;
}

}  // namespace v6::analysis
