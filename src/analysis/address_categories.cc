#include "analysis/address_categories.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "kernels/batch.h"

namespace v6::analysis {

namespace {

bool in_window(const hitlist::AddressRecord& rec, util::SimTime start,
               util::SimTime end) {
  return static_cast<util::SimTime>(rec.first_seen) < end &&
         static_cast<util::SimTime>(rec.last_seen) >= start;
}

// Records classified per batch-kernel call.
constexpr std::size_t kChunk = 1024;

}  // namespace

CategoryBreakdown categorize_corpus(const ScanSource& source,
                                    const sim::World& world,
                                    util::SimTime window_start,
                                    util::SimTime window_end,
                                    const CategoryConfig& config,
                                    const AnalysisConfig& analysis,
                                    std::vector<AnalysisStageStats>* stats) {
  // Pass 1: per-AS totals and same-AS IPv4-embedding candidates. The map
  // merges by summing per-AS counters — commutative, shard-independent.
  struct AsStats {
    std::uint64_t addresses = 0;
    std::uint64_t ipv4_candidates = 0;
  };
  using PerAs = std::unordered_map<std::uint32_t, AsStats>;
  const PerAs per_as = scan_corpus<PerAs>(
      source, analysis, "categorize_corpus/per_as", [] { return PerAs(); },
      [&](PerAs& m, const hitlist::AddressRecord& rec) {
        if (!in_window(rec, window_start, window_end)) return;
        const auto as_index = world.as_index_of(rec.address);
        if (!as_index) return;
        AsStats& as_stats = m[*as_index];
        ++as_stats.addresses;
        for (const auto& cand : net::ipv4_candidates(rec.address.iid())) {
          const auto v4_as = world.as_index_of_ipv4(cand.address);
          if (v4_as && *v4_as == *as_index) {
            ++as_stats.ipv4_candidates;
            break;  // one acceptance per address
          }
        }
      },
      [](PerAs& into, PerAs&& from) {
        for (const auto& [as_index, as_stats] : from) {
          AsStats& dst = into[as_index];
          dst.addresses += as_stats.addresses;
          dst.ipv4_candidates += as_stats.ipv4_candidates;
        }
      },
      stats);

  // Which ASes pass the acceptance gates (per-key decision; the map's
  // iteration order is irrelevant).
  std::unordered_map<std::uint32_t, bool> as_accepts;
  as_accepts.reserve(per_as.size());
  for (const auto& [as_index, as_stats] : per_as) {
    as_accepts[as_index] =
        as_stats.ipv4_candidates >= config.min_instances_per_as &&
        static_cast<double>(as_stats.ipv4_candidates) >
            config.min_fraction_of_as *
                static_cast<double>(as_stats.addresses);
  }

  // Pass 2: final classification (reads as_accepts concurrently, but
  // read-only). Addresses outside the (simulated) BGP table are skipped,
  // as in pass 1 — AS attribution is part of the methodology. The
  // structural classification itself runs through the batch kernel a
  // chunk at a time: the AS/window gates are resolved per record first,
  // then classify_iid_batch categorizes the chunk, and only gated-in
  // records are tallied (classification is pure, so categorizing a
  // skipped record computes an unused value, never a different tally).
  return scan_corpus_blocks<CategoryBreakdown>(
      source, analysis, "categorize_corpus/classify",
      [] { return CategoryBreakdown(); },
      [&](CategoryBreakdown& b, std::span<const hitlist::AddressRecord>
                                    block) {
        std::uint64_t iids[kChunk];
        std::uint8_t accepted[kChunk];
        bool eligible[kChunk];
        net::AddressCategory categories[kChunk];
        for (std::size_t base = 0; base < block.size(); base += kChunk) {
          const std::size_t n = std::min(kChunk, block.size() - base);
          kernels::extract_iid_batch(
              reinterpret_cast<const std::uint8_t*>(block.data() + base),
              sizeof(hitlist::AddressRecord), n, iids);
          for (std::size_t i = 0; i < n; ++i) {
            const hitlist::AddressRecord& rec = block[base + i];
            accepted[i] = 0;
            eligible[i] = false;
            if (!in_window(rec, window_start, window_end)) continue;
            const auto as_index = world.as_index_of(rec.address);
            if (!as_index) continue;
            eligible[i] = true;
            if (const auto it = as_accepts.find(*as_index);
                it != as_accepts.end() && it->second) {
              for (const auto& cand : net::ipv4_candidates(iids[i])) {
                const auto v4_as = world.as_index_of_ipv4(cand.address);
                if (v4_as && *v4_as == *as_index) {
                  accepted[i] = 1;
                  break;
                }
              }
            }
          }
          kernels::classify_iid_batch(iids, accepted, n, categories);
          for (std::size_t i = 0; i < n; ++i) {
            if (!eligible[i]) continue;
            ++b.counts[static_cast<std::size_t>(categories[i])];
            ++b.total;
          }
        }
      },
      [](CategoryBreakdown& into, CategoryBreakdown&& from) {
        for (std::size_t i = 0; i < into.counts.size(); ++i) {
          into.counts[i] += from.counts[i];
        }
        into.total += from.total;
      },
      stats);
}

}  // namespace v6::analysis
