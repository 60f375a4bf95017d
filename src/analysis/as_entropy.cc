#include "analysis/as_entropy.h"

#include <algorithm>
#include <unordered_map>

#include "kernels/batch.h"
#include "net/entropy.h"

namespace v6::analysis {

namespace {
// Records per batch entropy call.
constexpr std::size_t kChunk = 1024;
}  // namespace

std::vector<AsEntropyProfile> top_as_entropy_profiles(
    const ScanSource& source, const sim::World& world, std::size_t n,
    util::SimTime window_start, util::SimTime window_end,
    const AnalysisConfig& config, std::vector<AnalysisStageStats>* stats) {
  using PerAsSamples = std::unordered_map<std::uint32_t, std::vector<double>>;
  // Appending shard vectors in ascending shard order keeps each AS's
  // sample sequence equal to the serial visit order, so the resulting
  // distributions are bit-identical at any thread count.
  auto samples = scan_corpus_blocks<PerAsSamples>(
      source, config, "top_as_entropy_profiles",
      [] { return PerAsSamples(); },
      [&](PerAsSamples& m, std::span<const hitlist::AddressRecord> block) {
        // Gate first (window + AS attribution), then batch the entropy
        // for the whole chunk and keep only gated-in samples; entropies
        // of skipped records are computed-but-unused, never tallied.
        std::uint64_t iids[kChunk];
        double entropies[kChunk];
        std::uint32_t as_of[kChunk];
        bool eligible[kChunk];
        for (std::size_t base = 0; base < block.size(); base += kChunk) {
          const std::size_t n = std::min(kChunk, block.size() - base);
          kernels::extract_iid_batch(
              reinterpret_cast<const std::uint8_t*>(block.data() + base),
              sizeof(hitlist::AddressRecord), n, iids);
          for (std::size_t i = 0; i < n; ++i) {
            const hitlist::AddressRecord& rec = block[base + i];
            eligible[i] = false;
            if (static_cast<util::SimTime>(rec.first_seen) >= window_end ||
                static_cast<util::SimTime>(rec.last_seen) < window_start) {
              continue;
            }
            const auto as_index = world.as_index_of(rec.address);
            if (!as_index) continue;
            eligible[i] = true;
            as_of[i] = *as_index;
          }
          kernels::iid_entropy_batch(iids, n, entropies);
          for (std::size_t i = 0; i < n; ++i) {
            if (eligible[i]) m[as_of[i]].push_back(entropies[i]);
          }
        }
      },
      [](PerAsSamples& into, PerAsSamples&& from) {
        for (auto& [as_index, entropies] : from) {
          auto& dst = into[as_index];
          dst.insert(dst.end(), entropies.begin(), entropies.end());
        }
      },
      stats);

  std::vector<AsEntropyProfile> profiles;
  profiles.reserve(samples.size());
  for (auto& [as_index, entropies] : samples) {
    AsEntropyProfile p;
    p.as_index = as_index;
    p.asn = world.ases()[as_index].asn;
    p.name = world.ases()[as_index].name;
    p.addresses = entropies.size();
    p.entropy = util::EmpiricalDistribution(std::move(entropies));
    profiles.push_back(std::move(p));
  }
  // Descending by address count, ties broken by ascending ASN (and
  // as_index as a final guard): sorting by count alone left equal-sized
  // ASes in unordered_map iteration order — nondeterministic across
  // runs/platforms, which made Fig 4 output unstable.
  std::sort(profiles.begin(), profiles.end(),
            [](const AsEntropyProfile& a, const AsEntropyProfile& b) {
              if (a.addresses != b.addresses) return a.addresses > b.addresses;
              if (a.asn != b.asn) return a.asn < b.asn;
              return a.as_index < b.as_index;
            });
  if (profiles.size() > n) profiles.resize(n);
  return profiles;
}

}  // namespace v6::analysis
