#include "analysis/dataset_compare.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace v6::analysis {

namespace {

// Per-shard coverage states for summarize_dataset's two scans. Sets merge
// by union and the counter by sum — commutative aggregates, so the
// summary is independent of sharding.
struct CoverageState {
  std::unordered_set<std::uint32_t> asns;
  std::unordered_set<std::uint64_t> s48s;
  std::unordered_set<std::uint32_t> common_asns;
  std::unordered_set<std::uint64_t> common_s48s;
};

struct BaseState {
  std::unordered_set<std::uint32_t> asns;
  std::unordered_set<std::uint64_t> s48s;
  std::uint64_t common_addresses = 0;
};

template <typename T>
void union_into(std::unordered_set<T>& into, std::unordered_set<T>&& from) {
  into.insert(from.begin(), from.end());
}

}  // namespace

DatasetSummary summarize_dataset(const std::string& name,
                                 const ScanSource& corpus,
                                 const sim::World& world,
                                 const ScanSource* base,
                                 const AnalysisConfig& config,
                                 std::vector<AnalysisStageStats>* stats) {
  DatasetSummary summary;
  summary.name = name;
  summary.addresses = corpus.records;

  // Base-dataset coverage for the "common" columns (its own scan; the
  // main scan below reads the result concurrently, but read-only). The
  // base may be out of core and far larger than `corpus`, so its pass
  // counts the common addresses by probing `corpus`, never the base.
  BaseState base_cov;
  if (base != nullptr) {
    if (corpus.contains == nullptr) {
      throw std::invalid_argument(
          "summarize_dataset: a dataset compared against a base needs "
          "membership probes");
    }
    base_cov = scan_corpus_blocks<BaseState>(
        *base, config, "summarize_dataset/base", [] { return BaseState(); },
        [&](BaseState& s, std::span<const hitlist::AddressRecord> block) {
          for (const auto& rec : block) {
            if (const auto as_index = world.as_index_of(rec.address)) {
              s.asns.insert(*as_index);
            }
            s.s48s.insert(rec.address.hi64() >> 16);
            if (corpus.contains(rec.address)) ++s.common_addresses;
          }
        },
        [](BaseState& into, BaseState&& from) {
          union_into(into.asns, std::move(from.asns));
          union_into(into.s48s, std::move(from.s48s));
          into.common_addresses += from.common_addresses;
        },
        stats);
  }

  // Set inserts and AS lookups have no batch kernel; the block form still
  // drops the per-record type-erased callback to one call per block.
  const auto cov = scan_corpus_blocks<CoverageState>(
      corpus, config, "summarize_dataset", [] { return CoverageState(); },
      [&](CoverageState& s, std::span<const hitlist::AddressRecord> block) {
        for (const auto& rec : block) {
          const std::uint64_t s48 = rec.address.hi64() >> 16;
          s.s48s.insert(s48);
          if (const auto as_index = world.as_index_of(rec.address)) {
            s.asns.insert(*as_index);
            if (base != nullptr && base_cov.asns.contains(*as_index)) {
              s.common_asns.insert(*as_index);
            }
          }
          if (base != nullptr && base_cov.s48s.contains(s48)) {
            s.common_s48s.insert(s48);
          }
        }
      },
      [](CoverageState& into, CoverageState&& from) {
        union_into(into.asns, std::move(from.asns));
        union_into(into.s48s, std::move(from.s48s));
        union_into(into.common_asns, std::move(from.common_asns));
        union_into(into.common_s48s, std::move(from.common_s48s));
      },
      stats);

  summary.asns = cov.asns.size();
  summary.slash48s = cov.s48s.size();
  summary.common_addresses = base_cov.common_addresses;
  summary.common_asns = cov.common_asns.size();
  summary.common_slash48s = cov.common_s48s.size();
  summary.addrs_per_slash48 =
      summary.slash48s == 0
          ? 0.0
          : static_cast<double>(summary.addresses) /
                static_cast<double>(summary.slash48s);
  return summary;
}

std::vector<std::pair<sim::AsType, double>> as_type_fractions(
    const ScanSource& corpus, const sim::World& world,
    const AnalysisConfig& config, std::vector<AnalysisStageStats>* stats) {
  struct TypeCounts {
    std::array<std::uint64_t, 5> counts{};
    std::uint64_t total = 0;
  };
  const auto tc = scan_corpus<TypeCounts>(
      corpus, config, "as_type_fractions", [] { return TypeCounts(); },
      [&world](TypeCounts& s, const hitlist::AddressRecord& rec) {
        const auto as_index = world.as_index_of(rec.address);
        if (!as_index) return;
        ++s.counts[static_cast<std::size_t>(world.ases()[*as_index].type)];
        ++s.total;
      },
      [](TypeCounts& into, TypeCounts&& from) {
        for (std::size_t i = 0; i < into.counts.size(); ++i) {
          into.counts[i] += from.counts[i];
        }
        into.total += from.total;
      },
      stats);
  std::vector<std::pair<sim::AsType, double>> out;
  for (std::size_t i = 0; i < tc.counts.size(); ++i) {
    out.emplace_back(static_cast<sim::AsType>(i),
                     tc.total == 0 ? 0.0
                                   : static_cast<double>(tc.counts[i]) /
                                         static_cast<double>(tc.total));
  }
  return out;
}

std::vector<hitlist::ReleaseEntry> aggregate_to_slash48(
    const ScanSource& corpus) {
  std::unordered_map<net::Ipv6Prefix, std::uint64_t> counts;
  corpus.visit_blocks(
      0, corpus.span, [&counts](std::span<const hitlist::AddressRecord> block) {
        for (const auto& rec : block) ++counts[net::slash48_of(rec.address)];
      });
  std::vector<hitlist::ReleaseEntry> rows;
  rows.reserve(counts.size());
  for (const auto& [prefix, count] : counts) rows.push_back({prefix, count});
  std::sort(rows.begin(), rows.end(),
            [](const hitlist::ReleaseEntry& a, const hitlist::ReleaseEntry& b) {
              return a.prefix < b.prefix;
            });
  return rows;
}

}  // namespace v6::analysis
