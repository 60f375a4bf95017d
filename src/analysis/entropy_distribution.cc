#include "analysis/entropy_distribution.h"

#include <algorithm>

#include "kernels/batch.h"
#include "net/entropy.h"

namespace v6::analysis {

namespace {

using Samples = std::vector<double>;

// Shard concatenation in ascending shard order reproduces the serial
// visit sequence, so the sample vector — and the distribution built from
// it — is bit-identical at any thread count.
void append_samples(Samples& into, Samples&& from) {
  into.insert(into.end(), from.begin(), from.end());
}

// Records hashed per batch-kernel call (bounds the IID staging buffer).
constexpr std::size_t kChunk = 1024;

// Appends one entropy sample per record of `block`, via the batch kernel
// writing straight into the sample vector (bit-identical to per-record
// net::iid_entropy under either kernel backend).
void append_block_entropies(Samples& s,
                            std::span<const hitlist::AddressRecord> block) {
  const std::size_t old = s.size();
  s.resize(old + block.size());
  std::uint64_t iids[kChunk];
  for (std::size_t base = 0; base < block.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, block.size() - base);
    kernels::extract_iid_batch(
        reinterpret_cast<const std::uint8_t*>(block.data() + base),
        sizeof(hitlist::AddressRecord), n, iids);
    kernels::iid_entropy_batch(iids, n, s.data() + old + base);
  }
}

}  // namespace

util::EmpiricalDistribution entropy_distribution(
    const ScanSource& source, const AnalysisConfig& config,
    std::vector<AnalysisStageStats>* stats) {
  auto samples = scan_corpus_blocks<Samples>(
      source, config, "entropy_distribution", [] { return Samples(); },
      append_block_entropies, append_samples, stats);
  return util::EmpiricalDistribution(std::move(samples));
}

util::EmpiricalDistribution entropy_distribution(
    std::span<const net::Ipv6Address> addresses) {
  static_assert(sizeof(net::Ipv6Address) == 16);
  std::vector<double> samples(addresses.size());
  std::uint64_t iids[kChunk];
  for (std::size_t base = 0; base < addresses.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, addresses.size() - base);
    kernels::extract_iid_batch(
        reinterpret_cast<const std::uint8_t*>(addresses.data() + base),
        sizeof(net::Ipv6Address), n, iids);
    kernels::iid_entropy_batch(iids, n, samples.data() + base);
  }
  return util::EmpiricalDistribution(std::move(samples));
}

util::EmpiricalDistribution intersection_entropy_distribution(
    const hitlist::Corpus& a, const hitlist::Corpus& b,
    const AnalysisConfig& config, std::vector<AnalysisStageStats>* stats) {
  const hitlist::Corpus& small = a.size() <= b.size() ? a : b;
  const hitlist::Corpus& large = a.size() <= b.size() ? b : a;
  auto samples = scan_corpus<Samples>(
      small, config, "intersection_entropy_distribution",
      [] { return Samples(); },
      [&large](Samples& s, const hitlist::AddressRecord& rec) {
        if (large.find(rec.address) != nullptr) {
          s.push_back(net::iid_entropy(rec.address));
        }
      },
      append_samples, stats);
  return util::EmpiricalDistribution(std::move(samples));
}

std::uint64_t intersection_size(const hitlist::Corpus& a,
                                const hitlist::Corpus& b,
                                const AnalysisConfig& config,
                                std::vector<AnalysisStageStats>* stats) {
  const hitlist::Corpus& small = a.size() <= b.size() ? a : b;
  const hitlist::Corpus& large = a.size() <= b.size() ? b : a;
  return scan_corpus<std::uint64_t>(
      small, config, "intersection_size", [] { return std::uint64_t{0}; },
      [&large](std::uint64_t& n, const hitlist::AddressRecord& rec) {
        if (large.find(rec.address) != nullptr) ++n;
      },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; }, stats);
}

}  // namespace v6::analysis
