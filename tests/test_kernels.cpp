// Batch-kernel contract tests: every batched kernel must be bit-identical
// to its per-record reference at any block size and under either dispatch
// backend, and the dispatch resolution itself must honor the
// env > forced > CPUID precedence. Float outputs are compared through
// std::bit_cast — "close enough" would hide exactly the drift these
// kernels promise not to have.
#include "kernels/batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/address_categories.h"
#include "analysis/as_entropy.h"
#include "analysis/dataset_compare.h"
#include "analysis/entropy_distribution.h"
#include "analysis/lifetimes.h"
#include "kernels/dispatch.h"
#include "net/classify.h"
#include "net/entropy.h"
#include "sim/feistel.h"
#include "util/rng.h"

namespace v6::kernels {
namespace {

// Deterministic pseudo-random 64-bit stream for property inputs.
std::uint64_t rng64(std::uint64_t i) {
  return util::mix64(i * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Pins the backend for a scope and always restores auto on exit, so a
// failing test cannot leak a forced backend into its neighbors.
class BackendGuard {
 public:
  explicit BackendGuard(std::optional<Backend> backend) {
    force_backend(backend);
  }
  ~BackendGuard() { force_backend(std::nullopt); }
};

// Block sizes every kernel must survive: empty, sub-vector ragged tails
// (the AVX2 lanes process 4 at a time), one full vector, vector+1, and a
// size big enough to cross the internal chunk boundaries.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 31, 257, 1500};

TEST(KernelDispatch, ResolveBackendPrecedence) {
  // Env pin beats everything, including a forced AVX2 override.
  EXPECT_EQ(resolve_backend("1", std::nullopt, true), Backend::kScalar);
  EXPECT_EQ(resolve_backend("1", Backend::kAvx2, true), Backend::kScalar);
  EXPECT_EQ(resolve_backend("yes", std::nullopt, true), Backend::kScalar);
  // Unset, empty, or "0" env falls through to the override, then CPUID.
  EXPECT_EQ(resolve_backend(nullptr, std::nullopt, true), Backend::kAvx2);
  EXPECT_EQ(resolve_backend("", std::nullopt, true), Backend::kAvx2);
  EXPECT_EQ(resolve_backend("0", std::nullopt, true), Backend::kAvx2);
  EXPECT_EQ(resolve_backend(nullptr, std::nullopt, false), Backend::kScalar);
  EXPECT_EQ(resolve_backend(nullptr, Backend::kScalar, true),
            Backend::kScalar);
}

TEST(KernelDispatch, ForceBackendPinsActive) {
  {
    BackendGuard guard(Backend::kScalar);
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  // Restored to auto: active equals whatever CPUID detects (unless the
  // suite itself runs under V6_FORCE_SCALAR, where both are pinned).
  const char* env = std::getenv("V6_FORCE_SCALAR");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0) {
    EXPECT_EQ(active_backend(), detected_backend());
  } else {
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
}

TEST(KernelBatch, EntropyMatchesPerRecordReference) {
  for (const std::size_t n : kSizes) {
    std::vector<std::uint64_t> iids(n);
    for (std::size_t i = 0; i < n; ++i) iids[i] = rng64(i);
    if (n > 2) iids[1] = 0;              // degenerate IIDs hit the
    if (n > 3) iids[2] = 0x00ff00ff;     // low-entropy branches
    std::vector<double> out(n, -1.0);
    iid_entropy_batch(iids.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(out[i]), bits(net::iid_entropy(iids[i])))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelBatch, ClassifyMatchesPerRecordReference) {
  for (const std::size_t n : kSizes) {
    std::vector<std::uint64_t> iids(n);
    std::vector<std::uint8_t> accepted(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix structural shapes: zeroes, low-byte, low-2-byte, and random.
      switch (i % 5) {
        case 0: iids[i] = 0; break;
        case 1: iids[i] = rng64(i) & 0xff; break;
        case 2: iids[i] = rng64(i) & 0xffff; break;
        default: iids[i] = rng64(i); break;
      }
      accepted[i] = static_cast<std::uint8_t>(rng64(i + 999) & 1);
    }
    std::vector<net::AddressCategory> out(n);
    classify_iid_batch(iids.data(), accepted.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], net::classify_iid(iids[i], accepted[i] != 0))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelBatch, HashMatchesPerRecordReference) {
  // Both strides the corpus uses: packed addresses and AddressRecords.
  for (const std::size_t stride : {std::size_t{16}, std::size_t{32}}) {
    for (const std::size_t n : kSizes) {
      std::vector<std::uint8_t> bytes(n * stride);
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::uint8_t>(rng64(i));
      }
      std::vector<std::uint64_t> out(n);
      ipv6_hash_batch(bytes.data(), stride, n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        net::Ipv6Address::Bytes raw;
        std::memcpy(raw.data(), bytes.data() + i * stride, 16);
        EXPECT_EQ(out[i], net::Ipv6AddressHash{}(net::Ipv6Address(raw)))
            << "stride=" << stride << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelBatch, FeistelMatchesPerRecordReference) {
  // Domains spanning tiny (cycle-walk heavy), odd, and > 2^32.
  const std::uint64_t domains[] = {1, 2, 5, 17, 1000, 1000003,
                                   1ULL << 32, (1ULL << 40) + 7};
  for (const std::uint64_t domain : domains) {
    const sim::FeistelPermutation perm(domain, 0xfeedULL ^ domain);
    for (const std::size_t n : kSizes) {
      std::vector<std::uint64_t> in(n), out(n), back(n);
      for (std::size_t i = 0; i < n; ++i) in[i] = rng64(i) % domain;
      perm.apply_batch(in.data(), n, out.data());
      perm.invert_batch(out.data(), n, back.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], perm.apply(in[i]))
            << "domain=" << domain << " n=" << n << " i=" << i;
        EXPECT_EQ(back[i], in[i])
            << "domain=" << domain << " n=" << n << " i=" << i;
      }
    }
  }
}

// Same-process scalar-vs-AVX2 comparison through the detail entry points
// (skipped on machines without AVX2 — CI's identity matrix covers those
// via the V6_FORCE_SCALAR leg instead).
TEST(KernelBatch, Avx2BitIdenticalToScalar) {
  if (detected_backend() != Backend::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  constexpr std::size_t kN = 1027;  // deliberately ragged
  std::vector<std::uint64_t> iids(kN);
  std::vector<std::uint8_t> accepted(kN);
  std::vector<std::uint8_t> bytes(kN * 16);
  for (std::size_t i = 0; i < kN; ++i) {
    iids[i] = (i % 7 == 0) ? (rng64(i) & 0xffff) : rng64(i);
    accepted[i] = static_cast<std::uint8_t>(rng64(i + 1) & 1);
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(rng64(i + 2));
  }

  std::vector<double> entropy_s(kN), entropy_v(kN);
  detail::iid_entropy_batch_scalar(iids.data(), kN, entropy_s.data());
  detail::iid_entropy_batch_avx2(iids.data(), kN, entropy_v.data());
  std::vector<net::AddressCategory> cat_s(kN), cat_v(kN);
  detail::classify_iid_batch_scalar(iids.data(), accepted.data(), kN,
                                    cat_s.data());
  detail::classify_iid_batch_avx2(iids.data(), accepted.data(), kN,
                                  cat_v.data());
  std::vector<std::uint64_t> hash_s(kN), hash_v(kN);
  detail::ipv6_hash_batch_scalar(bytes.data(), 16, kN, hash_s.data());
  detail::ipv6_hash_batch_avx2(bytes.data(), 16, kN, hash_v.data());
  const FeistelSpec spec = make_feistel_spec(1000003, 0xabcdULL);
  std::vector<std::uint64_t> perm_in(kN), perm_s(kN), perm_v(kN);
  for (std::size_t i = 0; i < kN; ++i) perm_in[i] = rng64(i) % 1000003;
  detail::feistel_apply_batch_scalar(spec, perm_in.data(), kN, perm_s.data());
  detail::feistel_apply_batch_avx2(spec, perm_in.data(), kN, perm_v.data());

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(bits(entropy_s[i]), bits(entropy_v[i])) << "entropy i=" << i;
    ASSERT_EQ(cat_s[i], cat_v[i]) << "classify i=" << i;
    ASSERT_EQ(hash_s[i], hash_v[i]) << "hash i=" << i;
    ASSERT_EQ(perm_s[i], perm_v[i]) << "feistel i=" << i;
  }
}

// ---------------------------------------------------------------------
// End-to-end: the five core analyses must produce bit-identical reports
// with the backend pinned to scalar and left on auto. On an AVX2 host
// this exercises the full vector path against the scalar reference; on
// anything else both runs take the scalar path and the comparison is a
// (still valid) no-op.

class KernelAnalysisIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 31;
    config.total_sites = 300;
    world_ = new sim::World(sim::World::generate(config));
    corpus_ = new hitlist::Corpus();
    // Addresses inside simulated AS prefixes (so AS attribution works),
    // with a mix of random, structured, and duplicate-sighting IIDs and
    // staggered lifetimes.
    const std::size_t n_ases = world_->ases().size();
    for (std::uint64_t i = 0; i < 6000; ++i) {
      const auto as_index = static_cast<std::uint32_t>(i % n_ases);
      const std::uint64_t hi = world_->ases()[as_index].prefix_hi |
                               (2ULL << 28) | ((i / n_ases) << 8);
      std::uint64_t lo = rng64(i);
      if (i % 11 == 0) lo &= 0xff;
      if (i % 13 == 0) lo &= 0xffff;
      const auto addr = net::Ipv6Address::from_u64(hi, lo);
      corpus_->add(addr, static_cast<util::SimTime>(i % 90) * util::kDay);
      if (i % 3 == 0) {
        corpus_->add(addr,
                     static_cast<util::SimTime>(i % 90 + 40) * util::kDay);
      }
    }
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete world_;
  }

  static sim::World* world_;
  static hitlist::Corpus* corpus_;
};

sim::World* KernelAnalysisIdentity::world_ = nullptr;
hitlist::Corpus* KernelAnalysisIdentity::corpus_ = nullptr;

template <typename Report, typename Fn>
std::pair<Report, Report> run_both(Fn&& fn) {
  BackendGuard scalar(Backend::kScalar);
  Report a = fn();
  force_backend(std::nullopt);
  Report b = fn();
  return {std::move(a), std::move(b)};
}

TEST_F(KernelAnalysisIdentity, EntropyDistribution) {
  const auto [a, b] = run_both<util::EmpiricalDistribution>(
      [&] { return analysis::entropy_distribution(*corpus_); });
  ASSERT_EQ(a.count(), b.count());
  const auto& sa = a.sorted_samples();
  const auto& sb = b.sorted_samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(bits(sa[i]), bits(sb[i])) << "sample " << i;
  }
}

TEST_F(KernelAnalysisIdentity, AddressCategories) {
  const auto [a, b] = run_both<analysis::CategoryBreakdown>([&] {
    return analysis::categorize_corpus(*corpus_, *world_, 0,
                                       200 * util::kDay);
  });
  EXPECT_EQ(a.total, b.total);
  EXPECT_GT(a.total, 0u);
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << "category " << i;
  }
}

TEST_F(KernelAnalysisIdentity, AsEntropyProfiles) {
  using Profiles = std::vector<analysis::AsEntropyProfile>;
  const auto [a, b] = run_both<Profiles>([&] {
    return analysis::top_as_entropy_profiles(*corpus_, *world_, 10, 0,
                                             200 * util::kDay);
  });
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].asn, b[i].asn);
    EXPECT_EQ(a[i].addresses, b[i].addresses);
    const auto& sa = a[i].entropy.sorted_samples();
    const auto& sb = b[i].entropy.sorted_samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t s = 0; s < sa.size(); ++s) {
      ASSERT_EQ(bits(sa[s]), bits(sb[s])) << "as " << i << " sample " << s;
    }
  }
}

TEST_F(KernelAnalysisIdentity, Lifetimes) {
  const util::SimDuration points[] = {util::kWeek, util::kMonth,
                                      3 * util::kMonth};
  const auto [a, b] = run_both<analysis::IidLifetimeReport>(
      [&] { return analysis::iid_lifetimes(*corpus_, points); });
  EXPECT_EQ(a.unique_iids, b.unique_iids);
  EXPECT_GT(a.unique_iids, 0u);
  for (std::size_t band = 0; band < a.bands.size(); ++band) {
    EXPECT_EQ(a.bands[band].total, b.bands[band].total);
    EXPECT_EQ(bits(a.bands[band].fraction_once),
              bits(b.bands[band].fraction_once));
    EXPECT_EQ(bits(a.bands[band].fraction_week),
              bits(b.bands[band].fraction_week));
    ASSERT_EQ(a.bands[band].cdf.size(), b.bands[band].cdf.size());
    for (std::size_t p = 0; p < a.bands[band].cdf.size(); ++p) {
      EXPECT_EQ(bits(a.bands[band].cdf[p].second),
                bits(b.bands[band].cdf[p].second));
    }
  }
  const auto [c, d] = run_both<analysis::AddressLifetimeReport>(
      [&] { return analysis::address_lifetimes(*corpus_, points); });
  EXPECT_EQ(c.total, d.total);
  EXPECT_EQ(bits(c.fraction_once), bits(d.fraction_once));
  EXPECT_EQ(bits(c.fraction_month), bits(d.fraction_month));
}

TEST_F(KernelAnalysisIdentity, DatasetCompare) {
  const auto [a, b] = run_both<analysis::DatasetSummary>([&] {
    const analysis::ScanSource source = *corpus_;
    return analysis::summarize_dataset("corpus", source, *world_, &source);
  });
  EXPECT_EQ(a.addresses, b.addresses);
  EXPECT_EQ(a.asns, b.asns);
  EXPECT_EQ(a.slash48s, b.slash48s);
  EXPECT_EQ(a.common_addresses, b.common_addresses);
  EXPECT_EQ(a.common_asns, b.common_asns);
  EXPECT_EQ(a.common_slash48s, b.common_slash48s);
  EXPECT_EQ(bits(a.addrs_per_slash48), bits(b.addrs_per_slash48));
  EXPECT_GT(a.addresses, 0u);
}

TEST_F(KernelAnalysisIdentity, CorpusBlockInsertMatchesPerRecord) {
  // add_block (batch hash) must build the same corpus as per-record add:
  // same size, same slot layout, same serialized bytes after canonicalize.
  hitlist::Corpus by_block;
  corpus_->for_each_block([&by_block](
                              std::span<const hitlist::AddressRecord> block) {
    by_block.add_block(block);
  });
  hitlist::Corpus by_record;
  for (const auto& rec : corpus_->records()) by_record.add_record(rec);
  ASSERT_EQ(by_block.size(), corpus_->size());
  ASSERT_EQ(by_block.size(), by_record.size());
  for (const auto& rec : by_block.records()) {
    const auto* other = by_record.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(rec.count, other->count);
    EXPECT_EQ(rec.first_seen, other->first_seen);
    EXPECT_EQ(rec.last_seen, other->last_seen);
    EXPECT_EQ(rec.vantage_mask, other->vantage_mask);
  }
}

}  // namespace
}  // namespace v6::kernels
