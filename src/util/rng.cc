#include "util/rng.h"

#include <cmath>

namespace v6::util {

Rng::Rng(std::uint64_t seed) noexcept {
  // Seed the full 256-bit state from splitmix64 as recommended by the
  // xoshiro authors; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::bounded(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  if (bound == 0) return 0;
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = span == 0 ? next() : bounded(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double mean) noexcept {
  // Inverse-CDF; 1-u avoids log(0).
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return 0;
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (draw < w) return i;
    draw -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::uint64_t tag) noexcept {
  return Rng(next() ^ mix64(tag));
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  if (cdf_.empty()) return 0;
  const double u = rng.uniform();
  // Binary search for the first cumulative weight >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace v6::util
