// Deterministic pseudo-random number generation for the simulator.
//
// All randomness in v6pool flows through Rng, a xoshiro256** engine seeded
// via splitmix64. Library code never reads wall-clock time or the OS entropy
// pool: a study configured with the same seed produces byte-identical
// corpora, which the integration tests rely on.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace v6::util {

// splitmix64 step; used for seeding and as a cheap stateless mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes a 64-bit value into a well-distributed hash (one splitmix64 round).
// Inline: keyed probe verdicts and world lookups call it per probe.
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t state = value;
  return splitmix64(state);
}

// xoshiro256** 1.0 (Blackman & Vigna). Satisfies
// std::uniform_random_bit_generator so it can drive <random> distributions,
// but the convenience members below avoid libstdc++'s distribution objects,
// whose exact output sequences are not portable across implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  // Inline, like uniform() and chance(): the collector draws per poll.
  result_type next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  // multiply-shift rejection method (unbiased).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  // True with probability p (clamped to [0, 1]). One draw, none when p
  // is <= 0 or >= 1.
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  // Index in [0, weights.size()) drawn proportionally to weights.
  // Zero/negative weights are treated as 0; if all weights are <= 0,
  // returns 0.
  std::size_t weighted(std::span<const double> weights) noexcept;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[bounded(i)]);
    }
  }

  // Derives an independent child generator; children with distinct tags are
  // statistically independent of the parent and of each other.
  Rng fork(std::uint64_t tag) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Draws a rank in [0, n) from a Zipf distribution with exponent `s`.
// Used for heavy-tailed assignment of clients to ASes and countries.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(Rng& rng) const noexcept;
  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
};

}  // namespace v6::util
