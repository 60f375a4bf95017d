#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace v6::bench {

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const auto parsed = util::parse_dec_u64(value);
  return parsed.value_or(fallback);
}

}  // namespace

core::StudyConfig bench_config() {
  core::StudyConfig config;
  config.world.seed = env_u64("V6_BENCH_SEED", 2022);
  config.world.total_sites =
      static_cast<std::uint32_t>(env_u64("V6_BENCH_SITES", 20000));
  config.world.study_duration =
      static_cast<util::SimDuration>(env_u64("V6_BENCH_DAYS", 219)) *
      util::kDay;
  // The backscan week runs after the study window (January 2023 in the
  // paper's calendar).
  config.backscan_start = config.world.study_duration + 26 * util::kDay;
  // Campaign windows scale with the study window.
  config.hitlist_campaign.start = 22 * util::kDay;
  config.hitlist_campaign.duration =
      std::max<util::SimDuration>(config.world.study_duration -
                                      25 * util::kDay,
                                  4 * util::kWeek);
  config.caida_campaign.start = 9 * util::kDay;
  config.caida_campaign.duration = std::min<util::SimDuration>(
      62 * util::kDay, config.world.study_duration);
  return config;
}

void print_banner(const std::string& bench_name,
                  const core::StudyConfig& config) {
  std::printf(
      "================================================================\n"
      "%s\n"
      "world: %u sites, %ld-day study, seed %llu  "
      "(V6_BENCH_SITES / V6_BENCH_DAYS / V6_BENCH_SEED to rescale)\n"
      "================================================================\n",
      bench_name.c_str(), config.world.total_sites,
      static_cast<long>(config.world.study_duration / util::kDay),
      static_cast<unsigned long long>(config.world.seed));
}

void timed(const std::string& label, const std::function<void()>& fn) {
  timed_seconds(label, fn);
}

double timed_seconds(const std::string& label,
                     const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  // Full clock resolution, so sub-millisecond steps (merges and collapses
  // at small scale) and the rates derived from them do not read as 0.
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("[%s: %.1fs]\n", label.c_str(), seconds);
  return seconds;
}

void print_cdf(const std::string& caption,
               const util::EmpiricalDistribution& distribution,
               std::size_t points) {
  if (distribution.empty()) {
    std::printf("# %s: (empty)\n", caption.c_str());
    return;
  }
  std::vector<double> xs, ys;
  for (const auto& [x, y] : distribution.cdf_curve(points)) {
    xs.push_back(x);
    ys.push_back(y);
  }
  util::print_series(std::cout, caption, {"x", "cdf"}, {xs, ys});
}

BenchJson scaled_bench_json(const std::string& bench_name) {
  BenchJson json(bench_name);
  const auto config = bench_config();
  json.integer("sites", config.world.total_sites);
  json.integer("days", static_cast<std::uint64_t>(
                           config.world.study_duration / util::kDay));
  json.integer("seed", config.world.seed);
  return json;
}

}  // namespace v6::bench
