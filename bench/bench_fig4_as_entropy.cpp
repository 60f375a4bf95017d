// Figure 4 — per-AS IID entropy CDFs: (a) the top five ASes over the whole
// study, (b) over a single day. The signature result is Reliance Jio's
// two addressing modes (fully random vs "structured low" with only the
// lower four IID bytes random) and Telkomsel's low-entropy pool.
#include "analysis/as_entropy.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 4: per-AS entropy profiles", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  const auto full_window = study.config().world.study_duration;
  const auto top_full = analysis::top_as_entropy_profiles(
      r.ntp, study.world(), 5, 0, full_window);

  std::printf("\n-- Fig 4a: top-5 ASes, full study window --\n");
  for (const auto& profile : top_full) {
    std::printf("AS%u  %-28s  %12s addrs  median entropy %.2f\n",
                profile.asn, profile.name.c_str(),
                util::with_commas(profile.addresses).c_str(),
                profile.entropy.median());
    bench::print_cdf("Fig 4a series: " + profile.name, profile.entropy, 11);
  }

  // Fig 4b uses a single mid-study day (the paper used 1 July 2022 ==
  // study day ~157).
  const util::SimTime day_start =
      std::min<util::SimTime>(157 * util::kDay, full_window - util::kDay);
  const auto top_day = analysis::top_as_entropy_profiles(
      r.ntp, study.world(), 5, day_start, day_start + util::kDay);

  std::printf("\n-- Fig 4b: top-5 ASes, single day --\n");
  for (const auto& profile : top_day) {
    std::printf("AS%u  %-28s  %12s addrs  median entropy %.2f\n",
                profile.asn, profile.name.c_str(),
                util::with_commas(profile.addresses).c_str(),
                profile.entropy.median());
    bench::print_cdf("Fig 4b series: " + profile.name, profile.entropy, 11);
  }

  std::printf("\n");
  bench::Comparison comparison;
  bool jio_seen = false, tsel_seen = false;
  for (const auto& profile : top_full) {
    if (profile.name == "Reliance Jio") {
      jio_seen = true;
      // The structured-low mode shows as a visible step below 0.6.
      comparison.row("Reliance Jio share below entropy 0.6",
                     "~1/3 (structured-low mode)",
                     util::percent(profile.entropy.cdf(0.6)));
      comparison.row("Reliance Jio high-entropy share", "~60%",
                     util::percent(1.0 - profile.entropy.cdf(0.75)));
    }
    if (profile.name == "Telekomunikasi Selular") {
      tsel_seen = true;
      comparison.row("Telkomsel median entropy", "below aggregate (~0.8)",
                     std::to_string(profile.entropy.median()));
    }
  }
  comparison.row("Jio among top-5 ASes", "yes", jio_seen ? "yes" : "no");
  comparison.row("Telkomsel among top-5 ASes", "yes",
                 tsel_seen ? "yes" : "no");
  comparison.print();
  return 0;
}
