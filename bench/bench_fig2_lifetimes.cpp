// Figure 2 — (a) CCDF of address lifetimes over the whole NTP corpus and
// (b) CDF of IID lifetimes split by entropy band. Headline numbers: >60%
// of addresses observed exactly once; 1.2% live >= 1 week, 0.4% >= 1
// month, 0.03% >= 6 months; low-entropy IIDs persist far longer.
#include "analysis/lifetimes.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 2: address and IID lifetimes", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  const std::vector<util::SimDuration> points = {
      0,
      util::kMinute,
      util::kHour,
      util::kDay,
      3 * util::kDay,
      util::kWeek,
      2 * util::kWeek,
      util::kMonth,
      2 * util::kMonth,
      6 * util::kMonth,
  };

  const auto addresses = analysis::address_lifetimes(r.ntp, points);
  std::printf("# Fig 2a series: CCDF of address lifetimes (N=%s)\n",
              util::with_commas(addresses.total).c_str());
  std::printf("lifetime,ccdf\n");
  for (const auto& [d, frac] : addresses.ccdf) {
    std::printf("%s,%.6f\n", util::format_duration(d).c_str(), frac);
  }

  const auto iids = analysis::iid_lifetimes(r.ntp, points);
  std::printf("\n# Fig 2b series: CDF of IID lifetimes by entropy band "
              "(N=%s unique IIDs)\n",
              util::with_commas(iids.unique_iids).c_str());
  std::printf("lifetime,low,medium,high\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("%s,%.4f,%.4f,%.4f\n",
                util::format_duration(points[i]).c_str(),
                iids.bands[0].cdf[i].second, iids.bands[1].cdf[i].second,
                iids.bands[2].cdf[i].second);
  }

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("addresses observed once", "> 60%",
                 util::percent(addresses.fraction_once));
  comparison.row("addresses alive >= 1 week", "1.2%",
                 util::percent(addresses.fraction_week));
  comparison.row("addresses alive >= 1 month", "0.4%",
                 util::percent(addresses.fraction_month));
  comparison.row("addresses alive >= 6 months", "0.03%",
                 util::percent(addresses.fraction_six_months,  3));
  comparison.row("low-entropy IIDs alive >= 1 week", "10%",
                 util::percent(iids.bands[0].fraction_week));
  comparison.row("high-entropy IIDs alive >= 1 week", "<= 5%",
                 util::percent(iids.bands[2].fraction_week));
  comparison.row("low-entropy IIDs seen once",
                 "~10% more than high-entropy",
                 util::percent(iids.bands[0].fraction_once) + " vs " +
                     util::percent(iids.bands[2].fraction_once));
  comparison.print();
  return 0;
}
