// Figure 7 — exemplar tracking timelines: for each §5.2 class, the richest
// MAC's journey as (day, /64, ASN, country) rows. The paper's four panels
// show prefix renumbering within one AS, worldwide MAC reuse, a device
// changing providers, and a mobile user moving between networks.
#include "analysis/eui64_tracking.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 7: exemplar EUI-64 timelines", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  analysis::Eui64Tracker tracker(r.ntp, study.world());
  const auto exemplars = tracker.exemplars();
  if (exemplars.empty()) {
    std::printf("no trackable EUI-64 devices at this scale\n");
    return 0;
  }

  for (const auto& [cls, mac] : exemplars) {
    if (cls == analysis::TrackingClass::kMostlyStatic) continue;  // dull
    const auto timeline = tracker.timeline(mac);
    std::printf("\n-- Fig 7 panel: %s -- MAC %s, %zu sightings --\n",
                to_string(cls), mac.to_string().c_str(), timeline.size());
    std::printf("day,slash64,asn,country\n");
    // Cap the dump; the shape is visible in a few dozen rows.
    const std::size_t step = std::max<std::size_t>(1, timeline.size() / 40);
    for (std::size_t i = 0; i < timeline.size(); i += step) {
      const auto& point = timeline[i];
      std::printf("%u,%s,%u,%s\n",
                  point.first_seen / static_cast<std::uint32_t>(util::kDay),
                  net::Ipv6Address::from_u64(point.slash64_hi, 0)
                      .to_string()
                      .c_str(),
                  point.asn, point.country.to_string().c_str());
    }
  }

  std::printf("\n");
  bench::Comparison comparison;
  for (const auto& [cls, mac] : exemplars) {
    const auto timeline = tracker.timeline(mac);
    std::unordered_set<std::uint64_t> slash64s;
    std::unordered_set<std::uint32_t> asns;
    std::unordered_set<std::uint16_t> countries;
    for (const auto& point : timeline) {
      slash64s.insert(point.slash64_hi);
      asns.insert(point.asn);
      countries.insert(point.country.value());
    }
    comparison.row(
        std::string("exemplar ") + to_string(cls),
        "distinct /64s, ASes, countries",
        std::to_string(slash64s.size()) + " /64s, " +
            std::to_string(asns.size()) + " ASes, " +
            std::to_string(countries.size()) + " countries");
  }
  comparison.print();
  return 0;
}
