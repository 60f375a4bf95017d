// §5.3 — geolocating EUI-64 devices by linking embedded wired MACs to
// wardriven WiFi BSSIDs via per-OUI offset inference (IPvSeeYou applied
// passively). Headlines: offsets inferred for 117 OUIs, 225,354 MACs
// geolocated, 75% of them in Germany (AVM Fritz!Box).
#include "analysis/eui64_tracking.h"
#include "analysis/geolink.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("§5.3: EUI-64 -> BSSID geolocation", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  analysis::Eui64Tracker tracker(r.ntp, study.world());
  analysis::GeoLinkConfig link_config;
  link_config.min_pairs_per_oui = 20;  // paper used 500 at Internet scale
  analysis::GeoLinkResult result;
  bench::timed("offset inference + linkage", [&] {
    result = analysis::link_eui64_to_bssids(
        tracker.tracks(), study.world().wardriving(), link_config);
  });

  std::printf("\nInferred per-OUI wired->wireless offsets:\n");
  util::TablePrinter offsets({"OUI", "offset", "ground truth"});
  for (const auto& [oui_value, offset] : result.oui_offsets) {
    // Ground truth from the registry (the linker never saw it).
    std::string truth = "?";
    if (const auto idx =
            study.world().ouis().manufacturer_index(net::Oui(oui_value))) {
      truth = std::to_string(
          study.world().ouis().manufacturer(*idx).bssid_offset);
    }
    offsets.add_row({net::Oui(oui_value).to_string(),
                     std::to_string(offset), truth});
  }
  offsets.print(std::cout);

  std::printf("\nGeolocated devices by country:\n");
  for (std::size_t i = 0; i < result.by_country.size() && i < 6; ++i) {
    std::printf("  %s  %8s  (%s)\n",
                result.by_country[i].first.to_string().c_str(),
                util::with_commas(result.by_country[i].second).c_str(),
                util::percent(static_cast<double>(
                                  result.by_country[i].second) /
                              static_cast<double>(std::max<std::size_t>(
                                  1, result.linked.size())))
                    .c_str());
  }

  // How many inferred offsets match ground truth?
  std::uint64_t correct = 0;
  for (const auto& [oui_value, offset] : result.oui_offsets) {
    if (const auto idx =
            study.world().ouis().manufacturer_index(net::Oui(oui_value))) {
      if (study.world().ouis().manufacturer(*idx).bssid_offset == offset) {
        ++correct;
      }
    }
  }

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("OUIs with inferred offset", "117 (unscaled)",
                 util::with_commas(result.oui_offsets.size()));
  comparison.row("offsets matching ground truth", "(validated vs one ISP)",
                 util::with_commas(correct) + " of " +
                     util::with_commas(result.oui_offsets.size()));
  comparison.row("MACs geolocated", "225,354 (unscaled)",
                 util::with_commas(result.linked.size()));
  comparison.row(
      "top country share", "Germany 75% (AVM)",
      result.by_country.empty()
          ? "-"
          : result.by_country.front().first.to_string() + " " +
                util::percent(
                    static_cast<double>(result.by_country.front().second) /
                    static_cast<double>(
                        std::max<std::size_t>(1, result.linked.size()))));
  comparison.print();
  return 0;
}
