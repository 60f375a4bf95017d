// Table 1 — comparison of the three datasets (NTP corpus, IPv6 Hitlist,
// CAIDA routed /48): addresses, overlap with the NTP corpus, ASNs, /48s,
// and address density. Also reproduces §3's country mix and §4.1's
// "Phone Provider" AS-type observation.
#include "analysis/dataset_compare.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  // The table corpus is collected sharded; a test asserts bit-identity
  // with threads=1, so the numbers below are unaffected by the knob.
  config.collector.threads = 4;
  bench::print_banner("Table 1: dataset comparison", config);

  core::Study study(config);
  double serial_s = 0.0;
  double sharded_s = 0.0;
  std::uint64_t ablation_addresses = 0;

  // Sharded-collection ablation: the same world and window, fast path,
  // serial vs four shards. On a multicore host the sharded pass should
  // run >=2x faster; single-core hosts will show ~1x (the shards
  // time-slice one CPU).
  {
    netsim::PoolDns dns(study.world(), 0.25, config.pool_capture_share);
    hitlist::CollectorConfig serial_config = config.collector;
    serial_config.threads = 1;
    hitlist::PassiveCollector serial(study.world(), study.plane(), dns,
                                     serial_config);
    hitlist::Corpus serial_corpus(1 << 16);
    serial_s =
        bench::timed_seconds("passive collection, threads=1", [&] {
          serial.run(serial_corpus, config.world.study_start,
                     config.world.study_start +
                         config.world.study_duration);
        });
    hitlist::PassiveCollector sharded(study.world(), study.plane(), dns,
                                      config.collector);
    hitlist::Corpus sharded_corpus(1 << 16);
    sharded_s =
        bench::timed_seconds("passive collection, threads=4", [&] {
          sharded.run(sharded_corpus, config.world.study_start,
                      config.world.study_start +
                          config.world.study_duration);
        });
    std::printf("collection speedup at 4 threads: %.2fx  "
                "(%s addresses; corpora bit-identical: %s)\n\n",
                sharded_s > 0 ? serial_s / sharded_s : 0.0,
                util::with_commas(sharded_corpus.size()).c_str(),
                sharded_corpus.size() == serial_corpus.size() &&
                        sharded_corpus.total_observations() ==
                            serial_corpus.total_observations()
                    ? "yes"
                    : "NO — DETERMINISM BUG");
    ablation_addresses = sharded_corpus.size();
  }

  const double collect_s = bench::timed_seconds("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const double campaigns_s = bench::timed_seconds("active campaigns", [&] {
    study.run({.collect = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  const analysis::ScanSource source = r.ntp;
  const auto ntp = analysis::summarize_dataset("NTP Pool (this paper)",
                                               source, study.world());
  const auto hitlist = analysis::summarize_dataset(
      "IPv6 Hitlist", r.hitlist.corpus, study.world(), &source);
  const auto caida = analysis::summarize_dataset(
      "CAIDA Routed /48", r.caida.corpus, study.world(), &source);

  util::TablePrinter table({"Dataset", "Addresses", "Common", "ASNs",
                            "ASNs common", "/48s", "/48s common",
                            "Avg addrs per /48"});
  for (const auto& s : {ntp, hitlist, caida}) {
    table.add_row({s.name, util::with_commas(s.addresses),
                   s.name.starts_with("NTP")
                       ? "-"
                       : util::with_commas(s.common_addresses),
                   util::with_commas(s.asns),
                   s.name.starts_with("NTP")
                       ? "-"
                       : util::with_commas(s.common_asns),
                   util::with_commas(s.slash48s),
                   s.name.starts_with("NTP")
                       ? "-"
                       : util::with_commas(s.common_slash48s),
                   std::to_string(s.addrs_per_slash48)});
  }
  table.print(std::cout);

  const double ntp_over_hitlist =
      static_cast<double>(ntp.addresses) /
      static_cast<double>(std::max<std::uint64_t>(1, hitlist.addresses));
  const double ntp_over_caida =
      static_cast<double>(ntp.addresses) /
      static_cast<double>(std::max<std::uint64_t>(1, caida.addresses));

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("NTP / Hitlist size ratio", "370x (paper window)",
                 std::to_string(ntp_over_hitlist) + "x");
  comparison.row("NTP / CAIDA size ratio", "681x",
                 std::to_string(ntp_over_caida) + "x");
  comparison.row(
      "Hitlist addrs found by NTP", "1.3%",
      util::percent(static_cast<double>(hitlist.common_addresses) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, hitlist.addresses))));
  comparison.row(
      "CAIDA addrs found by NTP", "0.02%",
      util::percent(static_cast<double>(caida.common_addresses) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, caida.addresses))));
  comparison.row("NTP avg addrs per /48", "1,098",
                 std::to_string(ntp.addrs_per_slash48));
  comparison.row("Hitlist avg addrs per /48", "50",
                 std::to_string(hitlist.addrs_per_slash48));
  comparison.row("CAIDA avg addrs per /48", "1",
                 std::to_string(caida.addrs_per_slash48));
  comparison.row("NTP ASNs vs Hitlist ASNs", "9,006 vs 18,184 (0.50x)",
                 util::with_commas(ntp.asns) + " vs " +
                     util::with_commas(hitlist.asns));
  comparison.print();

  // §4.1: AS-type mix ("Phone Provider" share).
  std::printf("\nAS-type mix (share of addresses per ASdb-style class):\n");
  util::TablePrinter types({"AS type", "NTP", "IPv6 Hitlist", "CAIDA"});
  const auto ntp_types = analysis::as_type_fractions(r.ntp, study.world());
  const auto hl_types =
      analysis::as_type_fractions(r.hitlist.corpus, study.world());
  const auto ca_types =
      analysis::as_type_fractions(r.caida.corpus, study.world());
  for (std::size_t i = 0; i < ntp_types.size(); ++i) {
    types.add_row({to_string(ntp_types[i].first),
                   util::percent(ntp_types[i].second),
                   util::percent(hl_types[i].second),
                   util::percent(ca_types[i].second)});
  }
  types.print(std::cout);
  std::printf(
      "(paper: 14%% of NTP addresses from Phone Provider ASes vs 2%% of "
      "the Hitlist)\n");

  // §3: country mix.
  std::printf("\nTop countries by unique NTP addresses (paper: IN 1.9B, CN "
              "1.6B, US 1.2B, BR 700M, ID 630M = 76%%):\n");
  const auto mix = study.country_mix();
  std::uint64_t total = 0, top5 = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    total += mix[i].second;
    if (i < 5) top5 += mix[i].second;
  }
  for (std::size_t i = 0; i < mix.size() && i < 5; ++i) {
    std::printf("  %s  %12s\n", mix[i].first.to_string().c_str(),
                util::with_commas(mix[i].second).c_str());
  }
  std::printf("  top-5 share: %s (paper: 76%%)\n",
              util::percent(static_cast<double>(top5) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, total)))
                  .c_str());

  bench::BenchJson json("bench_table1_datasets");
  json.number("collect_seconds", collect_s);
  json.number("campaigns_seconds", campaigns_s);
  json.number("collection_speedup_4_threads",
              sharded_s > 0 ? serial_s / sharded_s : 0.0);
  json.integer("ablation_addresses", ablation_addresses);
  json.integer("ntp_addresses", ntp.addresses);
  json.integer("hitlist_addresses", hitlist.addresses);
  json.integer("caida_addresses", caida.addresses);
  json.number("ntp_over_hitlist", ntp_over_hitlist);
  json.number("ntp_over_caida", ntp_over_caida);
  json.number("hitlist_found_by_ntp",
              static_cast<double>(hitlist.common_addresses) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, hitlist.addresses)));
  json.integer("ntp_asns", ntp.asns);
  json.number("ntp_addrs_per_slash48", ntp.addrs_per_slash48);
  json.number("top5_country_share",
              static_cast<double>(top5) /
                  static_cast<double>(std::max<std::uint64_t>(1, total)));
  json.write("BENCH_table1.json");
  return 0;
}
