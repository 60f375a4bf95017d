// Passive collection, end to end, at full wire fidelity.
//
// Builds a small world, joins its 27 vantage servers to the simulated NTP
// Pool, and runs a month of collection with every poll exchanged as real
// RFC 5905 packets over UDP (checksummed, validated, lossy). Prints the
// per-vantage request load and finishes by emitting the ethically shareable
// artifact: the corpus aggregated to /48s.
#include <cstdio>
#include <sstream>

#include "analysis/dataset_compare.h"
#include "hitlist/passive_collector.h"
#include "hitlist/release.h"
#include "netsim/pool_dns.h"
#include "util/strings.h"

int main() {
  using namespace v6;

  sim::WorldConfig world_config;
  world_config.seed = 7;
  world_config.total_sites = 1200;
  world_config.study_duration = 30 * util::kDay;
  const auto world = sim::World::generate(world_config);
  std::printf("world: %zu sites, %zu devices, %zu ASes, %zu vantages\n",
              world.sites().size(), world.devices().size(),
              world.ases().size(), world.vantages().size());

  netsim::DataPlane plane(world, {0.01, 1});
  // Every vantage captures everything here (vantage_share 1.0) so the
  // wire path gets a thorough workout; the Study pipeline uses the
  // realistic sampled share instead.
  netsim::PoolDns dns(world, 0.10, 1.0);

  hitlist::CollectorConfig collector_config;
  collector_config.wire_fidelity = true;  // full packet path per poll

  hitlist::PassiveCollector collector(world, plane, dns, collector_config);
  hitlist::Corpus corpus(1 << 16);

  std::uint64_t per_vantage[32] = {};
  collector.run(corpus, 0, 30 * util::kDay,
                [&per_vantage](const ntp::Observation& obs,
                               const net::Ipv6Address&) {
                  if (obs.vantage < 32) ++per_vantage[obs.vantage];
                });

  std::printf(
      "collected %s unique addresses from %s observations "
      "(%s polls sent, %s answered)\n",
      util::with_commas(corpus.size()).c_str(),
      util::with_commas(corpus.total_observations()).c_str(),
      util::with_commas(collector.polls_attempted()).c_str(),
      util::with_commas(collector.polls_answered()).c_str());

  std::printf("\nper-vantage request load (geo steering at work):\n");
  for (const auto& vantage : world.vantages()) {
    std::printf("  #%02u %s  %10s\n", vantage.id,
                vantage.country.to_string().c_str(),
                util::with_commas(per_vantage[vantage.id]).c_str());
  }

  // The paper's data release policy: /48s only.
  const auto rows = analysis::aggregate_to_slash48(corpus);
  std::ostringstream release;
  hitlist::write_release(release, rows);
  std::printf("\n/48-aggregated release: %zu prefixes (first lines below)\n",
              rows.size());
  std::istringstream lines(release.str());
  std::string line;
  for (int i = 0; i < 8 && std::getline(lines, line); ++i) {
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}
