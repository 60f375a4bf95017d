// Corpus completeness under vantage churn: how much of the seven-month
// corpus survives as vantage servers crash, flap, and slow-start, and how
// much of the damage RFC 5905 client retries plus the pool's health-aware
// steering claw back.
//
// Each row re-collects the same world under an increasingly hostile fault
// plan and reports corpus size / observations relative to the fault-free
// baseline, plus the degradation the per-vantage health stats attribute
// to the plan. A final pair of rows isolates the recovery mechanisms by
// switching retries off at the heaviest intensity.
#include <cstdio>

#include "bench_common.h"
#include "hitlist/passive_collector.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"

namespace {

using namespace v6;

struct RowResult {
  std::uint64_t corpus = 0;
  std::uint64_t observations = 0;
  std::uint64_t polls_answered = 0;
  std::uint64_t lost_to_fault = 0;
  std::uint64_t retries = 0;
  std::uint64_t steered = 0;
};

RowResult run_once(const sim::World& world, double outages_per_vantage,
                   std::uint32_t retry_limit) {
  netsim::DataPlane plane(world, {0.01, 1});
  netsim::PoolDns dns(world, 0.25, 0.03);

  netsim::FaultPlanConfig plan;
  plan.seed = 17;
  plan.outages_per_vantage = outages_per_vantage;
  plan.flaps_per_vantage = 2 * outages_per_vantage;
  netsim::FaultSchedule faults(world.vantages(), plan, 0,
                               world.config().study_duration);
  if (plan.active()) {
    plane.set_faults(&faults);
    dns.set_health_monitor(&faults, 15 * util::kMinute);
  }

  hitlist::CollectorConfig config;
  config.retry_limit = retry_limit;
  hitlist::PassiveCollector collector(world, plane, dns, config);
  hitlist::Corpus corpus(1 << 16);
  collector.run(corpus, 0, world.config().study_duration);

  RowResult row;
  row.corpus = corpus.size();
  row.observations = corpus.total_observations();
  row.polls_answered = collector.polls_answered();
  for (const auto& vh : collector.vantage_health()) {
    row.lost_to_fault += vh.lost_to_fault;
    row.retries += vh.retries;
    row.steered += vh.steered_polls;
  }
  return row;
}

std::string one_decimal(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string relative(std::uint64_t value, std::uint64_t baseline) {
  if (baseline == 0) return "n/a";
  return util::percent(static_cast<double>(value) /
                       static_cast<double>(baseline));
}

}  // namespace

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  // The intensity grid re-collects several times; use a smaller world.
  config.world.total_sites =
      std::min<std::uint32_t>(config.world.total_sites, 6000);
  config.world.study_duration = std::min<util::SimDuration>(
      config.world.study_duration, 120 * util::kDay);
  bench::print_banner("Fault resilience: corpus completeness vs vantage churn",
                      config);

  const auto world = sim::World::generate(config.world);

  util::TablePrinter table({"fault plan", "unique addresses", "observations",
                            "vs fault-free", "lost to faults", "retries",
                            "steered polls"});
  RowResult baseline;
  bench::timed("fault-free baseline (retries=2)", [&] {
    baseline = run_once(world, 0.0, 2);
  });
  table.add_row({"none", util::with_commas(baseline.corpus),
                 util::with_commas(baseline.observations), "100.0%", "0", "0",
                 "0"});

  for (const double intensity : {0.5, 2.0, 6.0}) {
    RowResult row;
    bench::timed("outages/vantage = " + one_decimal(intensity),
                 [&] { row = run_once(world, intensity, 2); });
    table.add_row({"outages/vantage = " + one_decimal(intensity),
                   util::with_commas(row.corpus),
                   util::with_commas(row.observations),
                   relative(row.observations, baseline.observations),
                   util::with_commas(row.lost_to_fault),
                   util::with_commas(row.retries),
                   util::with_commas(row.steered)});
  }

  RowResult no_retry;
  bench::timed("heaviest plan, retries disabled", [&] {
    no_retry = run_once(world, 6.0, 0);
  });
  table.add_row({"outages/vantage = 6.0, no retries",
                 util::with_commas(no_retry.corpus),
                 util::with_commas(no_retry.observations),
                 relative(no_retry.observations, baseline.observations),
                 util::with_commas(no_retry.lost_to_fault), "0",
                 util::with_commas(no_retry.steered)});
  table.print(std::cout);

  std::printf(
      "\nreading guide: even at several multi-hour outages per vantage the\n"
      "corpus keeps most of its observations — client retries re-ask through\n"
      "the crash tail and health-aware steering moves polls to surviving\n"
      "servers once the pool monitor notices. Dropping retries at the same\n"
      "intensity shows the recovery they were responsible for.\n");
  return 0;
}
