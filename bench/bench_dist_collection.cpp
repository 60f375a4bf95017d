// Distributed collection: throughput of the simulated coordinator/worker
// cluster vs worker count, and the cost of fault recovery vs kill
// intensity — with the bit-identity gate (merged corpus bytes equal to
// the single-process run) checked on every row.
//
// Two grids:
//   * workers {1, 2, 4, 8}, no faults — wall-clock records/sec of the
//     full lease/upload/merge cycle against the single-process baseline,
//     and the fleet's total pool resolutions (work; flat in the worker
//     count because each lease collects one device range);
//   * 4 workers, forced kills {0, 1, 2, 4} — worker deaths observed,
//     chunks replayed, cluster-clock recovery latency, and the identity
//     verdict while the fleet is being murdered.
#include <cstdio>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "dist/sim_cluster.h"
#include "hitlist/corpus_io.h"
#include "hitlist/passive_collector.h"
#include "netsim/pool_dns.h"
#include "obs/metrics.h"

namespace {

using namespace v6;

std::string corpus_bytes(const hitlist::Corpus& corpus) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  hitlist::save_corpus(out, corpus);
  return out.str();
}

std::uint64_t resolutions(const v6::obs::Registry& registry) {
  return registry.snapshot().counter_sum("v6_pool_resolutions_total");
}

std::string seconds_str(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  return buf;
}

}  // namespace

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  // Every row re-runs the whole collection window; use a smaller world.
  config.world.total_sites =
      std::min<std::uint32_t>(config.world.total_sites, 6000);
  config.world.study_duration = std::min<util::SimDuration>(
      config.world.study_duration, 120 * util::kDay);
  bench::print_banner(
      "Distributed collection: scaling and fault recovery", config);

  const auto world = sim::World::generate(config.world);
  const util::SimTime start = 0;
  const util::SimTime end = config.world.study_duration;

  constexpr double kLoss = 0.01;  // the data planes' transit loss
  hitlist::CollectorConfig collector_cfg;
  collector_cfg.retry_limit = 2;

  // Single-process baseline the cluster must reproduce byte for byte.
  hitlist::Corpus reference(1 << 16);
  std::uint64_t reference_polls = 0;
  obs::Registry reference_registry;
  const double single_s = bench::timed_seconds("single-process", [&] {
    netsim::DataPlane plane(world, {kLoss, 1});
    netsim::PoolDns dns(world, 0.25, 0.03);
    dns.set_metrics(&reference_registry);
    hitlist::PassiveCollector collector(world, plane, dns, collector_cfg);
    collector.run(reference, start, end);
    reference_polls = collector.polls_attempted();
  });
  const std::string reference_bytes = corpus_bytes(reference);

  const auto run_cluster = [&](std::uint32_t workers, std::uint32_t kills,
                               hitlist::Corpus& out,
                               obs::Registry* registry = nullptr) {
    netsim::DataPlane plane(world, {kLoss, 1});
    netsim::PoolDns dns(world, 0.25, 0.03);
    dns.set_metrics(registry);
    dist::DistConfig dist_config;
    dist_config.workers = workers;
    dist_config.forced_kills = kills;
    dist_config.chunk_interval = 14 * util::kDay;
    dist::SimCluster cluster(world, plane, dns, collector_cfg, dist_config);
    return cluster.run(out, start, end);
  };

  bench::BenchJson json = bench::scaled_bench_json("bench_dist_collection");
  json.integer("polls_attempted", reference_polls);
  json.integer("single_process_pool_resolutions",
               resolutions(reference_registry));
  json.number("single_process_seconds", single_s);
  json.number("single_process_polls_per_sec",
              single_s > 0 ? static_cast<double>(reference_polls) / single_s
                           : 0.0);

  bool all_identical = true;

  util::TablePrinter scaling({"workers", "seconds", "polls/sec",
                              "resolutions", "leases", "uploads",
                              "vs 1 worker", "bit-identical"});
  double one_worker_s = 0.0;
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    hitlist::Corpus merged(1 << 16);
    dist::DistReport report;
    obs::Registry registry;
    const double seconds = bench::timed_seconds(
        "cluster, " + std::to_string(workers) + " workers",
        [&] { report = run_cluster(workers, 0, merged, &registry); });
    if (workers == 1) one_worker_s = seconds;
    const bool identical = corpus_bytes(merged) == reference_bytes;
    all_identical = all_identical && identical;
    const double rate =
        seconds > 0 ? static_cast<double>(report.polls_attempted) / seconds
                    : 0.0;
    scaling.add_row(
        {std::to_string(workers), seconds_str(seconds),
         util::with_commas(static_cast<std::uint64_t>(rate)),
         util::with_commas(resolutions(registry)),
         util::with_commas(report.leases_granted),
         util::with_commas(report.checkpoints_uploaded),
         one_worker_s > 0 ? util::percent(seconds / one_worker_s) : "n/a",
         identical ? "yes" : "NO — DETERMINISM BUG"});
    const std::string prefix = "workers_" + std::to_string(workers) + "_";
    json.number(prefix + "seconds", seconds);
    json.number(prefix + "polls_per_sec", rate);
    json.integer(prefix + "pool_resolutions", resolutions(registry));
    json.integer(prefix + "leases", report.leases_granted);
    json.integer(prefix + "uploads", report.checkpoints_uploaded);
    json.boolean(prefix + "bit_identical", identical);
  }
  scaling.print(std::cout);

  // Note: simulated workers run one after another on this thread, each
  // collecting one device range, so in-process wall-clock stays flat in
  // the worker count (total work does not grow) — the speedup belongs to
  // a real fleet, where the ranges run on separate machines.
  util::TablePrinter recovery({"forced kills", "deaths", "reassignments",
                               "replayed chunks", "recovery latency",
                               "bit-identical"});
  for (const std::uint32_t kills : {0u, 1u, 2u, 4u}) {
    hitlist::Corpus merged(1 << 16);
    dist::DistReport report;
    bench::timed("4 workers, " + std::to_string(kills) + " forced kills",
                 [&] { report = run_cluster(4, kills, merged); });
    const bool identical = corpus_bytes(merged) == reference_bytes;
    all_identical = all_identical && identical;
    recovery.add_row(
        {std::to_string(kills), util::with_commas(report.worker_deaths),
         util::with_commas(report.reassignments),
         util::with_commas(report.replayed_chunks),
         util::with_commas(report.recovery_latency_total) + " sim-s",
         identical ? "yes" : "NO — DETERMINISM BUG"});
    const std::string prefix = "kills_" + std::to_string(kills) + "_";
    json.integer(prefix + "deaths", report.worker_deaths);
    json.integer(prefix + "reassignments", report.reassignments);
    json.integer(prefix + "replayed_chunks", report.replayed_chunks);
    json.integer(prefix + "recovery_latency_sim_s",
                 report.recovery_latency_total);
    json.boolean(prefix + "bit_identical", identical);
  }
  recovery.print(std::cout);

  std::printf(
      "\nreading guide: the merged corpus is byte-identical to the\n"
      "single-process run on every row — worker count and worker murder\n"
      "change wall-clock and recovery counters, never the data. Recovery\n"
      "latency is cluster-clock time from each detected death to the\n"
      "lease landing on a survivor.\n");

  json.boolean("all_rows_bit_identical", all_identical);
  json.write("BENCH_dist_collection.json");
  return all_identical ? 0 : 1;
}
