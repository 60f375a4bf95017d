// Out-of-core corpus engine: ingest/merge throughput and on-disk size of
// the tiered run files versus the in-memory table, on the same seeded
// world. Exits non-zero if the spilled corpus is not byte-identical to
// the in-memory snapshot — the engine's headline invariant — or if the
// collapse sharded on a thread pool differs from the serial one.
//
// Emits BENCH_corpus.json (records/sec ingest, merge MB/s, serial and
// pooled collapse seconds, bytes per address on disk) for the
// perf-trajectory archive.
#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "bench_common.h"
#include "hitlist/corpus_io.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"
#include "util/thread_pool.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  config.collector.threads = 4;
  bench::print_banner("Out-of-core corpus: spill/merge engine", config);

  std::uint64_t budget_mib = 1;
  if (const char* raw = std::getenv("V6_BENCH_SPILL_MB")) {
    budget_mib = util::parse_dec_u64(raw).value_or(budget_mib);
  }

  core::Study study(config);
  netsim::PoolDns dns(study.world(), 0.25, config.pool_capture_share);
  // Every captured sync event steers through one resolution.
  obs::Registry dns_metrics;
  dns.set_metrics(&dns_metrics);

  // Reference: the whole corpus in one in-memory table.
  hitlist::PassiveCollector in_memory_collector(study.world(),
                                                study.plane(), dns,
                                                config.collector);
  hitlist::Corpus reference(1 << 16);
  const double in_memory_s =
      bench::timed_seconds("in-memory collection", [&] {
        in_memory_collector.run(reference, config.world.study_start,
                                config.world.study_start +
                                    config.world.study_duration);
      });

  const std::uint64_t polls = in_memory_collector.polls_attempted();
  const std::uint64_t captured_events =
      dns_metrics.snapshot().counter_sum("v6_pool_resolutions_total");

  // Out-of-core: same window, shard tables spill to sorted runs whenever
  // their combined footprint crosses the budget at a merge barrier.
  hitlist::SpillConfig spill;
  spill.memory_budget_bytes = budget_mib << 20;
  hitlist::TieredCorpus runs(spill);
  hitlist::PassiveCollector spilling_collector(study.world(),
                                               study.plane(), dns,
                                               config.collector);
  const double ingest_s = bench::timed_seconds(
      "out-of-core collection (" + std::to_string(budget_mib) +
          " MiB budget)",
      [&] {
        spilling_collector.run(runs, config.world.study_start,
                               config.world.study_start +
                                   config.world.study_duration);
      });
  const std::uint64_t observations = runs.total_observations();
  const std::uint64_t run_files = runs.run_count();
  const std::uint64_t spills = runs.stats().spills;

  // Merge throughput: one aggregating k-way pass over every run file.
  const std::uint64_t merge_input_bytes = runs.stats().disk_bytes;
  std::uint64_t merged_records = 0;
  const double merge_s = bench::timed_seconds(
      "k-way merge over " + std::to_string(run_files) + " runs",
      [&] { runs.for_each_merged([&](const auto&) { ++merged_records; }); });

  // Epoch collapse: the merged stream as one in-memory Corpus, serially
  // and sharded over segment ranges on a pool of the collector's size.
  // The two must hold the same records in the same order.
  util::ThreadPool pool(config.collector.threads.resolved());
  hitlist::Corpus serial_collapse(0);
  hitlist::Corpus pooled_collapse(0);
  const double serial_collapse_s = bench::timed_seconds(
      "collapse, serial", [&] { serial_collapse = runs.collapse(); });
  const double pooled_collapse_s = bench::timed_seconds(
      "collapse, " + std::to_string(pool.thread_count()) + "-thread pool",
      [&] { pooled_collapse = runs.collapse({}, &pool); });
  const auto same_record = [](const hitlist::AddressRecord& a,
                              const hitlist::AddressRecord& b) {
    return a.address == b.address && a.first_seen == b.first_seen &&
           a.last_seen == b.last_seen && a.count == b.count &&
           a.vantage_mask == b.vantage_mask;
  };
  const bool collapse_identical =
      serial_collapse.total_observations() ==
          pooled_collapse.total_observations() &&
      std::ranges::equal(serial_collapse.records(), pooled_collapse.records(),
                         same_record);

  // On-disk footprint of the *corpus* (not the spill backlog): compact
  // to a single run so duplicate addresses across spills are aggregated,
  // then compare bytes per unique address against the in-memory table.
  bench::timed("compaction", [&] { runs.compact(); });
  const std::uint64_t disk_bytes = runs.stats().disk_bytes;
  const double disk_bpa =
      merged_records > 0
          ? static_cast<double>(disk_bytes) /
                static_cast<double>(merged_records)
          : 0.0;
  const double memory_bpa =
      reference.size() > 0
          ? static_cast<double>(reference.memory_bytes()) /
                static_cast<double>(reference.size())
          : 0.0;

  // The invariant everything above rests on: identical snapshot bytes.
  std::ostringstream from_memory, from_disk;
  hitlist::save_corpus(from_memory, reference);
  runs.save(from_disk);
  const bool identical = from_memory.str() == from_disk.str();

  const double ingest_rate =
      ingest_s > 0 ? static_cast<double>(observations) / ingest_s : 0.0;
  const double merge_rate =
      merge_s > 0 ? static_cast<double>(merged_records) / merge_s : 0.0;
  const double merge_mbps =
      merge_s > 0 ? static_cast<double>(merge_input_bytes) /
                        (merge_s * 1024.0 * 1024.0)
                  : 0.0;

  bench::Comparison comparison;
  comparison.row("unique addresses", "7.9B (paper)",
                 util::with_commas(merged_records));
  comparison.row("spills / run files", "-",
                 std::to_string(spills) + " / " +
                     std::to_string(run_files));
  comparison.row("ingest rate", "-",
                 util::with_commas(static_cast<std::uint64_t>(
                     ingest_rate)) +
                     " obs/s");
  comparison.row("merge rate", "-",
                 util::with_commas(static_cast<std::uint64_t>(
                     merge_rate)) +
                     " rec/s");
  comparison.row("disk bytes per address", "<= 8 (target)",
                 std::to_string(disk_bpa));
  comparison.row("in-memory bytes per address", "32 + index",
                 std::to_string(memory_bpa));
  comparison.row("snapshot bytes identical", "yes",
                 identical ? "yes" : "NO — DETERMINISM BUG");
  comparison.row("pooled collapse identical", "yes",
                 collapse_identical ? "yes" : "NO — DETERMINISM BUG");
  comparison.print();

  // The <= 8 target presumes structured IIDs. On this world most corpus
  // addresses are RFC 4941 privacy addresses whose random 64-bit IIDs
  // are incompressible, so the honest floor is ~1 (tag) + ~8 (IID) +
  // ~4 (first_seen) bytes; report the fraction so the JSON records why.
  std::uint64_t full_entropy = 0;
  for (const auto& rec : reference.records()) {
    if (rec.address.lo64() >= (std::uint64_t{1} << 56)) ++full_entropy;
  }
  const double full_entropy_share =
      reference.size() > 0 ? static_cast<double>(full_entropy) /
                                 static_cast<double>(reference.size())
                           : 0.0;
  std::printf("full-entropy IIDs (>= 2^56): %.1f%% of addresses — the\n"
              "<= 8 B/addr target is reachable only for structured-IID "
              "populations\n",
              100.0 * full_entropy_share);

  bench::BenchJson json = bench::scaled_bench_json("bench_corpus_spill");
  json.integer("spill_budget_mib", budget_mib);
  json.integer("unique_addresses", merged_records);
  json.integer("observations", observations);
  json.integer("spills", spills);
  json.integer("run_files", run_files);
  json.integer("polls", polls);
  json.integer("captured_events", captured_events);
  json.number("in_memory_collect_seconds", in_memory_s);
  json.number("collect_polls_per_sec",
              static_cast<double>(polls) / std::max(in_memory_s, 1e-9));
  json.number("out_of_core_collect_seconds", ingest_s);
  json.number("ingest_records_per_sec", ingest_rate);
  json.number("merge_seconds", merge_s);
  json.number("merge_records_per_sec", merge_rate);
  json.number("merge_mb_per_sec", merge_mbps);
  json.number("serial_collapse_seconds", serial_collapse_s);
  json.number("pooled_collapse_seconds", pooled_collapse_s);
  json.boolean("collapse_identical", collapse_identical);
  json.integer("disk_bytes", disk_bytes);
  json.number("disk_bytes_per_address", disk_bpa);
  json.number("in_memory_bytes_per_address", memory_bpa);
  json.number("full_entropy_iid_share", full_entropy_share);
  json.boolean("snapshot_bit_identical", identical);
  json.write("BENCH_corpus.json");

  return identical && collapse_identical ? 0 : 1;
}
