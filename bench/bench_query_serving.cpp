// Hitlist-as-a-service: mixed read/ingest throughput of the epoch-snapshot
// QueryService, with the per-epoch bit-identity gate checked on every row.
//
// Grid: reader threads {1, 2, 4, 8} hammer point//48-density//64-entropy/
// OUI-risk queries while stage-1 collection ingests live on a background
// thread, swapping a new immutable snapshot at every epoch barrier. After
// ingest joins, a pure-read phase measures lookups/sec against the frozen
// final epoch (the millions-of-lookups/sec headline). For every reader
// count the published (epoch, as_of, records, digest) sequence must be
// bit-identical to the 1-reader reference — readers can never perturb
// what gets served — and the bench exits nonzero if any row differs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scan_source.h"
#include "bench_common.h"
#include "net/eui64.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace v6;

struct EpochRow {
  std::uint64_t epoch = 0;
  util::SimTime as_of = 0;
  std::uint64_t records = 0;
  std::uint64_t digest = 0;
  bool operator==(const EpochRow&) const = default;
};

std::vector<EpochRow> epoch_rows(const serve::QueryService& service) {
  std::vector<EpochRow> rows;
  for (const auto& snap : service.retained()) {
    rows.push_back({snap->epoch(), snap->as_of(), snap->records(),
                    snap->digest()});
  }
  return rows;
}

core::RunOptions serve_options(util::SimDuration epoch_interval) {
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.serve.enabled = true;
  options.serve.epoch_interval = epoch_interval;
  options.serve.retain_epochs = 64;
  return options;
}

// One reader's deterministic query mix: seeded per (reader, iteration), a
// rotation of the four query families over pseudorandom keys. Throughput
// is dominated by the binary searches, which cost the same for hits and
// misses.
std::uint64_t run_reader(const serve::QueryService& service,
                         std::uint64_t seed,
                         const std::atomic<bool>& done) {
  util::Rng rng(seed);
  std::uint64_t issued = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto snap = service.current();
    if (!snap) continue;
    // Epoch-pinned batch: one pointer pin amortized over 64 queries.
    for (int i = 0; i < 16; ++i) {
      const net::Ipv6Address probe =
          net::Ipv6Address::from_u64(rng.next(), rng.next());
      (void)snap->contains(probe);
      (void)snap->slash48_density(probe);
      (void)snap->slash64(probe);
      (void)snap->oui_risk(net::Oui(static_cast<std::uint32_t>(
          rng.next() & 0xffffff)));
      issued += 4;
    }
    service.count_queries(serve::QueryKind::kPoint, 16);
    service.count_queries(serve::QueryKind::kDensity48, 16);
    service.count_queries(serve::QueryKind::kEntropy64, 16);
    service.count_queries(serve::QueryKind::kOuiRisk, 16);
  }
  return issued;
}

}  // namespace

int main() {
  auto config = bench::bench_config();
  // Every row re-runs the full collection window; use a smaller world.
  config.world.total_sites =
      std::min<std::uint32_t>(config.world.total_sites, 4000);
  config.world.study_duration = std::min<util::SimDuration>(
      config.world.study_duration, 120 * util::kDay);
  bench::print_banner("Query serving: epochs under live ingest", config);

  const util::SimDuration epoch_interval = std::max<util::SimDuration>(
      config.world.study_duration / 6, util::kDay);

  bench::BenchJson json = bench::scaled_bench_json("bench_query_serving");
  // BenchJson already records the requested env scale; these are the
  // values after this bench's own caps.
  json.integer("capped_sites", config.world.total_sites);
  json.integer("capped_days",
               static_cast<std::uint64_t>(config.world.study_duration /
                                          util::kDay));
  json.integer("epoch_interval_days",
               static_cast<std::uint64_t>(epoch_interval / util::kDay));

  std::vector<EpochRow> reference;
  bool all_identical = true;
  double best_read_qps = 0;

  for (const unsigned readers : {1u, 2u, 4u, 8u}) {
    core::Study study(config);
    serve::QueryService& service = study.query_service();

    std::atomic<bool> done{false};
    const auto t0 = std::chrono::steady_clock::now();
    std::thread ingest([&] {
      study.run(serve_options(epoch_interval));
      done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> pool;
    std::vector<std::uint64_t> issued(readers, 0);
    for (unsigned r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        issued[r] = run_reader(service, 0x5e8ef + r, done);
      });
    }
    ingest.join();
    for (auto& t : pool) t.join();
    const double mixed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::uint64_t mixed_queries = 0;
    for (const std::uint64_t n : issued) mixed_queries += n;

    // Identity gate: the served epoch sequence is a pure function of the
    // study, never of the reader schedule racing it.
    const std::vector<EpochRow> rows = epoch_rows(service);
    if (readers == 1) reference = rows;
    const bool identical = rows == reference;
    all_identical = all_identical && identical;

    // Pure-read phase: the frozen final epoch, fixed total volume.
    const auto snap = service.current();
    constexpr std::uint64_t kReadTotal = 2'000'000;
    const std::uint64_t per_thread = kReadTotal / readers;
    const auto r0 = std::chrono::steady_clock::now();
    std::vector<std::thread> readers_only;
    for (unsigned r = 0; r < readers; ++r) {
      readers_only.emplace_back([&, r] {
        util::Rng rng(0xbeef + r);
        for (std::uint64_t i = 0; i < per_thread / 4; ++i) {
          const net::Ipv6Address probe =
              net::Ipv6Address::from_u64(rng.next(), rng.next());
          (void)snap->contains(probe);
          (void)snap->slash48_density(probe);
          (void)snap->slash64(probe);
          (void)snap->oui_risk(net::Oui(static_cast<std::uint32_t>(
              rng.next() & 0xffffff)));
        }
      });
    }
    for (auto& t : readers_only) t.join();
    const double read_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
            .count();
    const double read_qps_total =
        read_s > 0 ? static_cast<double>((per_thread / 4) * 4 * readers) /
                         read_s
                   : 0;
    best_read_qps = std::max(best_read_qps, read_qps_total);

    std::printf(
        "readers %u: %llu epochs, %s mixed queries in %.2fs (%.2fM q/s "
        "during ingest), pure-read %.2fM q/s, identity %s\n",
        readers, static_cast<unsigned long long>(service.epochs_published()),
        util::with_commas(mixed_queries).c_str(), mixed_s,
        mixed_s > 0 ? static_cast<double>(mixed_queries) / mixed_s / 1e6 : 0,
        read_qps_total / 1e6, identical ? "ok" : "FAIL");

    char key[64];
    std::snprintf(key, sizeof(key), "readers_%u_mixed_per_sec", readers);
    json.number(key, mixed_s > 0
                         ? static_cast<double>(mixed_queries) / mixed_s
                         : 0);
    std::snprintf(key, sizeof(key), "readers_%u_read_per_sec", readers);
    json.number(key, read_qps_total);
    std::snprintf(key, sizeof(key), "readers_%u_bit_identical", readers);
    json.boolean(key, identical);

    if (readers == 1) {
      json.integer("epochs", service.epochs_published());
      json.integer("final_records", rows.empty() ? 0 : rows.back().records);
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    rows.empty() ? 0ull
                                 : static_cast<unsigned long long>(
                                       rows.back().digest));
      json.text("final_digest", digest);
      const auto current = service.current();
      json.integer("slash48_keys", current ? current->slash48_count() : 0);
      json.integer("slash64_keys", current ? current->slash64_count() : 0);
      json.integer("oui_keys", current ? current->oui_count() : 0);
      json.integer("snapshot_bytes", current ? current->memory_bytes() : 0);

      // Serve-side latency percentiles: a fixed query volume through the
      // service entry points, each call timed on its own. The service's
      // v6_serve_latency_us histogram cannot resolve these queries (its
      // first bucket is 0-0.25 us and every call lands in it), so the
      // percentiles come from the raw wall samples, nearest rank. Each
      // sample includes the cost of one clock read. They are wall-clock;
      // the "wall" in the key names keeps them out of bench_diff's
      // deterministic-key set.
      util::Rng lat_rng(0x1a7e);
      constexpr std::uint64_t kLatencyQueries = 20'000;
      // Keyed by the v6_serve_latency_us kind label, in its sorted order.
      std::map<std::string, util::EmpiricalDistribution> wall_us;
      const auto timed = [&wall_us](const char* kind, const auto& query) {
        const auto q0 = std::chrono::steady_clock::now();
        query();
        wall_us[kind].add(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - q0)
                              .count());
      };
      for (std::uint64_t i = 0; i < kLatencyQueries; ++i) {
        const net::Ipv6Address probe =
            net::Ipv6Address::from_u64(lat_rng.next(), lat_rng.next());
        const net::Oui oui(
            static_cast<std::uint32_t>(lat_rng.next() & 0xffffff));
        timed("point", [&] { (void)service.point(probe); });
        timed("density48", [&] { (void)service.slash48_density(probe); });
        timed("entropy64", [&] { (void)service.slash64_entropy(probe); });
        timed("oui", [&] { (void)service.oui_risk(oui); });
      }
      json.integer("latency_queries_per_kind", kLatencyQueries);
      for (const auto& [kind, samples] : wall_us) {
        const double p50 = samples.quantile(0.50);
        const double p90 = samples.quantile(0.90);
        const double p99 = samples.quantile(0.99);
        std::printf(
            "serve latency %-9s p50 %.3fus p90 %.3fus p99 %.3fus "
            "(%zu calls)\n",
            kind.c_str(), p50, p90, p99, samples.count());
        char key[64];
        std::snprintf(key, sizeof(key), "latency_%s_p50_wall_us",
                      kind.c_str());
        json.number(key, p50);
        std::snprintf(key, sizeof(key), "latency_%s_p90_wall_us",
                      kind.c_str());
        json.number(key, p90);
        std::snprintf(key, sizeof(key), "latency_%s_p99_wall_us",
                      kind.c_str());
        json.number(key, p99);
      }
    }
  }

  json.boolean("all_bit_identical", all_identical);
  json.number("best_read_per_sec", best_read_qps);
  json.write("BENCH_query_serving.json");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: served epochs differ across reader thread counts\n");
    return 1;
  }
  std::printf("per-epoch answers bit-identical at every reader count\n");
  return 0;
}
