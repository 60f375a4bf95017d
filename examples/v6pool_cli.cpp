// v6pool_cli — a small command-line driver for the library, the sort of
// entry point a downstream user scripts against.
//
//   v6pool_cli world  [--sites N] [--seed S]
//       generate a world and print its inventory
//   v6pool_cli study  [--sites N] [--days D] [--seed S] [--threads T]
//                     [--memory-budget-mb M] [--spill-dir DIR]
//                     [--release FILE] [--metrics-out FILE]
//                     [--metrics-format prom|json]
//                     [--sample-days D] [--timeline-out FILE]
//                     [--timeline-format jsonl|csv] [--trace-out FILE]
//       run every stage and print the headline numbers; --threads T runs
//       the analysis scans on T threads (0 = all cores, results are
//       bit-identical at any count); --memory-budget-mb M runs the
//       collection out-of-core, spilling shard tables to sorted run files
//       (in --spill-dir, or a temp directory) whenever they cross M MiB —
//       every number printed is bit-identical to the in-memory run;
//       optionally write the /48-aggregated release (k-anonymity floor 3)
//       to FILE, and/or the study's metrics snapshot (Prometheus text by
//       default) to --metrics-out.
//       --sample-days D turns on sim-time timeline sampling every D days;
//       --timeline-out writes the sampled WindowRecords (JSONL default),
//       --trace-out writes a Chrome trace-event file (chrome://tracing /
//       Perfetto) of the study's stage spans plus sampling windows
//       The study subcommand also fronts distributed collection:
//       --collect-only runs stage 1 alone (for snapshot diffing);
//       --dist-workers N simulates an N-worker coordinator/worker cluster
//       that leases device ranges (bit-identical to the single-process
//       run, also with --memory-budget-mb); --dist-kills K kills
//       exactly K workers mid-run to exercise recovery; --frames-out
//       writes the V6DIST02 frame log (lint-dist input).
//   v6pool_cli query --corpus FILE [--addr A] [--p48 A] [--p64 A]
//                    [--oui O] [--queries FILE]
//       load a V6CORP snapshot into the serving layer (one epoch) and
//       answer point / /48-density / /64-entropy / per-OUI EUI-64-risk
//       queries; --queries FILE runs one `kind arg` query per line
//   v6pool_cli serve [--sites N] [--days D] [--seed S] [--threads T]
//                    [--memory-budget-mb M] [--epoch-days E]
//                    [--retain-epochs R] [--addr A] [--p48 A] [--p64 A]
//                    [--oui O] [--queries FILE]
//       run stage 1 with the hitlist-as-a-service layer on: the collector
//       publishes an immutable epoch snapshot every E sim-days (plus the
//       final window-end epoch), prints one line per retained epoch
//       (records, table sizes, answer digest), then answers the given
//       queries against the final epoch
//   v6pool_cli coordinator --dir D [--workers N] [--ranges R]
//                          [--chunk-days C] [--heartbeat-timeout-ms MS]
//                          [--save-corpus FILE] [--sites N] [--days D]
//                          [--seed S]
//       real multi-process mode: drive worker processes sharing --dir,
//       merge their artifacts, optionally save the merged corpus
//   v6pool_cli worker --dir D --id I [--chunk-delay-ms MS] [--sites N]
//                     [--days D] [--seed S]
//       one worker process; run N of these against one coordinator
//   v6pool_cli lint-metrics FILE
//       validate a Prometheus text exposition file (exit 0 iff clean)
//   v6pool_cli lint-timeline FILE
//       validate a JSONL timeline file (exit 0 iff clean)
//   v6pool_cli lint-trace FILE
//       validate a Chrome trace-event JSON file (exit 0 iff clean)
//   v6pool_cli lint-dist FILE
//       validate a V6DIST02 frame log (exit 0 iff clean)
//   v6pool_cli obs-report [study flags] [--query-count Q] [--out FILE]
//       run stage 1 with serving + timeline sampling, drive a
//       deterministic query workload, and emit the unified run-report
//       JSON (config digest, kernel backend, metric totals, serve-side
//       latency percentiles, epoch digests, timeline pointer); with
//       --dist-workers also aggregates per-worker kObsReport frames and
//       honors the --cluster-*-out artifact flags
//   v6pool_cli lint-report FILE
//       validate a v6pool_run_report JSON artifact (exit 0 iff clean)
//
// Every subcommand also accepts --kernels scalar|auto, pinning the
// batch-kernel backend for the process (auto picks the best SIMD tier
// the CPU supports; results are bit-identical either way). Setting
// V6_FORCE_SCALAR=1 in the environment pins scalar even over --kernels.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <vector>

#include "analysis/dataset_compare.h"
#include "analysis/eui64_tracking.h"
#include "analysis/scan_source.h"
#include "core/study.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "hitlist/corpus_io.h"
#include "hitlist/release.h"
#include "kernels/dispatch.h"
#include "obs/cluster.h"
#include "obs/exposition.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"
#include "util/strings.h"

namespace {

using namespace v6;

[[noreturn]] void die_flag(const char* name, const char* value,
                           const std::string& why) {
  std::fprintf(stderr, "v6pool_cli: bad value '%s' for %s: %s\n", value, name,
               why.c_str());
  std::exit(2);
}

// A numeric flag. Absent -> fallback; present but unparseable or above
// `max` -> loud exit(2) naming the flag. Never silently defaults a typo'd
// value: a study quietly run at the wrong scale is the worst failure mode
// a CLI can have.
std::uint64_t flag_u64(
    int argc, char** argv, const char* name, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      const auto parsed = util::parse_dec_u64(argv[i + 1]);
      if (!parsed) {
        die_flag(name, argv[i + 1], "expected a non-negative integer");
      }
      if (*parsed > max) {
        die_flag(name, argv[i + 1],
                 "exceeds the maximum of " + std::to_string(max));
      }
      return *parsed;
    }
  }
  return fallback;
}

// Flags that land in 32-bit config fields: same contract, range-checked
// here instead of silently truncated by a narrowing cast at the call site.
std::uint32_t flag_u32(int argc, char** argv, const char* name,
                       std::uint32_t fallback) {
  return static_cast<std::uint32_t>(
      flag_u64(argc, argv, name, fallback,
               std::numeric_limits<std::uint32_t>::max()));
}

// Day-count flags: bounded before the * kDay multiply so an oversized
// value cannot wrap the int64 sim clock (previously it silently did).
util::SimDuration flag_days(int argc, char** argv, const char* name,
                            std::uint64_t fallback_days) {
  constexpr std::uint64_t kMaxDays = 36'500'000;  // 100k years of sim time
  return static_cast<util::SimDuration>(
             flag_u64(argc, argv, name, fallback_days, kMaxDays)) *
         util::kDay;
}

const char* flag_str(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// --kernels scalar|auto pins (or re-enables) the batch-kernel backend for
// the whole process, every subcommand. Same contract as the numeric
// flags: an unknown value exits 2 naming the flag, never silently runs
// with a backend the user did not ask for. The V6_FORCE_SCALAR env pin
// still wins over --kernels auto (see kernels::resolve_backend).
void apply_kernels_flag(int argc, char** argv) {
  const char* value = flag_str(argc, argv, "--kernels");
  if (value == nullptr) return;
  if (std::strcmp(value, "scalar") == 0) {
    kernels::force_backend(kernels::Backend::kScalar);
  } else if (std::strcmp(value, "auto") == 0) {
    kernels::force_backend(std::nullopt);
  } else {
    die_flag("--kernels", value, "expected 'scalar' or 'auto'");
  }
}

// The shared simulation knobs. Every process of a distributed run — the
// coordinator, each worker, and the single-process reference — must build
// its StudyConfig through this one function from the same flags, because
// bit-identity rests on all of them simulating the same world.
core::StudyConfig build_study_config(int argc, char** argv) {
  core::StudyConfig config;
  config.world.total_sites = flag_u32(argc, argv, "--sites", 5000);
  config.world.seed = flag_u64(argc, argv, "--seed", 42);
  config.world.study_duration = flag_days(argc, argv, "--days", 120);
  config.backscan_start = config.world.study_duration + 26 * util::kDay;
  config.hitlist_campaign.duration = std::max<util::SimDuration>(
      config.world.study_duration - 25 * util::kDay, 4 * util::kWeek);
  config.caida_campaign.duration =
      std::min<util::SimDuration>(62 * util::kDay,
                                  config.world.study_duration);
  config.analysis.threads = flag_u32(argc, argv, "--threads", 1);
  // Collection shards per process (0 = every core); any count collects
  // the identical corpus.
  config.collector.threads = flag_u32(argc, argv, "--collector-threads", 0);
  if (const std::uint64_t budget_mb =
          flag_u64(argc, argv, "--memory-budget-mb", 0, 1ull << 34);
      budget_mb > 0) {
    config.spill.memory_budget_bytes =
        static_cast<std::size_t>(budget_mb) << 20;
    if (const char* dir = flag_str(argc, argv, "--spill-dir")) {
      config.spill.directory = dir;
    }
  }
  return config;
}

// FNV-1a over the canonical config string: the run report's config digest,
// so two reports are comparable iff they describe the same simulation.
std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Writes the cluster-observability artifacts of a distributed run:
// --cluster-metrics-out (aggregated Prometheus exposition),
// --cluster-timeline-out (merged per-worker JSONL windows), and
// --cluster-trace-out (multi-lane Chrome trace, one pid lane per worker
// report). Returns 0, or 1 on an unopenable path.
int write_cluster_artifacts(int argc, char** argv,
                            const obs::ClusterAggregator& cluster) {
  if (const char* path = flag_str(argc, argv, "--cluster-metrics-out")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    const obs::Snapshot merged = cluster.cluster_snapshot();
    out << obs::render(merged, obs::ExpositionFormat::kPrometheus);
    std::printf("cluster metrics : %zu samples -> %s (prom)\n",
                merged.samples.size(), path);
  }
  if (const char* path = flag_str(argc, argv, "--cluster-timeline-out")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << cluster.render_cluster_timeline();
    std::printf("cluster timeline: %zu windows -> %s (jsonl)\n",
                cluster.cluster_timeline().size(), path);
  }
  if (const char* path = flag_str(argc, argv, "--cluster-trace-out")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << cluster.render_trace();
    std::printf("cluster trace   : %zu lanes -> %s (chrome://tracing)\n",
                cluster.report_count(), path);
  }
  return 0;
}

int cmd_world(int argc, char** argv) {
  sim::WorldConfig config;
  config.total_sites = flag_u32(argc, argv, "--sites", 5000);
  config.seed = flag_u64(argc, argv, "--seed", 42);
  const auto world = sim::World::generate(config);

  std::printf("world seed %llu\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("  countries : %zu\n", world.countries().size());
  std::printf("  ASes      : %zu\n", world.ases().size());
  std::printf("  sites     : %zu\n", world.sites().size());
  std::printf("  devices   : %zu\n", world.devices().size());
  std::printf("  vantages  : %zu\n", world.vantages().size());
  std::printf("  wardriven access points: %zu\n", world.wardriving().size());

  std::uint64_t pool_users = 0, eui64 = 0;
  for (const auto& dev : world.devices()) {
    pool_users += dev.ntp.uses_pool;
    eui64 += dev.strategy == sim::IidStrategy::kEui64;
  }
  std::printf("  NTP pool users: %s, EUI-64 devices: %s\n",
              util::with_commas(pool_users).c_str(),
              util::with_commas(eui64).c_str());
  return 0;
}

int cmd_study(int argc, char** argv) {
  core::StudyConfig config = build_study_config(argc, argv);
  const bool collect_only = flag_set(argc, argv, "--collect-only");

  core::RunOptions options;
  options.sample_interval = flag_days(argc, argv, "--sample-days", 0);
  if (collect_only) {
    options.campaigns = false;
    options.backscan = false;
    options.analysis = false;
  }
  if (const std::uint32_t workers = flag_u32(argc, argv, "--dist-workers", 0);
      workers > 0) {
    dist::DistConfig dist_config;
    dist_config.workers = workers;
    dist_config.forced_kills = flag_u32(argc, argv, "--dist-kills", 0);
    dist_config.chunk_interval = flag_days(argc, argv, "--dist-chunk-days", 7);
    options.distributed = dist_config;
  }

  std::printf("running study: %u sites, %lld days, seed %llu\n",
              config.world.total_sites,
              static_cast<long long>(config.world.study_duration / util::kDay),
              static_cast<unsigned long long>(config.world.seed));
  core::Study study(config);
  const auto& r = study.run(std::move(options));

  std::printf("\nNTP corpus    : %s addresses (%s polls, %s answered)\n",
              util::with_commas(study.ntp_size()).c_str(),
              util::with_commas(r.polls_attempted).c_str(),
              util::with_commas(r.polls_answered).c_str());
  if (r.dist) {
    std::printf("distributed   : %u workers over %u device ranges, "
                "%s leases, %s deaths, %s reassignments, "
                "%s stale uploads rejected\n",
                r.dist->workers, r.dist->ranges,
                util::with_commas(r.dist->leases_granted).c_str(),
                util::with_commas(r.dist->worker_deaths).c_str(),
                util::with_commas(r.dist->reassignments).c_str(),
                util::with_commas(r.dist->stale_uploads_rejected).c_str());
  }
  if (!collect_only) {
    const auto& ntp = r.analysis.table1.front();
    std::printf("table 1       : %s addresses in %s ASNs, %s /48s\n",
                util::with_commas(ntp.addresses).c_str(),
                util::with_commas(ntp.asns).c_str(),
                util::with_commas(ntp.slash48s).c_str());
    std::printf("IPv6 Hitlist  : %s addresses (%s aliased prefixes known)\n",
                util::with_commas(r.hitlist.corpus.size()).c_str(),
                util::with_commas(r.hitlist.aliased_prefixes.size()).c_str());
    std::printf("CAIDA /48     : %s addresses\n",
                util::with_commas(r.caida.corpus.size()).c_str());
    std::printf("backscan      : %s clients probed, %s responded\n",
                util::with_commas(r.backscan.clients_probed).c_str(),
                util::with_commas(r.backscan.clients_responded).c_str());

    std::printf("lifetimes     : %.1f%% of addresses seen once, %.2f%% live "
                "a month or more\n",
                100.0 * r.analysis.address_lifetimes.fraction_once,
                100.0 * r.analysis.address_lifetimes.fraction_month);
    // Stages sharing one corpus pass report that pass's wall time each, so
    // records are summed per stage (= kernel steps) but time is not.
    std::uint64_t analysis_steps = 0;
    for (const auto& stage : r.analysis.stage_stats) {
      analysis_steps += stage.records;
    }
    std::printf("analysis      : %zu stages, %s kernel steps on %u thread%s\n",
                r.analysis.stage_stats.size(),
                util::with_commas(analysis_steps).c_str(),
                config.analysis.resolved_threads(),
                config.analysis.resolved_threads() == 1 ? "" : "s");
  }

  // Out-of-core runs leave r.ntp empty. The analyses above streamed the
  // merged runs; the extras below (EUI-64 tracking, the /48 release)
  // still want an in-memory view, so collapse the runs once here.
  hitlist::Corpus collapsed(1);
  const hitlist::Corpus* ntp_corpus = &r.ntp;
  if (r.ntp_runs != nullptr) {
    const auto& stats = r.ntp_runs->stats();
    std::printf("out-of-core   : %s spills, %zu run file%s, %s bytes on "
                "disk\n",
                util::with_commas(stats.spills).c_str(),
                r.ntp_runs->run_count(),
                r.ntp_runs->run_count() == 1 ? "" : "s",
                util::with_commas(stats.disk_bytes).c_str());
    collapsed = r.ntp_runs->collapse();
    ntp_corpus = &collapsed;
  }

  analysis::Eui64Tracker tracker(*ntp_corpus, study.world());
  std::printf("privacy       : %s EUI-64 addresses, %s embedded MACs, %s "
              "trackable\n",
              util::with_commas(tracker.eui64_addresses()).c_str(),
              util::with_commas(tracker.unique_macs()).c_str(),
              util::with_commas(tracker.trackable_macs()).c_str());

  if (const char* path = flag_str(argc, argv, "--save-corpus")) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    const auto bytes = study.save_ntp(out);
    std::printf("corpus        : %s bytes -> %s (binary snapshot)\n",
                util::with_commas(bytes).c_str(), path);
  }
  if (const char* path = flag_str(argc, argv, "--frames-out")) {
    if (!r.dist) {
      std::fprintf(stderr,
                   "--frames-out needs --dist-workers N to produce a "
                   "frame log\n");
      return 1;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out.write(reinterpret_cast<const char*>(r.dist->frame_log.data()),
              static_cast<std::streamsize>(r.dist->frame_log.size()));
    std::printf("frames        : %s bytes -> %s (V6DIST02 log)\n",
                util::with_commas(r.dist->frame_log.size()).c_str(), path);
  }
  if (r.dist) {
    std::printf("cluster obs   : %zu worker reports aggregated\n",
                r.dist->cluster_obs.report_count());
    if (const int rc = write_cluster_artifacts(argc, argv, r.dist->cluster_obs);
        rc != 0) {
      return rc;
    }
  } else if (flag_str(argc, argv, "--cluster-metrics-out") != nullptr ||
             flag_str(argc, argv, "--cluster-timeline-out") != nullptr ||
             flag_str(argc, argv, "--cluster-trace-out") != nullptr) {
    std::fprintf(stderr,
                 "--cluster-*-out needs --dist-workers N to produce "
                 "cluster observability\n");
    return 1;
  }
  if (const char* path = flag_str(argc, argv, "--release")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    const auto rows = hitlist::aggregate_to_slash48(*ntp_corpus);
    hitlist::write_release(out, rows, /*min_count=*/3);
    std::printf("release       : %zu /48 rows -> %s (k-anonymity floor 3)\n",
                rows.size(), path);
  }
  if (const char* path = flag_str(argc, argv, "--metrics-out")) {
    const char* fmt_name = flag_str(argc, argv, "--metrics-format");
    const auto format = obs::parse_format(fmt_name ? fmt_name : "prom");
    if (!format) {
      std::fprintf(stderr, "unknown metrics format '%s' (prom|json)\n",
                   fmt_name);
      return 1;
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << obs::render(r.metrics, *format);
    std::printf("metrics       : %zu samples, %zu spans -> %s (%.*s)\n",
                r.metrics.samples.size(), r.metrics.spans.size(), path,
                static_cast<int>(obs::format_suffix(*format).size()),
                obs::format_suffix(*format).data());
  }
  if (const char* path = flag_str(argc, argv, "--timeline-out")) {
    if (r.timeline.empty()) {
      std::fprintf(stderr,
                   "--timeline-out needs --sample-days D (D > 0) to "
                   "produce any windows\n");
      return 1;
    }
    const char* fmt_name = flag_str(argc, argv, "--timeline-format");
    const auto format =
        obs::parse_timeline_format(fmt_name ? fmt_name : "jsonl");
    if (!format) {
      std::fprintf(stderr, "unknown timeline format '%s' (jsonl|csv)\n",
                   fmt_name);
      return 1;
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << obs::render_timeline(r.timeline, *format);
    std::printf("timeline      : %zu windows -> %s (%.*s)\n",
                r.timeline.size(), path,
                static_cast<int>(obs::timeline_format_suffix(*format).size()),
                obs::timeline_format_suffix(*format).data());
  }
  if (const char* path = flag_str(argc, argv, "--trace-out")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << obs::render_trace_events(r.metrics, r.timeline);
    std::printf("trace         : %zu spans, %zu windows -> %s "
                "(chrome://tracing)\n",
                r.metrics.spans.size(), r.timeline.size(), path);
  }
  return 0;
}

int cmd_coordinator(int argc, char** argv) {
  const char* dir = flag_str(argc, argv, "--dir");
  if (dir == nullptr) {
    std::fprintf(stderr, "usage: v6pool_cli coordinator --dir D ...\n");
    return 1;
  }
  const core::StudyConfig study_config = build_study_config(argc, argv);
  dist::CoordinatorConfig config;
  config.dir = dir;
  config.workers = flag_u32(argc, argv, "--workers", 4);
  config.ranges = flag_u32(argc, argv, "--ranges", 0);
  // Leases cut the world's devices into ranges; every process builds the
  // same world from the shared study flags.
  config.devices = sim::World::generate(study_config.world).devices().size();
  config.chunk_interval = flag_days(argc, argv, "--chunk-days", 7);
  config.heartbeat_timeout_ms =
      flag_u32(argc, argv, "--heartbeat-timeout-ms", 10000);
  config.max_wall_ms = flag_u32(argc, argv, "--max-wall-ms", 600000);

  const util::SimTime start = study_config.world.study_start;
  const util::SimTime end = start + study_config.world.study_duration;
  std::printf("coordinator: %u workers, dir %s, window [%lld, %lld)\n",
              config.workers, dir, static_cast<long long>(start),
              static_cast<long long>(end));
  dist::Coordinator coordinator(config);
  const dist::CoordinatorResult result = coordinator.run(start, end);

  std::printf("merged corpus : %s addresses (%s polls, %s answered)\n",
              util::with_commas(result.corpus.size()).c_str(),
              util::with_commas(result.polls_attempted).c_str(),
              util::with_commas(result.polls_answered).c_str());
  std::printf("fleet         : %s leases, %s uploads, %s deaths, "
              "%s reassignments, %s stale rejected\n",
              util::with_commas(result.leases_granted).c_str(),
              util::with_commas(result.checkpoints_uploaded).c_str(),
              util::with_commas(result.worker_deaths).c_str(),
              util::with_commas(result.reassignments).c_str(),
              util::with_commas(result.stale_uploads_rejected).c_str());
  std::printf("cluster obs   : %zu worker reports aggregated\n",
              result.cluster_obs.report_count());
  if (const int rc = write_cluster_artifacts(argc, argv, result.cluster_obs);
      rc != 0) {
    return rc;
  }
  if (const char* path = flag_str(argc, argv, "--save-corpus")) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    const auto bytes = hitlist::save_corpus(out, result.corpus);
    std::printf("corpus        : %s bytes -> %s (binary snapshot)\n",
                util::with_commas(bytes).c_str(), path);
  }
  return 0;
}

int cmd_worker(int argc, char** argv) {
  const char* dir = flag_str(argc, argv, "--dir");
  if (dir == nullptr) {
    std::fprintf(stderr, "usage: v6pool_cli worker --dir D --id I ...\n");
    return 1;
  }
  const core::StudyConfig study_config = build_study_config(argc, argv);
  // Constructing the Study builds the identical world / data plane / DNS
  // stack every other process of this run builds — the worker only ever
  // reads from it under lease.
  core::Study study(study_config);

  dist::NodeEnv env;
  env.world = &study.world();
  env.plane = &study.plane();
  env.dns = &study.pool_dns();
  env.collector = study.config().collector;
  env.start = study_config.world.study_start;
  env.end = env.start + study_config.world.study_duration;

  dist::WorkerConfig config;
  config.dir = dir;
  config.id = flag_u32(argc, argv, "--id", 1);
  config.chunk_delay_ms = flag_u32(argc, argv, "--chunk-delay-ms", 0);
  config.max_idle_ms = flag_u32(argc, argv, "--max-idle-ms", 600000);

  std::printf("worker %u: dir %s\n", config.id, dir);
  dist::Worker worker(env, config);
  worker.run();
  std::printf("worker %u: shutdown\n", config.id);
  return 0;
}

// "aa:bb:cc", "aa-bb-cc", or bare hex "aabbcc".
std::optional<net::Oui> parse_oui(std::string_view text) {
  std::string hex;
  for (const char c : text) {
    if (c == ':' || c == '-') continue;
    hex.push_back(c);
  }
  const auto value = util::parse_hex_u64(hex);
  if (!value || *value > 0xffffff) return std::nullopt;
  return net::Oui(static_cast<std::uint32_t>(*value));
}

// Answers one query against the served snapshot, printing one line.
// Returns false when the argument does not parse.
bool answer_query(const serve::QueryService& service, std::string_view kind,
                  const char* arg) {
  if (kind == "point") {
    const auto addr = net::Ipv6Address::parse(arg);
    if (!addr) return false;
    if (const auto rec = service.point(*addr)) {
      std::printf("point %s known count=%u first=%u last=%u vantages=%#x\n",
                  addr->to_string().c_str(), rec->count, rec->first_seen,
                  rec->last_seen, rec->vantage_mask);
    } else {
      std::printf("point %s unknown\n", addr->to_string().c_str());
    }
    return true;
  }
  if (kind == "density48") {
    const auto addr = net::Ipv6Address::parse(arg);
    if (!addr) return false;
    std::printf("density48 %s %llu\n",
                net::slash48_of(*addr).to_string().c_str(),
                static_cast<unsigned long long>(
                    service.slash48_density(*addr)));
    return true;
  }
  if (kind == "entropy64") {
    const auto addr = net::Ipv6Address::parse(arg);
    if (!addr) return false;
    const serve::Slash64Summary sum = service.slash64_entropy(*addr);
    std::printf(
        "entropy64 %s addresses=%llu low=%llu medium=%llu high=%llu "
        "eui64=%llu dominant=%s\n",
        net::slash64_of(*addr).to_string().c_str(),
        static_cast<unsigned long long>(sum.addresses),
        static_cast<unsigned long long>(sum.low),
        static_cast<unsigned long long>(sum.medium),
        static_cast<unsigned long long>(sum.high),
        static_cast<unsigned long long>(sum.eui64),
        sum.addresses == 0 ? "none" : net::to_string(sum.dominant()));
    return true;
  }
  if (kind == "oui") {
    const auto oui = parse_oui(arg);
    if (!oui) return false;
    const serve::OuiRisk risk = service.oui_risk(*oui);
    std::printf(
        "oui %s eui64_addresses=%llu unique_macs=%llu trackable_macs=%llu "
        "mac_slash64_pairs=%llu\n",
        oui->to_string().c_str(),
        static_cast<unsigned long long>(risk.eui64_addresses),
        static_cast<unsigned long long>(risk.unique_macs),
        static_cast<unsigned long long>(risk.trackable_macs),
        static_cast<unsigned long long>(risk.mac_slash64_pairs));
    return true;
  }
  return false;
}

// Runs every --addr/--p48/--p64/--oui flag and --queries FILE line (format:
// `point|density48|entropy64|oui ARG`, '#' comments) against the service.
int answer_queries(const serve::QueryService& service, int argc, char** argv) {
  static constexpr std::pair<const char*, const char*> kFlags[] = {
      {"--addr", "point"},
      {"--p48", "density48"},
      {"--p64", "entropy64"},
      {"--oui", "oui"},
  };
  for (int i = 1; i + 1 < argc; ++i) {
    for (const auto& [flag, kind] : kFlags) {
      if (std::strcmp(argv[i], flag) != 0) continue;
      if (!answer_query(service, kind, argv[i + 1])) {
        die_flag(flag, argv[i + 1], "expected a parseable query argument");
      }
    }
  }
  if (const char* path = flag_str(argc, argv, "--queries")) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string kind, arg;
      fields >> kind >> arg;
      if (!answer_query(service, kind, arg.c_str())) {
        std::fprintf(stderr, "%s:%zu: bad query line '%s'\n", path, lineno,
                     line.c_str());
        return 2;
      }
    }
  }
  return 0;
}

void print_snapshot_banner(const serve::Snapshot& snap) {
  std::printf("epoch %llu  as_of day %lld  records %s  /48s %zu  /64s %zu  "
              "OUIs %zu  digest %016llx\n",
              static_cast<unsigned long long>(snap.epoch()),
              static_cast<long long>(snap.as_of() / util::kDay),
              util::with_commas(snap.records()).c_str(), snap.slash48_count(),
              snap.slash64_count(), snap.oui_count(),
              static_cast<unsigned long long>(snap.digest()));
}

int cmd_query(int argc, char** argv) {
  const char* path = flag_str(argc, argv, "--corpus");
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: v6pool_cli query --corpus FILE [--addr A] [--p48 A] "
                 "[--p64 A] [--oui O] [--queries FILE]\n");
    return 1;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  hitlist::Corpus corpus(1);
  try {
    corpus = hitlist::load_corpus(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path, e.what());
    return 1;
  }
  corpus.canonicalize();
  serve::QueryService service;
  const auto snap = service.publish(analysis::make_source(corpus), 0);
  print_snapshot_banner(*snap);
  return answer_queries(service, argc, argv);
}

int cmd_serve(int argc, char** argv) {
  core::StudyConfig config = build_study_config(argc, argv);
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.serve.enabled = true;
  options.serve.epoch_interval = flag_days(argc, argv, "--epoch-days", 30);
  options.serve.retain_epochs = static_cast<std::size_t>(
      flag_u64(argc, argv, "--retain-epochs", 8, 1ull << 20));

  std::printf("serving study: %u sites, %lld days, seed %llu, epoch every "
              "%lld days (retain %zu)\n",
              config.world.total_sites,
              static_cast<long long>(config.world.study_duration / util::kDay),
              static_cast<unsigned long long>(config.world.seed),
              static_cast<long long>(options.serve.epoch_interval / util::kDay),
              options.serve.retain_epochs);
  core::Study study(config);
  serve::QueryService& service = study.query_service();
  study.run(std::move(options));

  for (const auto& snap : service.retained()) print_snapshot_banner(*snap);
  return answer_queries(service, argc, argv);
}

// One per-kind serve-latency summary object for the run report:
// {"count":N,"sum_us":X,"p50_us":X|null,"p90_us":X|null,"p99_us":X|null}.
// Percentiles come from obs::summarize_histogram over the bucket shape;
// null (valid JSON, accepted by lint_report) when the kind never ran.
void append_latency_summary(std::string& out, const obs::Snapshot& metrics,
                            serve::QueryKind kind) {
  const char* name = serve::to_string(kind);
  const obs::Labels want{{"kind", name}};
  const obs::MetricSample* found = nullptr;
  for (const obs::MetricSample& s : metrics.samples) {
    if (s.type == obs::MetricType::kHistogram &&
        s.name == "v6_serve_latency_us" && s.labels == want) {
      found = &s;
      break;
    }
  }
  obs::HistogramSummary summary;
  if (found != nullptr) summary = obs::summarize_histogram(found->histogram);
  out += '"';
  out += name;
  out += "\":{\"count\":";
  out += std::to_string(summary.count);
  out += ",\"sum_us\":";
  out += obs::detail::format_double(summary.sum);
  const auto pct = [&out](const char* key,
                          const std::optional<double>& value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += value ? obs::detail::format_double(*value) : "null";
  };
  pct("p50_us", summary.p50);
  pct("p90_us", summary.p90);
  pct("p99_us", summary.p99);
  out += '}';
}

// obs-report: run stage 1 with serving + timeline sampling on, drive a
// deterministic query workload so the serve-latency histograms hold real
// samples, and emit the unified run-report JSON artifact (validated by
// obs::lint_report before it is written — the CLI never ships a report
// its own linter rejects).
int cmd_obs_report(int argc, char** argv) {
  core::StudyConfig config = build_study_config(argc, argv);
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.serve.enabled = true;
  options.serve.epoch_interval = flag_days(argc, argv, "--epoch-days", 0);
  options.serve.retain_epochs = static_cast<std::size_t>(
      flag_u64(argc, argv, "--retain-epochs", 8, 1ull << 20));
  options.sample_interval = flag_days(argc, argv, "--sample-days", 7);
  if (const std::uint32_t workers = flag_u32(argc, argv, "--dist-workers", 0);
      workers > 0) {
    dist::DistConfig dist_config;
    dist_config.workers = workers;
    dist_config.forced_kills = flag_u32(argc, argv, "--dist-kills", 0);
    dist_config.chunk_interval = flag_days(argc, argv, "--dist-chunk-days", 7);
    options.distributed = dist_config;
  }

  const std::uint32_t dist_workers =
      options.distributed ? options.distributed->workers : 0;
  const std::uint32_t dist_kills =
      options.distributed ? options.distributed->forced_kills : 0;

  std::printf("obs-report: %u sites, %lld days, seed %llu\n",
              config.world.total_sites,
              static_cast<long long>(config.world.study_duration / util::kDay),
              static_cast<unsigned long long>(config.world.seed));
  core::Study study(config);
  serve::QueryService& service = study.query_service();
  const auto& r = study.run(std::move(options));

  // Deterministic query workload: the first --query-count canonicalized
  // corpus addresses, each driven through all four query kinds (the OUI
  // is derived from the address's would-be EUI-64 bytes). The targets are
  // a pure function of the corpus; only the measured latencies are
  // wall-clock, and those sit outside the determinism gates by design.
  const std::uint64_t query_count =
      flag_u64(argc, argv, "--query-count", 64, 1ull << 20);
  hitlist::Corpus collapsed(1);
  const hitlist::Corpus* ntp = &r.ntp;
  if (r.ntp_runs != nullptr) {
    collapsed = r.ntp_runs->collapse();
    ntp = &collapsed;
  }
  std::vector<net::Ipv6Address> targets;
  ntp->for_each([&](const hitlist::AddressRecord& rec) {
    if (targets.size() < query_count) targets.push_back(rec.address);
  });
  for (const net::Ipv6Address& a : targets) {
    (void)service.point(a);
    (void)service.slash48_density(a);
    (void)service.slash64_entropy(a);
    const auto& b = a.bytes();
    (void)service.oui_risk(net::Oui(
        (static_cast<std::uint32_t>(b[8] ^ 0x02) << 16) |
        (static_cast<std::uint32_t>(b[9]) << 8) | b[10]));
  }

  // Re-snapshot AFTER the workload: StudyResults::metrics was folded when
  // run() returned, before any latency sample existed.
  const obs::Snapshot metrics = study.metrics_registry().snapshot();

  const char* timeline_path = flag_str(argc, argv, "--timeline-out");
  if (timeline_path != nullptr) {
    if (r.timeline.empty()) {
      std::fprintf(stderr,
                   "--timeline-out needs --sample-days D (D > 0) to "
                   "produce any windows\n");
      return 1;
    }
    std::ofstream out(timeline_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", timeline_path);
      return 1;
    }
    out << obs::render_timeline(r.timeline, obs::TimelineFormat::kJsonl);
  }

  const std::uint64_t days =
      static_cast<std::uint64_t>(config.world.study_duration / util::kDay);
  const std::uint64_t threads = flag_u64(argc, argv, "--threads", 1,
                                         std::numeric_limits<std::uint32_t>::max());
  const std::string config_text =
      "sites=" + std::to_string(config.world.total_sites) +
      ",days=" + std::to_string(days) +
      ",seed=" + std::to_string(config.world.seed) +
      ",threads=" + std::to_string(threads) +
      ",dist_workers=" + std::to_string(dist_workers) +
      ",dist_kills=" + std::to_string(dist_kills);
  char digest_buf[32];
  std::snprintf(digest_buf, sizeof digest_buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(config_text)));

  std::string json = "{\"report\":\"v6pool_run_report\",\"version\":1";
  json += ",\"config\":{\"sites\":" + std::to_string(config.world.total_sites);
  json += ",\"days\":" + std::to_string(days);
  json += ",\"seed\":" + std::to_string(config.world.seed);
  json += ",\"threads\":" + std::to_string(threads);
  json += ",\"digest\":\"";
  json += digest_buf;
  json += "\"}";
  json += ",\"kernel_backend\":\"";
  json += kernels::to_string(kernels::active_backend());
  json += "\"";
  json += ",\"metrics\":{\"polls_attempted\":" +
          std::to_string(r.polls_attempted);
  json += ",\"polls_answered\":" + std::to_string(r.polls_answered);
  json += ",\"records\":" + std::to_string(study.ntp_size());
  json += ",\"samples\":" + std::to_string(metrics.samples.size()) + "}";
  json += ",\"serve_latency\":{";
  static constexpr serve::QueryKind kKinds[] = {
      serve::QueryKind::kPoint, serve::QueryKind::kDensity48,
      serve::QueryKind::kEntropy64, serve::QueryKind::kOuiRisk};
  bool first = true;
  for (const serve::QueryKind kind : kKinds) {
    if (!first) json += ',';
    first = false;
    append_latency_summary(json, metrics, kind);
  }
  json += "}";
  json += ",\"epochs\":[";
  first = true;
  for (const auto& snap : service.retained()) {
    if (!first) json += ',';
    first = false;
    char epoch_digest[32];
    std::snprintf(epoch_digest, sizeof epoch_digest, "%016llx",
                  static_cast<unsigned long long>(snap->digest()));
    json += "{\"epoch\":" + std::to_string(snap->epoch());
    json += ",\"as_of_day\":" +
            std::to_string(static_cast<long long>(snap->as_of() / util::kDay));
    json += ",\"records\":" + std::to_string(snap->records());
    json += ",\"digest\":\"";
    json += epoch_digest;
    json += "\"}";
  }
  json += "]";
  json += ",\"timeline\":{\"windows\":" + std::to_string(r.timeline.size());
  json += ",\"path\":";
  if (timeline_path != nullptr) {
    obs::detail::append_json_string(json, timeline_path);
  } else {
    json += "null";
  }
  json += "}";
  if (r.dist) {
    json += ",\"dist\":{\"workers\":" + std::to_string(r.dist->workers);
    json += ",\"ranges\":" + std::to_string(r.dist->ranges);
    json += ",\"obs_reports\":" +
            std::to_string(r.dist->cluster_obs.report_count());
    json += ",\"leases\":" + std::to_string(r.dist->leases_granted);
    json += ",\"worker_deaths\":" + std::to_string(r.dist->worker_deaths);
    json += "}";
  } else {
    json += ",\"dist\":null";
  }
  json += "}\n";

  if (const auto problem = obs::lint_report(json)) {
    std::fprintf(stderr, "internal error: generated report fails lint: %s\n",
                 problem->c_str());
    return 1;
  }
  if (const char* path = flag_str(argc, argv, "--out")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    out << json;
    std::printf("run report    : %zu bytes, %zu queries -> %s (json)\n",
                json.size(), targets.size() * 4, path);
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (r.dist) {
    if (const int rc = write_cluster_artifacts(argc, argv, r.dist->cluster_obs);
        rc != 0) {
      return rc;
    }
  }
  return 0;
}

// Shared shape of the lint subcommands: slurp FILE, run `lint`,
// exit 0 iff it reports no problem.
int lint_file(int argc, char** argv, const char* subcommand,
              std::optional<std::string> (*lint)(std::string_view)) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: v6pool_cli %s FILE\n", subcommand);
    return 1;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (const auto problem = lint(buffer.str())) {
    std::fprintf(stderr, "%s: %s\n", argv[2], problem->c_str());
    return 1;
  }
  std::printf("%s: OK\n", argv[2]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  apply_kernels_flag(argc, argv);
  if (argc >= 2 && std::strcmp(argv[1], "world") == 0) {
    return cmd_world(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "study") == 0) {
    return cmd_study(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "query") == 0) {
    return cmd_query(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return cmd_serve(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint-metrics") == 0) {
    return lint_file(argc, argv, "lint-metrics", obs::lint_prometheus);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint-timeline") == 0) {
    return lint_file(argc, argv, "lint-timeline", obs::lint_timeline_jsonl);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint-trace") == 0) {
    return lint_file(argc, argv, "lint-trace", obs::lint_trace_events);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint-dist") == 0) {
    return lint_file(argc, argv, "lint-dist", dist::lint_dist_frames);
  }
  if (argc >= 2 && std::strcmp(argv[1], "lint-report") == 0) {
    return lint_file(argc, argv, "lint-report", obs::lint_report);
  }
  if (argc >= 2 && std::strcmp(argv[1], "obs-report") == 0) {
    return cmd_obs_report(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "coordinator") == 0) {
    return cmd_coordinator(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return cmd_worker(argc, argv);
  }
  std::printf(
      "usage:\n"
      "  v6pool_cli world [--sites N] [--seed S]\n"
      "  every subcommand also takes --kernels scalar|auto (batch-kernel "
      "backend; default auto = best the CPU supports)\n"
      "  v6pool_cli study [--sites N] [--days D] [--seed S] "
      "[--memory-budget-mb M] [--spill-dir DIR] "
      "[--release FILE] [--save-corpus FILE] [--metrics-out FILE "
      "[--metrics-format prom|json]] [--sample-days D] "
      "[--timeline-out FILE [--timeline-format jsonl|csv]] "
      "[--trace-out FILE] [--collect-only] [--dist-workers N "
      "[--dist-kills K] [--dist-chunk-days C] [--frames-out FILE] "
      "[--cluster-metrics-out FILE] [--cluster-timeline-out FILE] "
      "[--cluster-trace-out FILE]]\n"
      "  v6pool_cli obs-report [--sites N] [--days D] [--seed S] "
      "[--threads T] [--epoch-days E] [--sample-days D] [--query-count Q] "
      "[--out FILE] [--timeline-out FILE] [--dist-workers N "
      "[--dist-kills K] [--cluster-metrics-out FILE] "
      "[--cluster-timeline-out FILE] [--cluster-trace-out FILE]]\n"
      "  v6pool_cli query --corpus FILE [--addr A] [--p48 A] [--p64 A] "
      "[--oui O] [--queries FILE]\n"
      "  v6pool_cli serve [--sites N] [--days D] [--seed S] [--threads T] "
      "[--memory-budget-mb M] [--epoch-days E] [--retain-epochs R] "
      "[--addr A] [--p48 A] [--p64 A] [--oui O] [--queries FILE]\n"
      "  v6pool_cli coordinator --dir D [--workers N] [--ranges R] "
      "[--chunk-days C] [--heartbeat-timeout-ms MS] [--save-corpus FILE] "
      "[--sites N] [--days D] [--seed S]\n"
      "  v6pool_cli worker --dir D --id I [--chunk-delay-ms MS] "
      "[--sites N] [--days D] [--seed S]\n"
      "  v6pool_cli lint-metrics FILE\n"
      "  v6pool_cli lint-timeline FILE\n"
      "  v6pool_cli lint-trace FILE\n"
      "  v6pool_cli lint-dist FILE\n"
      "  v6pool_cli lint-report FILE\n");
  return argc >= 2 ? 1 : 0;
}
