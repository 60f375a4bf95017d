// perfbench workload: one iteration of one benchmark workload, driven only
// through the library's public API, printed as one JSON line on stdout.
//
//   perfbench_workload --workload W --seed N --work-dir DIR [--trace]
//
// Without --trace it times core::Study construction and Study::run() from
// outside: the end-to-end metrics. With --trace it reproduces the same
// workload by calling each layer's public function in turn (world, data
// plane, pool DNS, collector, campaigns, backscan, analyses, serving,
// SimCluster), records a wall-clock span around each call, writes the
// spans as Chrome trace-event JSON under DIR and lints the file with
// obs::lint_trace_events. Both modes run the same correctness checks and
// print the same exact-count keys, so run.py can hold the traced
// reproduction to the untraced run. Spill files and traces stay in DIR.
//
// Only this file knows the workloads' shapes; README.md says why each
// exists and which layer metric should move which end-to-end metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/address_categories.h"
#include "analysis/as_entropy.h"
#include "analysis/dataset_compare.h"
#include "analysis/entropy_distribution.h"
#include "analysis/lifetimes.h"
#include "analysis/parallel_scan.h"
#include "analysis/scan_source.h"
#include "core/study.h"
#include "dist/sim_cluster.h"
#include "hitlist/campaigns.h"
#include "hitlist/corpus.h"
#include "hitlist/corpus_io.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"
#include "kernels/dispatch.h"
#include "netsim/data_plane.h"
#include "netsim/pool_dns.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "scan/backscanner.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "sim/world.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace {

using namespace v6;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  std::uint32_t sites;
  std::uint32_t days;
  bool campaigns_and_backscan;
  std::size_t spill_budget_bytes;  // 0: in memory
  std::uint32_t epoch_days;        // > 0: serving epochs under live ingest
  std::uint32_t dist_workers;      // > 0: RunOptions::distributed
  unsigned collector_threads;
  unsigned analysis_threads;
};

// Thread budget: at most 4 busy threads (the reader counts as one) on
// every workload. The collector and the analyses never overlap.
constexpr Workload kWorkloads[] = {
    {"study_full", 30000, 90, true, 0, 0, 0, 4, 4},
    {"collect_tiered_serve", 60000, 219, false, 8u << 20, 30, 0, 3, 3},
    {"collect_dist", 20000, 219, false, 0, 0, 4, 4, 4},
};

// Open-loop reader: one batch every kBatchPeriod, each 64 point and 64
// /48-density queries against one pinned epoch.
constexpr auto kBatchPeriod = std::chrono::microseconds(500);
constexpr std::size_t kQueriesPerKind = 64;
// Workloads without live serving serve their final corpus for this many
// batches after the run (the idle-serving baseline).
constexpr std::uint64_t kBaselineBatches = 6000;

constexpr double kPoolGlobalFraction = 0.25;  // as core::Study wires it
constexpr std::uint64_t kWorldSeed = 2022;

core::StudyConfig make_config(const Workload& w, std::uint64_t seed,
                              const std::string& spill_dir) {
  core::StudyConfig config;
  // The scenario world is fixed (the figure benches' default seed); the
  // workload seed drives every random stream run over it: loss, poll
  // timing draws, campaign and backscan sampling, dist jitter and the
  // query keys. Seeds then vary the traffic, not the population, so the
  // work per run stays comparable across seeds.
  config.world.seed = kWorldSeed;
  util::Rng streams(seed);
  config.plane.seed = streams.next();
  config.collector.seed = streams.next();
  config.hitlist_campaign.seed = streams.next();
  config.caida_campaign.seed = streams.next();
  config.backscan.seed = streams.next();
  config.world.total_sites = w.sites;
  config.world.study_duration =
      static_cast<util::SimDuration>(w.days) * util::kDay;
  // The campaign and backscan calendar of the repo's figure benches: the
  // backscan week follows the window, campaign windows scale with it.
  config.backscan_start = config.world.study_duration + 26 * util::kDay;
  config.hitlist_campaign.start = 22 * util::kDay;
  config.hitlist_campaign.duration = std::max<util::SimDuration>(
      config.world.study_duration - 25 * util::kDay, 4 * util::kWeek);
  config.caida_campaign.start = 9 * util::kDay;
  config.caida_campaign.duration = std::min<util::SimDuration>(
      62 * util::kDay, config.world.study_duration);
  config.collector.threads = util::Parallelism(w.collector_threads);
  config.analysis.threads = util::Parallelism(w.analysis_threads);
  if (w.spill_budget_bytes > 0) {
    config.spill.memory_budget_bytes = w.spill_budget_bytes;
    config.spill.directory = spill_dir;
  }
  return config;
}

core::RunOptions make_options(const Workload& w, std::uint64_t seed) {
  core::RunOptions options;
  options.campaigns = w.campaigns_and_backscan;
  options.backscan = w.campaigns_and_backscan;
  if (w.epoch_days > 0) {
    options.serve.enabled = true;
    options.serve.epoch_interval =
        static_cast<util::SimDuration>(w.epoch_days) * util::kDay;
  }
  if (w.dist_workers > 0) {
    dist::DistConfig dist_config;
    dist_config.workers = w.dist_workers;
    dist_config.forced_kills = 1;
    dist_config.seed = util::Rng(seed).next() ^ 0x5eed;
    options.distributed = dist_config;
  }
  return options;
}

// ---------------------------------------------------------------------------
// Open-loop serving reader

struct ServeSample {
  std::vector<double> latency_us;  // batch end - due
  std::vector<double> late_us;     // batch start - due
  std::uint64_t missed = 0;        // started more than one period late
  std::uint64_t answers = 0;       // fold of every answer (kept observable)
};

// Query keys, drawn from the seed before anything is timed: half are
// device addresses at random instants of the window (mostly known to the
// corpus), half random addresses inside random ASes' /32s (mostly unknown
// points, often known /48s).
std::vector<net::Ipv6Address> make_query_keys(const sim::World& world,
                                              std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const auto devices = world.devices();
  const auto ases = world.ases();
  const util::SimTime start = world.config().study_start;
  const util::SimDuration span = world.config().study_duration;
  std::vector<net::Ipv6Address> keys;
  constexpr std::size_t kKeys = 1 << 14;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i % 2 == 0) {
      const auto& device = devices[rng.bounded(devices.size())];
      const util::SimTime t =
          start + static_cast<util::SimTime>(rng.bounded(
                      static_cast<std::uint64_t>(span)));
      keys.push_back(world.device_address(device.id, t));
    } else {
      const auto& as = ases[rng.bounded(ases.size())];
      keys.push_back(net::Ipv6Address::from_u64(
          as.prefix_hi | (rng.next() & 0xffffffffull), rng.next()));
    }
  }
  return keys;
}

// Runs batches on a fixed schedule from the moment the first epoch is
// published until `stop` is set (or `max_batches` ran). Every batch is
// timed from when it was due, so a stall also charges the batches queued
// behind it.
void run_reader(const serve::QueryService& service,
                const std::vector<net::Ipv6Address>& keys,
                const std::atomic<bool>& stop, std::uint64_t max_batches,
                ServeSample& out) {
  while (service.current() == nullptr) {
    if (stop.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto t0 = Clock::now();
  std::size_t k = 0;
  for (std::uint64_t i = 0; i < max_batches; ++i) {
    if (stop.load(std::memory_order_acquire)) break;
    const auto due = t0 + i * kBatchPeriod;
    // Spin, never sleep: waking a sleeping (idle, halted) CPU costs up to
    // milliseconds on a virtual machine, which would read as generator
    // lateness. The reader owns one of the workload's cores.
    while (Clock::now() < due) {
    }
    const auto begin = Clock::now();
    const auto snap = service.current();
    std::uint64_t fold = 0;
    for (std::size_t q = 0; q < kQueriesPerKind; ++q) {
      fold += snap->contains(keys[k]) ? 1 : 0;
      k = k + 1 == keys.size() ? 0 : k + 1;
    }
    for (std::size_t q = 0; q < kQueriesPerKind; ++q) {
      fold += snap->slash48_density(keys[k]);
      k = k + 1 == keys.size() ? 0 : k + 1;
    }
    const auto end = Clock::now();
    service.count_queries(serve::QueryKind::kPoint, kQueriesPerKind);
    service.count_queries(serve::QueryKind::kDensity48, kQueriesPerKind);
    out.answers += fold;
    const double late =
        std::chrono::duration<double, std::micro>(begin - due).count();
    out.late_us.push_back(late);
    out.latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - due).count());
    if (begin - due > kBatchPeriod) ++out.missed;
  }
}

// run_reader on its own thread until stop() or destruction, which join it
// (on exception paths too).
class BackgroundReader {
 public:
  BackgroundReader(const serve::QueryService& service,
                   const std::vector<net::Ipv6Address>& keys, ServeSample& out)
      : thread_([this, &service, &keys, &out] {
          run_reader(service, keys, stop_, UINT64_MAX, out);
        }) {}
  ~BackgroundReader() { stop(); }
  BackgroundReader(const BackgroundReader&) = delete;
  BackgroundReader& operator=(const BackgroundReader&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object per section

class JsonSection {
 public:
  void number(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void integer(std::string_view key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void text(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    add(key, quoted + "\"");
  }
  void boolean(std::string_view key, bool v) { add(key, v ? "true" : "false"); }
  void raw(std::string_view key, std::string_view json) { add(key, json); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void add(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
  }
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t counter(const obs::Registry& registry, std::string_view name) {
  return registry.snapshot().counter_sum(name);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Correctness checks and exact-count keys, shared by both modes. They read
// only the workload's outputs, never golden figure values.

// The NTP corpus as the workload left it: in memory or spilled runs.
struct NtpView {
  const hitlist::Corpus* memory = nullptr;
  const hitlist::TieredCorpus* runs = nullptr;

  std::uint64_t size() const {
    return runs != nullptr ? runs->merged_size() : memory->size();
  }
  std::string save() const {
    std::ostringstream out;
    if (runs != nullptr) {
      runs->save(out);
    } else {
      hitlist::save_corpus(out, *memory);
    }
    return std::move(out).str();
  }
  analysis::ScanSource source() const {
    return runs != nullptr ? analysis::make_source(*runs)
                           : analysis::make_source(*memory);
  }
};

struct Outcome {
  JsonSection checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(std::string_view name, bool ok) {
    checks.boolean(name, ok);
    ++attempted;
    if (!ok) ++failed;
  }
};

// study_full: the saved corpus reloads to the same bytes, and Table 1's
// NTP row counts every collected address.
void check_saved_corpus(const NtpView& ntp, const std::string& saved,
                        std::uint64_t table1_ntp, Outcome& out) {
  bool same = false;
  try {
    const hitlist::Corpus reloaded = hitlist::load_corpus(std::span(
        reinterpret_cast<const std::uint8_t*>(saved.data()), saved.size()));
    std::ostringstream again;
    hitlist::save_corpus(again, reloaded);
    same = fnv1a64(std::move(again).str()) == fnv1a64(saved);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus reload failed: %s\n", e.what());
  }
  out.check("corpus_reload_digest", same);
  out.check("table1_ntp_equals_size", table1_ntp == ntp.size());
}

// collect_tiered_serve: the final epoch covers the merged corpus, and
// sampled merged records answer identically through the served snapshot.
void check_served_corpus(const NtpView& ntp, const serve::Snapshot& snap,
                         Outcome& out) {
  const std::uint64_t merged = ntp.size();
  out.check("final_epoch_records", snap.records() == merged);
  constexpr std::uint64_t kSamples = 512;
  const std::uint64_t stride = std::max<std::uint64_t>(1, merged / kSamples);
  std::uint64_t index = 0;
  std::uint64_t sampled = 0;
  bool identical = true;
  const auto visit = [&](const hitlist::AddressRecord& rec) {
    if (index++ % stride != 0) return;
    ++sampled;
    const auto served = snap.find(rec.address);
    identical = identical && served.has_value() &&
                served->first_seen == rec.first_seen &&
                served->last_seen == rec.last_seen &&
                served->count == rec.count &&
                served->vantage_mask == rec.vantage_mask;
  };
  if (ntp.runs != nullptr) {
    ntp.runs->for_each_merged(visit);
  } else {
    for (const auto& rec : ntp.memory->records()) visit(rec);
  }
  out.check("served_records_match", identical && sampled > 0);
}

// A single-process, in-memory collect over the workload's own world and
// network stack: the reference collect_dist must equal. Returns its saved
// bytes' digest and the pool resolutions it spent.
struct Reference {
  std::uint64_t digest = 0;
  std::uint64_t resolutions = 0;
};

Reference single_process_collect(const core::StudyConfig& config,
                                 const sim::World& world,
                                 netsim::DataPlane& plane,
                                 const netsim::PoolDns& dns,
                                 obs::Registry& registry) {
  const std::uint64_t before = counter(registry, "v6_pool_resolutions_total");
  hitlist::Corpus corpus(1 << 16);
  hitlist::PassiveCollector collector(world, plane, dns, config.collector);
  collector.run(corpus, config.world.study_start,
                config.world.study_start + config.world.study_duration);
  std::ostringstream bytes;
  hitlist::save_corpus(bytes, corpus);
  return {fnv1a64(std::move(bytes).str()),
          counter(registry, "v6_pool_resolutions_total") - before};
}

struct Keys {
  std::uint64_t polls = 0;
  std::uint64_t records = 0;
  std::uint64_t hitlist_probes = 0;
  std::uint64_t caida_probes = 0;
  std::uint64_t spill_flushes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t final_epoch_digest = 0;
  std::uint64_t dist_leases = 0;
  std::uint64_t dist_uploads = 0;
  std::uint64_t corpus_digest = 0;

  void write(JsonSection& json) const {
    json.integer("polls", polls);
    json.integer("records", records);
    json.integer("hitlist_probes", hitlist_probes);
    json.integer("caida_probes", caida_probes);
    json.integer("spill_flushes", spill_flushes);
    json.integer("spill_bytes", spill_bytes);
    json.integer("epochs", epochs);
    json.text("final_epoch_digest", hex64(final_epoch_digest));
    json.integer("dist_leases", dist_leases);
    json.integer("dist_uploads", dist_uploads);
    json.text("corpus_digest", hex64(corpus_digest));
  }
};

// Checks every workload runs on its final state; fills the corpus keys.
// `reference` is the single-process digest (collect_dist only).
void finish_checks(const Workload& w, const NtpView& ntp,
                   std::uint64_t table1_ntp,
                   const serve::Snapshot& final_epoch,
                   std::optional<std::uint64_t> reference, Keys& keys,
                   Outcome& out) {
  const std::string saved = ntp.save();
  keys.records = ntp.size();
  keys.corpus_digest = fnv1a64(saved);
  keys.final_epoch_digest = final_epoch.digest();
  if (w.campaigns_and_backscan) {
    check_saved_corpus(ntp, saved, table1_ntp, out);
  }
  if (w.epoch_days > 0) check_served_corpus(ntp, final_epoch, out);
  if (reference) {
    out.check("dist_digest_equals_single_process",
              *reference == keys.corpus_digest);
  }
}

std::string serve_section(const ServeSample& s) {
  JsonSection json;
  json.number("late_p99_us", percentile(s.late_us, 0.99));
  json.integer("batches", s.latency_us.size());
  json.integer("missed", s.missed);
  json.integer("answers", s.answers);
  // Every batch's latency: run.py pools them across iterations.
  std::string samples = "[";
  for (const double v : s.latency_us) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.2f", samples.size() > 1 ? "," : "",
                  v);
    samples += buf;
  }
  json.raw("latency_us", samples + "]");
  return json.str();
}

void print_result(const char* mode, const Workload& w, std::uint64_t seed,
                  const JsonSection& metrics, const ServeSample& serve,
                  const Keys& keys, const Outcome& out,
                  const JsonSection& extra_info = {}) {
  JsonSection key_json;
  keys.write(key_json);
  std::printf(
      "{\"mode\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,\"metrics\":%s,"
      "\"serve\":%s,\"keys\":%s,\"checks\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"kernel_backend\":\"%s\",\"info\":%s}\n",
      mode, w.name, static_cast<unsigned long long>(seed),
      metrics.str().c_str(), serve_section(serve).c_str(),
      key_json.str().c_str(), out.checks.str().c_str(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      kernels::to_string(kernels::active_backend()), extra_info.str().c_str());
}

// ---------------------------------------------------------------------------
// End-to-end mode: Study construction and Study::run(), timed from outside.

int run_e2e(const Workload& w, std::uint64_t seed,
            const std::string& work_dir) {
  const core::StudyConfig config =
      make_config(w, seed, work_dir + "/spill-" + std::to_string(getpid()));
  Outcome out;

  const auto t_setup = Clock::now();
  core::Study study(config);
  const double setup_s = seconds_since(t_setup);

  const std::vector<net::Ipv6Address> keys_for_queries =
      make_query_keys(study.world(), seed);
  serve::QueryService& service = study.query_service();
  ServeSample serve;

  double study_s = 0;
  bool ran = true;
  {
    std::optional<BackgroundReader> reader;
    if (w.epoch_days > 0) reader.emplace(service, keys_for_queries, serve);
    const auto t_run = Clock::now();
    try {
      study.run(make_options(w, seed));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "study.run failed: %s\n", e.what());
      ran = false;
    }
    study_s = seconds_since(t_run);
  }
  out.check("study_run", ran);
  if (!ran) return 1;

  const core::StudyResults& results = study.results();
  const NtpView ntp{&results.ntp, results.ntp_runs.get()};
  if (w.epoch_days == 0) {
    // Idle-serving baseline: the finished corpus, no ingest beside it.
    const util::SimTime end =
        config.world.study_start + config.world.study_duration;
    service.publish(ntp.source(), end);
    std::atomic<bool> never{false};
    run_reader(service, keys_for_queries, never, kBaselineBatches, serve);
  }
  const double rss_mb = peak_rss_mb();

  Keys keys;
  keys.polls = results.polls_attempted;
  keys.hitlist_probes = results.hitlist.probes_sent;
  keys.caida_probes = results.caida.probes_sent;
  if (results.ntp_runs != nullptr) {
    keys.spill_flushes = results.ntp_runs->stats().spills;
    keys.spill_bytes = results.ntp_runs->stats().disk_bytes;
  }
  keys.epochs = service.epochs_published();
  if (results.dist) {
    keys.dist_leases = results.dist->leases_granted;
    keys.dist_uploads = results.dist->checkpoints_uploaded;
  }
  const auto& table1 = results.analysis.table1;
  const std::uint64_t table1_ntp = table1.empty() ? 0 : table1[0].addresses;
  std::optional<std::uint64_t> reference;
  if (w.dist_workers > 0) {
    reference = single_process_collect(config, study.world(), study.plane(),
                                       study.pool_dns(),
                                       study.metrics_registry())
                    .digest;
  }
  finish_checks(w, ntp, table1_ntp, *service.current(), reference, keys, out);

  JsonSection metrics;
  metrics.number("setup_s", setup_s);
  metrics.number("study_s", study_s);
  metrics.number("peak_rss_mb", rss_mb);
  print_result("e2e", w, seed, metrics, serve, keys, out);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced mode: the same workload, one public layer call per span.

class SpanRecorder {
 public:
  SpanRecorder() : t0_(Clock::now()) {}

  // Runs fn inside a span named `name`, nested under the open span.
  // Returns the span's wall seconds.
  double span(std::string name, const std::function<void()>& fn) {
    const std::size_t id = spans_.size();
    spans_.push_back({std::move(name), now_us(), 0, parent_});
    const std::int64_t outer = parent_;
    parent_ = static_cast<std::int64_t>(id);
    const auto t = Clock::now();
    fn();
    const double s = seconds_since(t);
    parent_ = outer;
    spans_[id].end_us = now_us();
    return s;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, in start
  // order, carrying its end and parent span id in args.
  std::string render() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%lld,"
                    "\"end\":%lld}}%s\n",
                    s.name.c_str(), static_cast<long long>(s.begin_us),
                    static_cast<long long>(s.end_us - s.begin_us), i,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.end_us),
                    i + 1 == spans_.size() ? "" : ",");
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t begin_us = 0;
    std::int64_t end_us = 0;
    std::int64_t parent = -1;
  };
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::int64_t parent_ = -1;
};

// Backscan week, as core::Study runs it: a serial collection pass over
// the week whose hook feeds a Backscanner from up to backscan_vantages
// servers in distinct countries, then the alias cross-check against the
// Hitlist.
core::AliasCrossCheck run_backscan(const core::StudyConfig& config,
                                  const sim::World& world,
                                  netsim::DataPlane& plane,
                                  const netsim::PoolDns& dns,
                                  obs::Registry& registry,
                                  const hitlist::HitlistResult& hitlist) {
  scan::BackscanConfig backscan_config = config.backscan;
  backscan_config.metrics = &registry;
  scan::Backscanner backscanner(plane, backscan_config);
  std::unordered_set<std::uint8_t> participating;
  std::unordered_set<std::uint16_t> countries_taken;
  for (const auto& v : world.vantages()) {
    if (participating.size() >= config.backscan_vantages) break;
    if (countries_taken.insert(v.country.value()).second) {
      participating.insert(v.id);
    }
  }
  hitlist::CollectorConfig collector_config = config.collector;
  collector_config.metrics = &registry;
  collector_config.threads = util::Parallelism::serial();
  collector_config.sampler_stage = "backscan";
  hitlist::PassiveCollector collector(world, plane, dns, collector_config);
  hitlist::Corpus week(1 << 12);
  const auto hook = [&](const ntp::Observation& obs,
                        const net::Ipv6Address& vantage_address) {
    week.add(obs.client, obs.time, obs.vantage);
    if (participating.contains(obs.vantage)) {
      backscanner.observe(obs, vantage_address);
    }
  };
  hitlist::Corpus scratch(1 << 10);
  collector.run(scratch, config.backscan_start,
                config.backscan_start + config.backscan_duration, hook);
  scan::BackscanReport report = backscanner.finish();

  std::unordered_set<net::Ipv6Prefix> hitlist_aliased(
      hitlist.aliased_prefixes.begin(), hitlist.aliased_prefixes.end());
  std::unordered_set<net::Ipv6Prefix> ours(report.aliased_slash64s.begin(),
                                           report.aliased_slash64s.end());
  core::AliasCrossCheck check;
  for (const auto& p64 : ours) {
    if (hitlist_aliased.contains(p64) ||
        hitlist_aliased.contains(p64.truncated(48)) ||
        hitlist_aliased.contains(p64.truncated(36))) {
      ++check.aliased_known_to_hitlist;
    } else {
      ++check.aliased_new;
    }
  }
  for (const auto& rec : week.records()) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.ntp_clients_in_aliased;
    }
  }
  for (const auto& rec : hitlist.corpus.records()) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.hitlist_addresses_in_aliased;
    }
  }
  return check;
}

// Every per-layer metric, printed on every workload (0 where the workload
// does not exercise the layer). README.md maps each to the end-to-end
// metric it should move.
constexpr const char* kLayerMetrics[] = {
    "sim.world_s",
    "netsim.setup_s",
    "hitlist.collect_s",
    "hitlist.collect.polls",
    "hitlist.collect.polls_per_s",
    "hitlist.collect.records",
    "hitlist.collect.dedup_hits",
    "netsim.pool_resolutions",
    "hitlist.campaign_hitlist_s",
    "hitlist.campaign_hitlist.probes",
    "hitlist.campaign_hitlist.probes_per_s",
    "hitlist.campaign_caida_s",
    "hitlist.campaign_caida.probes",
    "hitlist.campaign_caida.probes_per_s",
    "scan.backscan_s",
    "scan.backscan.probes",
    "scan.probes",
    "scan.responsive",
    "scan.responsive_ratio",
    "netsim.drops",
    "netsim.rate_limited",
    "analysis.entropy_s",
    "analysis.table1_s",
    "analysis.lifetimes_s",
    "analysis.as_entropy_s",
    "analysis.categories_s",
    "analysis.records",
    "analysis.records_per_s",
    "analysis.kernel_backend",
    "hitlist.tiered_merge_s",
    "hitlist.tiered_merge.records_per_s",
    "hitlist.spill.flushes",
    "hitlist.spill.bytes",
    "hitlist.spill.bytes_per_address",
    "serve.publish_s",
    "serve.epochs",
    "serve.snapshot_bytes",
    "serve.generator_late_us",
    "serve.batches_missed",
    "serve.batches",
    "dist.collect_s",
    "dist.leases",
    "dist.uploads",
    "dist.frame_bytes",
    "dist.replayed_chunks",
    "dist.work_ratio",
    "trace.study_s",
};

class LayerMetrics {
 public:
  LayerMetrics() {
    for (const char* name : kLayerMetrics) values_.emplace_back(name, 0.0);
  }
  // Throws on a name missing from kLayerMetrics.
  void set(std::string_view name, double v) {
    for (auto& [n, value] : values_) {
      if (n == name) {
        value = v;
        return;
      }
    }
    throw std::logic_error("unlisted layer metric " + std::string(name));
  }
  void set_rate(std::string_view name, double count, double seconds) {
    set(name, seconds > 0 ? count / seconds : 0);
  }
  JsonSection json() const {
    JsonSection out;
    for (const auto& [name, value] : values_) out.number(name, value);
    return out;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& work_dir) {
  const core::StudyConfig config =
      make_config(w, seed, work_dir + "/spill-" + std::to_string(getpid()));
  const util::SimTime start = config.world.study_start;
  const util::SimTime end = start + config.world.study_duration;
  Outcome out;
  Keys keys;
  LayerMetrics m;
  SpanRecorder trace;
  obs::Registry registry;

  std::unique_ptr<sim::World> world;
  std::unique_ptr<netsim::DataPlane> plane;
  std::unique_ptr<netsim::PoolDns> dns;
  trace.span("setup", [&] {
    m.set("sim.world_s", trace.span("sim.world", [&] {
      world = std::make_unique<sim::World>(sim::World::generate(config.world));
    }));
    m.set("netsim.setup_s", trace.span("netsim.setup", [&] {
      netsim::DataPlaneConfig plane_config = config.plane;
      plane_config.metrics = &registry;
      plane = std::make_unique<netsim::DataPlane>(*world, plane_config);
      dns = std::make_unique<netsim::PoolDns>(*world, kPoolGlobalFraction,
                                              config.pool_capture_share);
      dns->set_metrics(&registry);
    }));
  });

  const std::vector<net::Ipv6Address> keys_for_queries =
      make_query_keys(*world, seed);
  serve::QueryService service;
  service.set_metrics(&registry);
  ServeSample serve;

  hitlist::Corpus ntp_memory(1 << 16);
  std::unique_ptr<hitlist::TieredCorpus> ntp_runs;
  hitlist::HitlistResult hitlist_result;
  hitlist::CaidaResult caida_result;
  std::optional<dist::DistReport> dist_report;
  double analysis_s = 0;
  std::uint64_t analysis_records = 0;
  std::uint64_t table1_ntp = 0;
  double collect_s = 0, hitlist_s = 0, caida_s = 0;

  // The collector's counters, read around the study's collect stage.
  constexpr std::size_t kCounters = 4;
  const char* const kCollectCounters[kCounters] = {
      "v6_collector_polls_total", "v6_collector_records_total",
      "v6_collector_dedup_hits_total", "v6_pool_resolutions_total"};
  std::uint64_t collected[kCounters] = {};
  for (std::size_t i = 0; i < kCounters; ++i) {
    collected[i] = counter(registry, kCollectCounters[i]);
  }

  std::optional<BackgroundReader> reader;
  if (w.epoch_days > 0) reader.emplace(service, keys_for_queries, serve);
  const double study_span_s = trace.span("study", [&] {
    if (w.dist_workers > 0) {
      const core::RunOptions options = make_options(w, seed);
      m.set("dist.collect_s", trace.span("dist.collect", [&] {
        dist::SimCluster cluster(*world, *plane, *dns, config.collector,
                                 *options.distributed, nullptr, &registry);
        dist_report = cluster.run(ntp_memory, start, end);
      }));
    } else {
      hitlist::CollectorConfig collector_config = config.collector;
      collector_config.metrics = &registry;
      if (w.epoch_days > 0) {
        collector_config.epoch_interval =
            static_cast<util::SimDuration>(w.epoch_days) * util::kDay;
        collector_config.epoch_sink = [&](util::SimTime t,
                                          const hitlist::Corpus& u) {
          service.publish(analysis::make_source(u), t);
        };
      }
      hitlist::PassiveCollector collector(*world, *plane, *dns,
                                          collector_config);
      collect_s = trace.span("hitlist.collect", [&] {
        if (config.spill.active()) {
          ntp_runs = std::make_unique<hitlist::TieredCorpus>(config.spill,
                                                             &registry);
          collector.run(*ntp_runs, start, end);
        } else {
          collector.run(ntp_memory, start, end);
        }
      });
    }
    for (std::size_t i = 0; i < kCounters; ++i) {
      collected[i] = counter(registry, kCollectCounters[i]) - collected[i];
    }
    const NtpView collected_ntp{&ntp_memory, ntp_runs.get()};
    if (w.epoch_days > 0) {
      m.set("serve.publish_s", trace.span("serve.publish", [&] {
        service.publish(collected_ntp.source(), end);
      }));
    }

    if (w.campaigns_and_backscan) {
      hitlist_s = trace.span("hitlist.campaign_hitlist", [&] {
        hitlist::HitlistCampaignConfig c = config.hitlist_campaign;
        c.metrics = &registry;
        hitlist_result = hitlist::run_hitlist_campaign(*world, *plane, c);
      });
      caida_s = trace.span("hitlist.campaign_caida", [&] {
        hitlist::CaidaCampaignConfig c = config.caida_campaign;
        c.metrics = &registry;
        caida_result = hitlist::run_caida_campaign(*world, *plane, c);
      });
      m.set("hitlist.campaign_hitlist_s", hitlist_s);
      m.set("hitlist.campaign_caida_s", caida_s);
      const std::uint64_t probes = counter(registry, "v6_scan_probes_total");
      m.set("scan.backscan_s", trace.span("scan.backscan", [&] {
        run_backscan(config, *world, *plane, *dns, registry, hitlist_result);
      }));
      m.set("scan.backscan.probes", static_cast<double>(
          counter(registry, "v6_scan_probes_total") - probes));
    }

    trace.span("analysis", [&] {
      analysis::AnalysisConfig cfg = config.analysis;
      cfg.metrics = &registry;
      std::vector<analysis::AnalysisStageStats> stats;
      const analysis::ScanSource src = collected_ntp.source();
      const auto timed = [&](const char* name,
                             const std::function<void()>& fn) {
        const double s = trace.span(name, fn);
        m.set(std::string(name) + "_s", s);
        analysis_s += s;
      };
      timed("analysis.entropy",
            [&] { analysis::entropy_distribution(src, cfg, &stats); });
      timed("analysis.table1", [&] {
        std::vector<analysis::DatasetSummary> table1;
        table1.push_back(analysis::summarize_dataset("NTP corpus", src, *world,
                                                     nullptr, cfg, &stats));
        if (w.campaigns_and_backscan) {
          table1.push_back(analysis::summarize_dataset(
              "IPv6 Hitlist", analysis::make_source(hitlist_result.corpus),
              *world, &src, cfg, &stats));
          table1.push_back(analysis::summarize_dataset(
              "CAIDA", analysis::make_source(caida_result.corpus), *world,
              &src, cfg, &stats));
        }
        table1_ntp = table1[0].addresses;
      });
      const std::vector<util::SimDuration> points = {
          0,          util::kMinute,     util::kHour,
          util::kDay, 3 * util::kDay,    util::kWeek,
          2 * util::kWeek, util::kMonth, 2 * util::kMonth,
          6 * util::kMonth,
      };
      timed("analysis.lifetimes", [&] {
        analysis::address_lifetimes(src, points, cfg, &stats);
        analysis::iid_lifetimes(src, points, cfg, &stats);
      });
      timed("analysis.as_entropy", [&] {
        analysis::top_as_entropy_profiles(src, *world,
                                          config.analysis_top_ases, start,
                                          end, cfg, &stats);
      });
      timed("analysis.categories", [&] {
        analysis::categorize_corpus(src, *world, start, end, {}, cfg, &stats);
      });
      for (const auto& s : stats) analysis_records += s.records;
    });
  });
  if (reader) reader->stop();
  m.set("trace.study_s", study_span_s);

  const NtpView final_ntp{&ntp_memory, ntp_runs.get()};
  if (w.epoch_days == 0) {
    m.set("serve.publish_s", trace.span("serve.publish", [&] {
      service.publish(final_ntp.source(), end);
    }));
    std::atomic<bool> never{false};
    trace.span("serve.baseline", [&] {
      run_reader(service, keys_for_queries, never, kBaselineBatches, serve);
    });
  }
  if (ntp_runs != nullptr) {
    std::uint64_t merged = 0;
    const double merge_s = trace.span("hitlist.tiered_merge", [&] {
      ntp_runs->for_each_merged(
          [&](const hitlist::AddressRecord&) { ++merged; });
    });
    const double spill_bytes = static_cast<double>(
        counter(registry, "v6_corpus_spill_bytes_total"));
    m.set("hitlist.tiered_merge_s", merge_s);
    m.set_rate("hitlist.tiered_merge.records_per_s",
               static_cast<double>(merged), merge_s);
    m.set("hitlist.spill.flushes",
          static_cast<double>(ntp_runs->stats().spills));
    m.set("hitlist.spill.bytes", spill_bytes);
    m.set_rate("hitlist.spill.bytes_per_address", spill_bytes,
               static_cast<double>(merged));
    keys.spill_flushes = ntp_runs->stats().spills;
    keys.spill_bytes = ntp_runs->stats().disk_bytes;
  }

  std::optional<std::uint64_t> reference;
  keys.polls = collected[0];
  if (w.dist_workers > 0) {
    // The single-process collect of the same world and stack: the
    // reference digest and the base of dist.work_ratio.
    Reference single;
    collect_s = trace.span("hitlist.collect", [&] {
      single = single_process_collect(config, *world, *plane, *dns, registry);
    });
    reference = single.digest;
    m.set("dist.leases", static_cast<double>(dist_report->leases_granted));
    m.set("dist.uploads",
          static_cast<double>(dist_report->checkpoints_uploaded));
    m.set("dist.frame_bytes",
          static_cast<double>(dist_report->frame_log.size()));
    m.set("dist.replayed_chunks",
          static_cast<double>(dist_report->replayed_chunks));
    m.set_rate("dist.work_ratio", static_cast<double>(collected[3]),
               static_cast<double>(single.resolutions));
    keys.polls = dist_report->polls_attempted;
    keys.dist_leases = dist_report->leases_granted;
    keys.dist_uploads = dist_report->checkpoints_uploaded;
  }

  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.set("hitlist.collect_s", collect_s);
  m.set("hitlist.collect.polls", count(keys.polls));
  m.set_rate("hitlist.collect.polls_per_s", count(keys.polls), collect_s);
  m.set("hitlist.collect.records", count(collected[1]));
  m.set("hitlist.collect.dedup_hits", count(collected[2]));
  m.set("netsim.pool_resolutions", count(collected[3]));
  m.set("hitlist.campaign_hitlist.probes", count(hitlist_result.probes_sent));
  m.set("hitlist.campaign_caida.probes", count(caida_result.probes_sent));
  m.set_rate("hitlist.campaign_hitlist.probes_per_s",
             count(hitlist_result.probes_sent), hitlist_s);
  m.set_rate("hitlist.campaign_caida.probes_per_s",
             count(caida_result.probes_sent), caida_s);
  const std::uint64_t probes = counter(registry, "v6_scan_probes_total");
  const std::uint64_t responsive =
      counter(registry, "v6_scan_responsive_total");
  m.set("scan.probes", count(probes));
  m.set("scan.responsive", count(responsive));
  m.set_rate("scan.responsive_ratio", count(responsive), count(probes));
  m.set("netsim.drops", count(plane->drops()));
  m.set("netsim.rate_limited", count(plane->rate_limited()));
  m.set("analysis.records", count(analysis_records));
  m.set_rate("analysis.records_per_s", count(analysis_records), analysis_s);
  m.set("analysis.kernel_backend",
        static_cast<double>(kernels::active_backend()));
  const auto final_epoch = service.current();
  m.set("serve.epochs", count(service.epochs_published()));
  m.set("serve.snapshot_bytes", count(final_epoch->memory_bytes()));
  m.set("serve.generator_late_us", percentile(serve.late_us, 0.99));
  m.set("serve.batches_missed", count(serve.missed));
  m.set("serve.batches", count(serve.latency_us.size()));

  keys.hitlist_probes = hitlist_result.probes_sent;
  keys.caida_probes = caida_result.probes_sent;
  keys.epochs = service.epochs_published();
  finish_checks(w, final_ntp, table1_ntp, *final_epoch, reference, keys, out);

  const std::string trace_path = work_dir + "/trace-" + w.name + "-" +
                                 std::to_string(seed) + ".json";
  const std::string rendered = trace.render();
  {
    std::ofstream file(trace_path, std::ios::binary | std::ios::trunc);
    file << rendered;
  }
  std::ifstream reread(trace_path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(reread)),
                            std::istreambuf_iterator<char>());
  const auto lint = obs::lint_trace_events(on_disk);
  if (lint) std::fprintf(stderr, "trace lint: %s\n", lint->c_str());
  out.check("trace_lint", !lint.has_value() && on_disk == rendered);

  JsonSection info;
  info.text("trace_file", trace_path);
  print_result("trace", w, seed, m.json(), serve, keys, out, info);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload W --seed N --work-dir DIR "
               "[--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  std::string work_dir;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return usage();
    } else if (arg == "--seed" && has_value) {
      char* endp = nullptr;
      const char* text = argv[++i];
      seed = std::strtoull(text, &endp, 10);
      if (endp == text || *endp != '\0') return usage();
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--trace") {
      traced = true;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !seed || work_dir.empty()) return usage();
  try {
    std::filesystem::create_directories(work_dir);
    return traced ? run_traced(*workload, *seed, work_dir)
                  : run_e2e(*workload, *seed, work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
}
