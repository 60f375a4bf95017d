#include "core/study.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "analysis/entropy_distribution.h"
#include "analysis/scan_source.h"
#include "hitlist/corpus_io.h"
#include "kernels/dispatch.h"

namespace v6::core {

namespace {

// How long the pool monitor takes to notice a crash (and, later, the
// recovery) before adjusting steering.
constexpr util::SimDuration kPoolMonitorDelay = 15 * util::kMinute;

}  // namespace

Study::Study(const StudyConfig& config) : config_(config) {
  metrics_ = std::make_unique<obs::Registry>();
  // Record which batch-kernel backend this run dispatches to (resolved
  // once; env pin > CLI override > CPUID). An info gauge, not a counter:
  // the backend is per-process state, and snapshots should say which
  // code path produced the numbers.
  if (config.metrics) kernels::register_backend_gauge(*metrics_);
  world_ = std::make_unique<sim::World>(sim::World::generate(config.world));
  netsim::DataPlaneConfig plane_config = config.plane;
  if (config.metrics) plane_config.metrics = metrics_.get();
  plane_ = std::make_unique<netsim::DataPlane>(*world_, plane_config);
  // A quarter of pool answers come from the global zone: under-served
  // regions routinely get far-away servers, which is also what lets five
  // backscan vantages observe clients worldwide.
  dns_ = std::make_unique<netsim::PoolDns>(*world_, 0.25,
                                           config.pool_capture_share);
  if (config.metrics) dns_->set_metrics(metrics_.get());
  if (config.faults.active()) {
    // One seeded plan shared by the data plane (drops datagrams to
    // crashed vantages) and the pool DNS (health-aware steering). Being a
    // pure function of time, the plan reconstructs identically in a
    // resumed study.
    faults_ = std::make_unique<netsim::FaultSchedule>(
        world_->vantages(), config.faults, config.world.study_start,
        config.world.study_start + config.world.study_duration);
    plane_->set_faults(faults_.get());
    dns_->set_health_monitor(faults_.get(), kPoolMonitorDelay);
  }
}

serve::QueryService& Study::query_service() {
  if (serve_ == nullptr) {
    serve_ = std::make_unique<serve::QueryService>();
    // Snapshots are built at merge barriers, where the collector's
    // workers are parked, and the analyses never overlap collection: the
    // build shards like an analysis scan.
    serve_->set_build_threads(config_.analysis.threads);
    if (config_.metrics) serve_->set_metrics(metrics_.get());
  }
  return *serve_;
}

hitlist::CollectorConfig Study::collector_config() {
  hitlist::CollectorConfig cfg = config_.collector;
  if (config_.metrics) {
    cfg.metrics = metrics_.get();
    cfg.sampler = sampler_;
  }
  if (serve_ != nullptr && serve_epoch_interval_ > 0) {
    cfg.epoch_interval = serve_epoch_interval_;
    cfg.epoch_sink = [this](util::SimTime t, const hitlist::Corpus& u) {
      serve_->publish(u, t);
    };
  }
  return cfg;
}

namespace {

// Per-vantage health gauges, set from the collection stats once the stage
// finishes (gauges describe the latest state, unlike the monotonic
// counters the collector bulk-increments).
void set_vantage_gauges(obs::Registry& registry,
                        const std::vector<hitlist::VantageHealthStats>& vh) {
  for (std::size_t v = 0; v < vh.size(); ++v) {
    const obs::Labels labels = {{"vantage", std::to_string(v)}};
    registry
        .gauge("v6_vantage_answer_ratio",
               "Answered / attempted polls for this vantage", labels)
        .set(vh[v].polls == 0 ? 0.0
                              : static_cast<double>(vh[v].answered) /
                                    static_cast<double>(vh[v].polls));
    registry
        .gauge("v6_vantage_fault_loss_ratio",
               "Fault-swallowed / attempted polls for this vantage", labels)
        .set(vh[v].polls == 0 ? 0.0
                              : static_cast<double>(vh[v].lost_to_fault) /
                                    static_cast<double>(vh[v].polls));
  }
}

}  // namespace

void Study::do_collect(RunOptions& options) {
  const util::SimTime start = config_.world.study_start;
  hitlist::CheckpointState from = hitlist::CheckpointState::fresh(
      start, start + config_.world.study_duration);
  // The target starts over, so a retried stage never folds in what a
  // failed one left behind: a resume that threw leaves its snapshot in
  // `ntp` (a fresh run leaves the pre-sized table untouched). Out of core,
  // shard tables (or, distributed, each device range's final corpus) flush
  // to sorted runs and every later stage reads the merged stream. A
  // resumed snapshot seeds the target once: as its first run, or as the
  // in-memory corpus.
  if (results_.ntp.size() != 0) results_.ntp = hitlist::Corpus();
  results_.ntp_runs.reset();
  if (config_.spill.active()) {
    results_.ntp_runs = std::make_unique<hitlist::TieredCorpus>(
        config_.spill, config_.metrics ? metrics_.get() : nullptr);
  }
  if (options.resume_from) {
    from = std::move(options.resume_from->state);
    if (results_.ntp_runs != nullptr) {
      results_.ntp_runs->spill(std::move(options.resume_from->corpus));
    } else {
      results_.ntp = std::move(options.resume_from->corpus);
    }
  }

  if (options.distributed) {
    dist::SimCluster cluster(*world_, *plane_, *dns_, config_.collector,
                             *options.distributed, nullptr,
                             config_.metrics ? metrics_.get() : nullptr,
                             config_.metrics ? sampler_ : nullptr);
    results_.dist = results_.ntp_runs != nullptr
                        ? cluster.run(*results_.ntp_runs, from)
                        : cluster.run(results_.ntp, from);
    results_.polls_attempted = results_.dist->polls_attempted;
    results_.polls_answered = results_.dist->polls_answered;
    results_.vantage_health = results_.dist->vantage_health;
  } else {
    hitlist::PassiveCollector collector(*world_, *plane_, *dns_,
                                        collector_config());
    if (results_.ntp_runs != nullptr) {
      collector.resume(*results_.ntp_runs, from, {}, options.checkpoint_sink);
    } else {
      collector.resume(results_.ntp, from, {}, options.checkpoint_sink);
    }
    results_.polls_attempted = collector.polls_attempted();
    results_.polls_answered = collector.polls_answered();
    results_.vantage_health = collector.vantage_health();
  }
  if (config_.metrics) set_vantage_gauges(*metrics_, results_.vantage_health);
}

analysis::ScanSource Study::ntp_source() const {
  return results_.ntp_runs != nullptr
             ? analysis::make_source(*results_.ntp_runs)
             : analysis::make_source(results_.ntp);
}

void Study::do_campaigns() {
  if (campaigned_) return;
  campaigned_ = true;
  hitlist::HitlistCampaignConfig hitlist_config = config_.hitlist_campaign;
  hitlist::CaidaCampaignConfig caida_config = config_.caida_campaign;
  if (config_.metrics) {
    hitlist_config.metrics = metrics_.get();
    hitlist_config.sampler = sampler_;
    caida_config.metrics = metrics_.get();
  }
  results_.hitlist =
      hitlist::run_hitlist_campaign(*world_, *plane_, hitlist_config);
  results_.caida = hitlist::run_caida_campaign(*world_, *plane_, caida_config);
}

void Study::do_backscan() {
  if (backscanned_) return;
  backscanned_ = true;

  scan::BackscanConfig backscan_config = config_.backscan;
  if (config_.metrics) backscan_config.metrics = metrics_.get();
  scan::Backscanner backscanner(*plane_, backscan_config);
  // Spread the participating servers across countries (probing from five
  // co-located servers would only ever see one region's clients).
  std::unordered_set<std::uint8_t> participating;
  {
    std::unordered_set<std::uint16_t> countries_taken;
    for (const auto& v : world_->vantages()) {
      if (participating.size() >= config_.backscan_vantages) break;
      if (countries_taken.insert(v.country.value()).second) {
        participating.insert(v.id);
      }
    }
  }
  // The hook below is order-dependent — Backscanner draws probe targets
  // and trace samples from one shared RNG and fires probes through the
  // shared DataPlane as sightings arrive — so this collection pass runs
  // single-threaded per the hook concurrency contract (see
  // hitlist::ObservationHook). The main collect() pass has no hook and
  // shards freely.
  auto serial_config = collector_config();
  serial_config.threads = util::Parallelism::serial();
  serial_config.sampler_stage = "backscan";
  // The backscan week is a different corpus; its pass must not publish
  // serving epochs (the hook gate in the collector already prevents it —
  // clearing here states the intent).
  serial_config.epoch_sink = {};
  serial_config.epoch_interval = 0;
  hitlist::PassiveCollector collector(*world_, *plane_, *dns_,
                                      serial_config);
  const auto hook = [&](const ntp::Observation& obs,
                        const net::Ipv6Address& vantage_address) {
    results_.backscan_week.add(obs.client, obs.time, obs.vantage);
    if (participating.contains(obs.vantage)) {
      backscanner.observe(obs, vantage_address);
    }
  };
  hitlist::Corpus scratch(1 << 10);
  collector.run(scratch, config_.backscan_start,
                config_.backscan_start + config_.backscan_duration, hook);
  results_.backscan = backscanner.finish();

  // §4.2 cross-checks against the Hitlist campaign's alias knowledge.
  // The Hitlist publishes aliased prefixes at /64, /48, and /36; a
  // backscan /64 counts as "known" when any published prefix covers it.
  AliasCrossCheck check;
  std::unordered_set<net::Ipv6Prefix> hitlist_aliased(
      results_.hitlist.aliased_prefixes.begin(),
      results_.hitlist.aliased_prefixes.end());
  const auto known_to_hitlist = [&](const net::Ipv6Prefix& p64) {
    return hitlist_aliased.contains(p64) ||
           hitlist_aliased.contains(p64.truncated(48)) ||
           hitlist_aliased.contains(p64.truncated(36));
  };
  std::unordered_set<net::Ipv6Prefix> ours(
      results_.backscan.aliased_slash64s.begin(),
      results_.backscan.aliased_slash64s.end());
  for (const auto& p64 : ours) {
    if (known_to_hitlist(p64)) {
      ++check.aliased_known_to_hitlist;
    } else {
      ++check.aliased_new;
    }
  }
  for (const auto& rec : results_.backscan_week.records()) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.ntp_clients_in_aliased;
    }
  }
  for (const auto& rec : results_.hitlist.corpus.records()) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.hitlist_addresses_in_aliased;
    }
  }
  results_.alias_check = check;
}

void Study::do_analysis() {
  if (analyzed_) return;
  analyzed_ = true;
  analysis::AnalysisConfig cfg = config_.analysis;
  if (config_.metrics) {
    cfg.metrics = metrics_.get();
    cfg.sampler = sampler_;
    // Analysis runs after the sim clock stopped: every pass closes a
    // zero-width window at the pipeline's end.
    cfg.sample_time = std::max(
        config_.world.study_start + config_.world.study_duration,
        config_.backscan_start + config_.backscan_duration);
  }
  AnalysisReport& report = results_.analysis;
  auto* stats = &report.stage_stats;

  // All five analyses run over a ScanSource, so the same kernels stream
  // the merged on-disk runs when the study collected out-of-core.
  const analysis::ScanSource ntp_src = ntp_source();

  // Fig 1: IID entropy over the NTP corpus.
  report.entropy = analysis::entropy_distribution(ntp_src, cfg, stats);

  // Table 1: the NTP corpus is the base; campaign datasets (if collected)
  // get intersection columns against it, probing the in-memory campaign
  // corpora from the base's pass.
  report.table1.clear();
  report.table1.push_back(analysis::summarize_dataset(
      "NTP corpus", ntp_src, *world_, nullptr, cfg, stats));
  if (campaigned_) {
    report.table1.push_back(analysis::summarize_dataset(
        "IPv6 Hitlist", results_.hitlist.corpus, *world_, &ntp_src, cfg,
        stats));
    report.table1.push_back(analysis::summarize_dataset(
        "CAIDA", results_.caida.corpus, *world_, &ntp_src, cfg, stats));
  }

  // Fig 2: address/IID lifetime curves over the standard point grid.
  const std::vector<util::SimDuration> points = {
      0,
      util::kMinute,
      util::kHour,
      util::kDay,
      3 * util::kDay,
      util::kWeek,
      2 * util::kWeek,
      util::kMonth,
      2 * util::kMonth,
      6 * util::kMonth,
  };
  report.address_lifetimes =
      analysis::address_lifetimes(ntp_src, points, cfg, stats);
  report.iid_lifetimes = analysis::iid_lifetimes(ntp_src, points, cfg, stats);

  // Fig 4: top-N AS entropy profiles over the full study window.
  const util::SimTime start = config_.world.study_start;
  const util::SimTime end = start + config_.world.study_duration;
  report.top_ases = analysis::top_as_entropy_profiles(
      ntp_src, *world_, config_.analysis_top_ases, start, end, cfg, stats);

  // Fig 5: the seven-way category breakdown.
  report.categories = analysis::categorize_corpus(ntp_src, *world_, start,
                                                  end, {}, cfg, stats);
}

std::vector<std::pair<geo::CountryCode, std::uint64_t>> Study::country_mix()
    const {
  std::unordered_map<geo::CountryCode, std::uint64_t> counts;
  const analysis::ScanSource ntp = ntp_source();
  ntp.visit_blocks(
      0, ntp.span, [&](std::span<const hitlist::AddressRecord> block) {
        for (const auto& rec : block) {
          if (const auto as_index = world_->as_index_of(rec.address)) {
            ++counts[world_->country_of_as(*as_index)];
          }
        }
      });
  std::vector<std::pair<geo::CountryCode, std::uint64_t>> out(counts.begin(),
                                                              counts.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::size_t Study::save_ntp(std::ostream& out) const {
  if (results_.ntp_runs != nullptr) return results_.ntp_runs->save(out);
  return hitlist::save_corpus(out, results_.ntp);
}

const StudyResults& Study::run(RunOptions options) {
  if (options.distributed && options.checkpoint_sink) {
    // Device ranges checkpoint independently, so there is no
    // single-process cursor to hand the sink. Fail loudly, before any
    // work.
    throw std::invalid_argument(
        "RunOptions::distributed is incompatible with checkpoint_sink");
  }
  obs::Tracer& tracer = metrics_->tracer();
  const util::SimTime study_start = config_.world.study_start;
  const util::SimTime study_end = study_start + config_.world.study_duration;
  const util::SimTime backscan_end =
      config_.backscan_start + config_.backscan_duration;
  const util::SimTime pipeline_end = std::max(study_end, backscan_end);

  // Timeline sampling: the sampler lives on this frame; sampler_ hands it
  // to per-stage configs (collector grid boundaries, campaign snapshots,
  // analysis merges). Each stage transition below closes one extra window
  // so deltas accrued between in-stage boundaries are never lost.
  std::unique_ptr<obs::TimelineSampler> sampler;
  if (options.sample_interval > 0 && config_.metrics) {
    sampler = std::make_unique<obs::TimelineSampler>(
        *metrics_, options.sample_interval, study_start);
  }
  // Set on every call, so a run() that threw leaves no stale wiring.
  sampler_ = sampler.get();

  // Serving: interior epochs come from the collector's merge barriers
  // (collector_config() wires the sink); the final window-end epoch is
  // published below regardless of path. Distributed collection runs the
  // cluster's own merge protocol, so it publishes the final epoch only.
  const bool serving = options.serve.enabled;
  if (serving) query_service().set_retain_epochs(options.serve.retain_epochs);
  serve_epoch_interval_ =
      serving && !options.distributed ? options.serve.epoch_interval : 0;

  // Spans are stamped with the *simulated* window each stage covers (the
  // study runs on a virtual clock); skipped/already-done stages record no
  // span.
  const auto root = tracer.begin_span("study.run", study_start);
  if (options.collect && !collected_) {
    const auto span = tracer.begin_span("study.collect", study_start);
    do_collect(options);
    // Only a stage that finished counts as done: one that threw (a
    // checkpoint sink, a dead fleet) runs again on the next run().
    collected_ = true;
    if (serving) {
      // The window-end epoch: every serving run that collected publishes
      // at least one snapshot covering the full (canonicalized) corpus.
      serve_->publish(ntp_source(), study_end);
    }
    serve_epoch_interval_ = 0;
    tracer.end_span(span, study_end);
    if (sampler_ != nullptr) sampler_->sample(study_end, "collect");
  }
  if (options.campaigns && !campaigned_) {
    const auto span = tracer.begin_span("study.campaigns", study_end);
    do_campaigns();
    tracer.end_span(span, study_end);
    if (sampler_ != nullptr) sampler_->sample(study_end, "campaigns");
  }
  if (options.backscan && !backscanned_) {
    const auto span =
        tracer.begin_span("study.backscan", config_.backscan_start);
    do_backscan();
    tracer.end_span(span, backscan_end);
    if (sampler_ != nullptr) sampler_->sample(backscan_end, "backscan");
  }
  if (options.analysis && !analyzed_) {
    const auto span = tracer.begin_span("study.analysis", pipeline_end);
    do_analysis();
    tracer.end_span(span, pipeline_end);
    if (sampler_ != nullptr) sampler_->sample(pipeline_end, "analysis");
  }
  tracer.end_span(root, pipeline_end);

  if (sampler) {
    results_.timeline = sampler->take();
    sampler_ = nullptr;
  }
  results_.metrics = metrics_->snapshot();
  return results_;
}

Study Study::run(const StudyConfig& config) {
  Study study(config);
  study.run(RunOptions{});
  return study;
}

}  // namespace v6::core
