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
    dns_->set_health_monitor(faults_.get(), config.pool_monitor_delay);
  }
}

serve::QueryService& Study::query_service() {
  if (serve_ == nullptr) {
    serve_ = std::make_unique<serve::QueryService>();
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
      serve_->publish(analysis::make_source(u), t);
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

void Study::do_collect(const hitlist::CheckpointSink& sink) {
  if (collected_) return;
  collected_ = true;
  hitlist::PassiveCollector collector(*world_, *plane_, *dns_,
                                      collector_config());
  const util::SimTime start = config_.world.study_start;
  const util::SimTime end = start + config_.world.study_duration;
  if (config_.spill.active()) {
    // Out-of-core: shard tables flush to sorted runs at merge barriers;
    // the merged stream is what every later stage reads.
    results_.ntp_runs = std::make_unique<hitlist::TieredCorpus>(
        config_.spill, config_.metrics ? metrics_.get() : nullptr);
    collector.run(*results_.ntp_runs, start, end, {}, sink);
  } else {
    collector.run(results_.ntp, start, end, {}, sink);
  }
  results_.polls_attempted = collector.polls_attempted();
  results_.polls_answered = collector.polls_answered();
  results_.vantage_health = collector.vantage_health();
  if (config_.metrics) set_vantage_gauges(*metrics_, results_.vantage_health);
}

void Study::do_resume_collect(hitlist::CollectionCheckpoint&& checkpoint,
                              const hitlist::CheckpointSink& sink) {
  if (collected_) return;
  collected_ = true;
  hitlist::PassiveCollector collector(*world_, *plane_, *dns_,
                                      collector_config());
  if (config_.spill.active()) {
    // Resume honors the memory budget: the checkpointed snapshot becomes
    // the TieredCorpus's first spilled run and the resumed tail flushes
    // through the same deterministic barriers as a fresh spilled run.
    results_.ntp_runs = std::make_unique<hitlist::TieredCorpus>(
        config_.spill, config_.metrics ? metrics_.get() : nullptr);
    collector.resume(*results_.ntp_runs, std::move(checkpoint.corpus),
                     checkpoint.state, {}, sink);
  } else {
    results_.ntp = std::move(checkpoint.corpus);
    collector.resume(results_.ntp, checkpoint.state, {}, sink);
  }
  results_.polls_attempted = collector.polls_attempted();
  results_.polls_answered = collector.polls_answered();
  results_.vantage_health = collector.vantage_health();
  if (config_.metrics) set_vantage_gauges(*metrics_, results_.vantage_health);
}

void Study::do_collect_distributed(
    const dist::DistConfig& dist_config,
    std::optional<hitlist::CollectionCheckpoint>&& checkpoint) {
  if (collected_) return;
  collected_ = true;
  dist::SimCluster cluster(*world_, *plane_, *dns_, config_.collector,
                           dist_config, nullptr,
                           config_.metrics ? metrics_.get() : nullptr,
                           config_.metrics ? sampler_ : nullptr);
  hitlist::CheckpointState from = hitlist::CheckpointState::fresh(
      config_.world.study_start,
      config_.world.study_start + config_.world.study_duration);
  hitlist::Corpus snapshot(1);
  if (checkpoint) {
    from = std::move(checkpoint->state);
    snapshot = std::move(checkpoint->corpus);
  }
  if (config_.spill.active()) {
    // Each device range's final corpus becomes one spilled run; a resumed
    // snapshot is the first.
    results_.ntp_runs = std::make_unique<hitlist::TieredCorpus>(
        config_.spill, config_.metrics ? metrics_.get() : nullptr);
    results_.ntp_runs->spill(std::move(snapshot));
    results_.dist = cluster.run(*results_.ntp_runs, from);
  } else {
    results_.ntp = std::move(snapshot);
    results_.dist = cluster.run(results_.ntp, from);
  }
  results_.polls_attempted = results_.dist->polls_attempted;
  results_.polls_answered = results_.dist->polls_answered;
  results_.vantage_health = results_.dist->vantage_health;
  if (config_.metrics) set_vantage_gauges(*metrics_, results_.vantage_health);
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
  results_.backscan_week.for_each([&](const hitlist::AddressRecord& rec) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.ntp_clients_in_aliased;
    }
  });
  results_.hitlist.corpus.for_each([&](const hitlist::AddressRecord& rec) {
    if (ours.contains(net::slash64_of(rec.address))) {
      ++check.hitlist_addresses_in_aliased;
    }
  });
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
  const analysis::ScanSource ntp_src =
      results_.ntp_runs != nullptr ? analysis::make_source(*results_.ntp_runs)
                                   : analysis::make_source(results_.ntp);

  // Fig 1: IID entropy over the NTP corpus.
  report.entropy = analysis::entropy_distribution(ntp_src, cfg, stats);

  // Table 1: the NTP corpus is the base; campaign datasets (if collected)
  // get intersection columns against it. A tiered base has no membership
  // probe — summarize_dataset inverts the intersection scan instead.
  report.table1.clear();
  report.table1.push_back(analysis::summarize_dataset(
      "NTP corpus", ntp_src, *world_, nullptr, cfg, stats));
  if (campaigned_) {
    report.table1.push_back(analysis::summarize_dataset(
        "IPv6 Hitlist", analysis::make_source(results_.hitlist.corpus),
        *world_, &ntp_src, cfg, stats));
    report.table1.push_back(analysis::summarize_dataset(
        "CAIDA", analysis::make_source(results_.caida.corpus), *world_,
        &ntp_src, cfg, stats));
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
  const auto tally = [&](const hitlist::AddressRecord& rec) {
    if (const auto as_index = world_->as_index_of(rec.address)) {
      ++counts[world_->country_of_as(*as_index)];
    }
  };
  if (results_.ntp_runs != nullptr) {
    results_.ntp_runs->for_each_merged(tally);
  } else {
    results_.ntp.for_each(tally);
  }
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
    // Device ranges checkpoint independently; there is no single-process
    // cursor to hand the sink. Fail loudly rather than never call it.
    throw std::invalid_argument(
        "RunOptions::distributed is incompatible with checkpoint_sink "
        "(checkpoints flow through the coordinator protocol)");
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
    sampler_ = sampler.get();
  }

  // Serving: interior epochs come from the collector's merge barriers
  // (collector_config() wires the sink); the final window-end epoch is
  // published below regardless of path. Distributed collection runs the
  // cluster's own merge protocol, so it publishes the final epoch only.
  const bool serving = options.serve.enabled;
  if (serving) {
    query_service().set_retain_epochs(options.serve.retain_epochs);
    if (!options.distributed) {
      serve_epoch_interval_ = options.serve.epoch_interval;
    }
  }

  // Spans are stamped with the *simulated* window each stage covers (the
  // study runs on a virtual clock); skipped/already-done stages record no
  // span.
  const auto root = tracer.begin_span("study.run", study_start);
  if (options.collect && !collected_) {
    const auto span = tracer.begin_span("study.collect", study_start);
    if (options.distributed) {
      do_collect_distributed(*options.distributed,
                             std::move(options.resume_from));
    } else if (options.resume_from) {
      do_resume_collect(std::move(*options.resume_from),
                        options.checkpoint_sink);
    } else {
      do_collect(options.checkpoint_sink);
    }
    if (serving) {
      // The window-end epoch: every serving run that collected publishes
      // at least one snapshot covering the full (canonicalized) corpus.
      const analysis::ScanSource src =
          results_.ntp_runs != nullptr
              ? analysis::make_source(*results_.ntp_runs)
              : analysis::make_source(results_.ntp);
      serve_->publish(src, study_end);
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

void Study::collect(const hitlist::CheckpointSink& sink) { do_collect(sink); }

void Study::resume_collect(hitlist::CollectionCheckpoint&& checkpoint,
                           const hitlist::CheckpointSink& sink) {
  do_resume_collect(std::move(checkpoint), sink);
}

void Study::run_campaigns() { do_campaigns(); }

void Study::run_backscan() { do_backscan(); }

void Study::run_analysis() { do_analysis(); }

Study Study::run(const StudyConfig& config) {
  Study study(config);
  study.run(RunOptions{});
  return study;
}

}  // namespace v6::core
