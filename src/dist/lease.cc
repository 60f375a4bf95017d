#include "dist/lease.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace v6::dist {

namespace {

// The deterministic counter families a completing lease reports (see
// run_lease()).
obs::Snapshot completion_snapshot(const hitlist::PassiveCollector& collector) {
  obs::Snapshot snap;
  const auto counter = [&snap](std::string_view name, std::string_view help,
                               obs::Labels labels, std::uint64_t value) {
    obs::MetricSample s;
    s.name = std::string(name);
    s.help = std::string(help);
    s.type = obs::MetricType::kCounter;
    s.labels = std::move(labels);
    s.counter_value = value;
    snap.samples.push_back(std::move(s));
  };
  counter("v6_collector_polls_total",
          "NTP poll packets attempted by pool clients", {},
          collector.polls_attempted());
  counter("v6_collector_answered_total",
          "Poll attempts whose response passed client-side validation", {},
          collector.polls_answered());
  const std::vector<hitlist::VantageHealthStats>& health =
      collector.vantage_health();
  for (std::size_t v = 0; v < health.size(); ++v) {
    const obs::Labels labels{{"vantage", std::to_string(v)}};
    counter(obs::kVantagePollsFamily,
            "Recorded poll packets steered to this vantage", labels,
            health[v].polls);
    counter(obs::kVantageAnsweredFamily,
            "Poll attempts this vantage answered past client validation",
            labels, health[v].answered);
    counter(obs::kVantageFaultLostFamily,
            "Poll attempts the fault plan swallowed at this vantage", labels,
            health[v].lost_to_fault);
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

}  // namespace

LeaseResult run_lease(const NodeEnv& env, util::ShardRange devices,
                      util::SimDuration chunk_interval,
                      const hitlist::CheckpointState& from,
                      hitlist::Corpus& corpus,
                      const hitlist::CheckpointSink& upload_sink) {
  obs::Registry registry;
  obs::TimelineSampler sampler(registry, chunk_interval, from.window_start);
  hitlist::CollectorConfig cfg = env.collector;
  cfg.metrics = &registry;
  cfg.sampler = &sampler;
  cfg.checkpoint_interval = chunk_interval;
  cfg.device_begin = devices.begin;
  cfg.device_end = devices.end;

  hitlist::PassiveCollector collector(*env.world, *env.plane, *env.dns, cfg);
  collector.resume(corpus, from, {}, upload_sink);
  // Close the lease's final window: the collector leaves the window-end
  // sample to the caller.
  sampler.sample(from.window_end, cfg.sampler_stage);

  return {{from.window_start, from.window_end, from.window_end,
           collector.polls_attempted(), collector.polls_answered(),
           collector.vantage_health()},
          {completion_snapshot(collector), sampler.take()}};
}

}  // namespace v6::dist
