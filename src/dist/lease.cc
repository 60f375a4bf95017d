#include "dist/lease.h"

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace v6::dist {

namespace {

// The deterministic counter families a completing lease reports (see
// run_lease()), sorted by (name, labels) as every snapshot is.
obs::Snapshot completion_snapshot(const hitlist::PassiveCollector& collector) {
  obs::Registry registry;
  hitlist::count_collection(registry, collector.polls_attempted(),
                            collector.polls_answered(),
                            collector.vantage_health());
  return registry.snapshot();
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
