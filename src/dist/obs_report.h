// Builds the kObsReport payload a completing lease uploads: the
// collector's cumulative, checkpoint-restored counter totals plus the
// lease's timeline windows. Shared by the in-process SimCluster and the
// real-process Worker so both paths put bit-identical deterministic
// families on the wire.
#pragma once

#include "dist/protocol.h"
#include "hitlist/passive_collector.h"

namespace v6::dist {

// The deterministic counter families a completing lease reports, built
// from the collector's getters (polls_attempted / polls_answered /
// vantage_health) — cumulative values the checkpoint machinery restores
// across reassignments. The per-lease registry flushes are deliberately
// NOT used: they only cover work since the last resume, so a reassigned
// lease would undercount. Names and help strings mirror the collector's
// own registrations; samples are sorted by (name, labels) exactly like
// Registry::snapshot(), so the aggregated cluster exposition is diffable
// against the single-process run.
obs::Snapshot completion_snapshot(const hitlist::PassiveCollector& collector);

// completion_snapshot() plus the lease sampler's windows, ready for
// encode_obs_report().
ObsReport build_obs_report(const hitlist::PassiveCollector& collector,
                           obs::Timeline windows);

}  // namespace v6::dist
