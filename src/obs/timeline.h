// Sim-time time-series observability: the TimelineSampler.
//
// The end-of-run metrics snapshot (obs/metrics.h) can say how many records
// a 219-day study produced, but not *when*, from which vantage, or how a
// fault window bent the curve. The sampler closes that gap: registered
// with a Registry, it is invoked at deterministic pipeline boundaries —
// collector shard-merge/checkpoint points and stage transitions, never
// wall-clock timers — folds a snapshot, diffs it against the previous
// sample, and appends one WindowRecord per window.
//
// Determinism contract: every sample() call happens at a merge barrier
// (all collection shards joined, or between sequential stages), where each
// striped counter's fold is an exact integer sum of the increments issued
// so far — a pure function of the simulated workload, independent of
// thread count. Histogram count/sum movement IS folded into each window
// (WindowRecord::histograms) so latency histograms show up on the
// timeline, but those fields stay OUTSIDE the bit-identity guarantee the
// timeline tests pin down (identical counter/gauge/vantage sequences at
// threads {1, 2, 4}): the analysis and serve layers observe wall-clock
// timings into them.
//
// Windows are contiguous and gapless: window k covers
// (timeline[k-1].end, timeline[k].end]. Stages whose *simulated* window
// lies before the pipeline's current position (the campaigns re-cover the
// collection window after collect finished) are clamped to zero-width
// windows at the current position, keeping the timeline — and the Chrome
// trace export built from it — monotone in sim time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "util/sim_time.h"

namespace v6::obs {

// Counter families the sampler folds into per-vantage series instead of
// the generic counter list (label "vantage" holds the decimal vantage id).
// The passive collector registers and bulk-feeds these at its merge
// barriers.
inline constexpr std::string_view kVantagePollsFamily =
    "v6_collector_vantage_polls_total";
inline constexpr std::string_view kVantageAnsweredFamily =
    "v6_collector_vantage_answered_total";
inline constexpr std::string_view kVantageFaultLostFamily =
    "v6_collector_vantage_fault_lost_total";
inline constexpr std::string_view kVantageRecordsFamily =
    "v6_collector_vantage_records_total";

// One vantage's activity inside one window. `records` counts observations
// recorded into the shard corpora via this vantage, pre-dedup (the global
// v6_collector_records_total dedups across vantages, so it has no exact
// per-vantage split).
struct VantageWindow {
  std::uint32_t vantage = 0;
  std::uint64_t polls = 0;
  std::uint64_t answered = 0;
  std::uint64_t fault_lost = 0;
  std::uint64_t records = 0;
};

// A counter family instance's increase over one window. Zero deltas are
// omitted from the record.
struct WindowCounter {
  std::string name;
  Labels labels;
  std::uint64_t delta = 0;
};

// A gauge's value at the window's close. Only gauges whose bit pattern
// changed since the previous window (or that are new) are recorded.
struct WindowGauge {
  std::string name;
  Labels labels;
  double value = 0.0;
};

// A histogram family instance's movement over one window: how many
// observations landed and how much they summed to. Bucket-level deltas are
// deliberately not carried — the end-of-run snapshot has the full bucket
// shape; the timeline only needs to show *when* observations happened.
// Histograms record wall-clock timings (stage durations, serve latency),
// so these fields are real but NOT covered by the bit-identity contract
// the counter/gauge/vantage fields obey.
struct WindowHistogram {
  std::string name;
  Labels labels;
  std::uint64_t count_delta = 0;
  double sum_delta = 0.0;
};

// One sampling window: (begin, end] in sim time, the pipeline stage that
// closed it, and everything that moved inside it. Counters and gauges
// inherit Registry::snapshot()'s (name, labels) sort order; vantages are
// sorted by id — the record is fully deterministic.
struct WindowRecord {
  util::SimTime begin = 0;
  util::SimTime end = 0;
  std::string stage;
  std::vector<WindowCounter> counters;
  std::vector<WindowGauge> gauges;
  std::vector<VantageWindow> vantages;
  // Wall-clock histogram movement; excluded from bit-identity assertions.
  std::vector<WindowHistogram> histograms;
};

using Timeline = std::vector<WindowRecord>;

// The sampler. Not thread-safe: sample() is only ever called from the
// coordinating thread at merge barriers (the points where it is exact).
class TimelineSampler {
 public:
  // `interval` is the sim-time grid spacing inside long stages (the
  // collector samples at origin + k * interval boundaries); stage
  // transitions sample regardless of the grid. `origin` anchors the grid
  // and opens the first window.
  TimelineSampler(const Registry& registry, util::SimDuration interval,
                  util::SimTime origin);

  util::SimDuration interval() const noexcept { return interval_; }

  // First grid boundary strictly after `t` (origin + k * interval).
  util::SimTime next_boundary(util::SimTime t) const noexcept;
  // True when `t` lies exactly on the grid.
  bool on_boundary(util::SimTime t) const noexcept;

  // Closes the window (previous end, max(at, previous end)] tagged with
  // `stage`: folds a registry snapshot, diffs counters against the last
  // sample, captures changed gauges, and splits the per-vantage families
  // out into VantageWindow series.
  void sample(util::SimTime at, std::string_view stage);

  const Timeline& timeline() const noexcept { return timeline_; }
  Timeline take() { return std::move(timeline_); }

 private:
  const Registry* registry_;
  util::SimDuration interval_;
  util::SimTime origin_;
  util::SimTime last_;
  // Previous folded values, keyed by name + serialized labels.
  std::map<std::string, std::uint64_t> prev_counters_;
  std::map<std::string, std::uint64_t> prev_gauge_bits_;
  std::map<std::string, std::uint64_t> prev_hist_counts_;
  std::map<std::string, double> prev_hist_sums_;
  Timeline timeline_;
};

// --- Exposition ------------------------------------------------------------

enum class TimelineFormat : std::uint8_t { kJsonl, kCsv };

// "jsonl"/"json" or "csv" (case-sensitive); nullopt otherwise.
std::optional<TimelineFormat> parse_timeline_format(std::string_view name);

// File suffix convention for a format ("jsonl" / "csv").
std::string_view timeline_format_suffix(TimelineFormat format);

// Byte-deterministic rendering: one JSON object per line (kJsonl) or a
// long-form CSV (begin,end,stage,kind,series,value) with RFC 4180
// quoting (kCsv).
std::string render_timeline(const Timeline& timeline, TimelineFormat format);

// Writes one window's members (begin, end, stage, counters, gauges,
// histograms, vantages) into the object open in `w`: one JSONL line of
// render_timeline(kJsonl) is exactly these members in one object. The
// cluster timeline writes its "worker" member first, so both window
// shapes stay byte-compatible.
void write_window_members(JsonWriter& w, const WindowRecord& rec);

// Validates a JSONL timeline export: every line parses as a JSON object
// whose own members carry integer begin/end and a string stage, windows
// are well-formed (begin <= end) and gapless (each begin equals the
// previous end). Returns nullopt on success, else "line N: <problem>".
std::optional<std::string> lint_timeline_jsonl(std::string_view text);

}  // namespace v6::obs
