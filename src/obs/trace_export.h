// Chrome trace-event export: Tracer spans + timeline windows rendered in
// the Trace Event Format that chrome://tracing and Perfetto load.
//
// Mapping:
//   * every SpanRecord becomes a B/E duration pair on tid 1, emitted via a
//     parent-stack walk over the spans in recorded order so the pairs nest
//     exactly as the tracer recorded them;
//   * every timeline WindowRecord becomes an X complete event on tid 2
//     (name = stage, dur = window length) plus one C counter event at the
//     window's close carrying the window's record/answer/fault-loss
//     throughput (summed over vantages);
//   * ts carries *simulated seconds* in the format's microsecond field —
//     the study clock is virtual, so the displayed unit is cosmetic and
//     small integers beat 10^6 scaling.
//
// Within each tid the emitted ts sequence is monotone non-decreasing
// (clamped where sim windows touch), which is what the format requires
// and what lint_trace_events() re-checks.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.h"
#include "obs/timeline.h"

namespace v6::obs {

// One process lane of a trace: the lane's spans and windows under their
// own Perfetto pid, so a cluster run loads as one lane per worker side by
// side. The lane views its inputs; they must outlive the render.
struct TraceLane {
  std::uint32_t pid = 1;
  // process_name shown by the viewer; an unnamed lane emits no
  // process_name metadata event.
  std::string name;
  std::span<const SpanRecord> spans;       // -> tid 1
  std::span<const WindowRecord> timeline;  // -> tid 2
};

// Byte-deterministic render of the lanes, in the order given (callers
// sort by worker id for determinism), as a JSON object
// {"displayTimeUnit", "traceEvents": [...]}. Any lane's inputs may be
// empty. One event per line, so linters and diffs stay line-oriented.
std::string render_cluster_trace(const std::vector<TraceLane>& lanes);

// The single-process trace: render_cluster_trace() of one unnamed lane
// with pid 1 holding `snapshot.spans` and `timeline`.
std::string render_trace_events(const Snapshot& snapshot,
                                const Timeline& timeline);

// Validates a trace-event export: the text parses as a JSON object whose
// "traceEvents" array holds events with a string ph and integer ts and
// tid (read from each event's own members), ts is monotone
// non-decreasing per (pid, tid) lane, and B/E events pair up (never
// unbalanced, all closed at the end). Events without an explicit pid
// count as pid 1. Returns nullopt on success, else a description.
std::optional<std::string> lint_trace_events(std::string_view text);

}  // namespace v6::obs
