#include "obs/trace_export.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace v6::obs {

namespace {

// Opens one event object and writes its common members:
// {"name":...,"ph":"B","ts":N,"pid":P,"tid":T. The caller adds any
// further members and closes it.
JsonWriter& begin_event(JsonWriter& w, std::string_view name,
                        std::string_view ph, std::int64_t ts,
                        std::int64_t pid, int tid) {
  return w.begin_object()
      .key("name").string(name)
      .key("ph").string(ph)
      .key("ts").integer(ts)
      .key("pid").integer(pid)
      .key("tid").integer(tid);
}

// Emits one process lane: the process_name event when the lane is named,
// then spans on tid 1 and windows on tid 2.
void write_lane(JsonWriter& w, const TraceLane& lane) {
  const std::int64_t pid = lane.pid;
  if (!lane.name.empty()) {
    // process_name metadata labels the pid lane in the viewer. ts/tid are
    // carried (0) so the linter's per-event requirements stay uniform.
    begin_event(w, "process_name", "M", 0, pid, 0)
        .key("args").begin_object().key("name").string(lane.name)
        .end_object().end_object();
  }

  // Spans → B/E pairs on tid 1. Walk the spans in recorded order keeping a
  // stack of open span indices; before opening span i, close everything on
  // the stack that is not i's ancestor (innermost first — exactly the
  // nesting the tracer recorded). `cursor` clamps ts monotone: a span
  // recorded as ending after its successor began (sim windows can touch or
  // overlap across stages) still closes at the successor's begin.
  std::vector<std::size_t> open;
  std::int64_t cursor = 0;
  bool cursor_set = false;
  const auto clamp = [&cursor, &cursor_set](std::int64_t ts) {
    if (!cursor_set || ts > cursor) cursor = ts;
    cursor_set = true;
    return cursor;
  };
  const auto close_top = [&] {
    const SpanRecord& span = lane.spans[open.back()];
    begin_event(w, span.name, "E", clamp(std::max(span.begin, span.end)),
                pid, 1)
        .end_object();
    open.pop_back();
  };
  for (std::size_t i = 0; i < lane.spans.size(); ++i) {
    const SpanRecord& span = lane.spans[i];
    while (!open.empty() &&
           static_cast<std::int32_t>(open.back()) != span.parent) {
      close_top();
    }
    begin_event(w, span.name, "B", clamp(span.begin), pid, 1).end_object();
    open.push_back(i);
  }
  while (!open.empty()) close_top();

  // Windows → X complete events + C throughput counters on tid 2.
  for (const WindowRecord& rec : lane.timeline) {
    begin_event(w, rec.stage, "X", rec.begin, pid, 2)
        .key("dur").integer(rec.end - rec.begin)
        .end_object();
    std::uint64_t records = 0;
    std::uint64_t answered = 0;
    std::uint64_t fault_lost = 0;
    for (const VantageWindow& vw : rec.vantages) {
      records += vw.records;
      answered += vw.answered;
      fault_lost += vw.fault_lost;
    }
    begin_event(w, "window_throughput", "C", rec.end, pid, 2)
        .key("args").begin_object()
        .key("records").integer(records)
        .key("answered").integer(answered)
        .key("fault_lost").integer(fault_lost)
        .end_object().end_object();
  }
}

}  // namespace

std::string render_trace_events(const Snapshot& snapshot,
                                const Timeline& timeline) {
  return render_cluster_trace({TraceLane{1, {}, snapshot.spans, timeline}});
}

std::string render_cluster_trace(const std::vector<TraceLane>& lanes) {
  // One event per line, unindented.
  JsonWriter w(0);
  w.begin_object().key("displayTimeUnit").string("ms");
  w.key("traceEvents").begin_array(JsonWriter::Layout::kLines);
  for (const TraceLane& lane : lanes) write_lane(w, lane);
  w.end_array().end_object();
  return w.take();
}

std::optional<std::string> lint_trace_events(std::string_view text) {
  const JsonParse parsed = parse_json(text);
  if (parsed.error) return parsed.error;
  const JsonValue* events = parsed.root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return "missing traceEvents array";
  }

  // Walk the events in order, tracking per-(pid, tid) ts monotonicity and
  // B/E balance.
  using Lane = std::pair<std::int64_t, std::int64_t>;
  std::map<Lane, std::int64_t> last_ts;
  std::map<Lane, std::int64_t> open_depth;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& event = events->items[i];
    const auto fail = [i](std::string_view what) {
      return "event " + std::to_string(i) + ": " + std::string(what);
    };
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString) {
      return fail("event missing ph");
    }
    const auto ts = event.int_member("ts");
    const auto tid = event.int_member("tid");
    if (!ts) return fail("event missing integer ts");
    if (!tid) return fail("event missing integer tid");
    const std::optional<std::int64_t> pid =
        event.find("pid") != nullptr ? event.int_member("pid") : 1;
    if (!pid) return fail("event pid is not an integer");
    const Lane lane{*pid, *tid};
    if (const auto it = last_ts.find(lane);
        it != last_ts.end() && *ts < it->second) {
      return fail("ts not monotone within pid/tid lane");
    }
    last_ts[lane] = *ts;
    if (ph->text == "B") {
      ++open_depth[lane];
    } else if (ph->text == "E") {
      if (open_depth[lane] == 0) return fail("E without matching B");
      --open_depth[lane];
    }
  }
  for (const auto& [lane, depth] : open_depth) {
    if (depth != 0) {
      return "pid " + std::to_string(lane.first) + " tid " +
             std::to_string(lane.second) + ": " + std::to_string(depth) +
             " unclosed B event(s)";
    }
  }
  return std::nullopt;
}

}  // namespace v6::obs
