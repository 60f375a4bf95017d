#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"

namespace v6::obs {

namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

// One trace event line: {"name":...,"ph":"B","ts":N,"pid":P,"tid":T[,args]}
void append_event(std::string& out, std::string_view name, char ph,
                  std::int64_t ts, std::int64_t pid, int tid,
                  std::string_view extra = {}) {
  out += "{\"name\":";
  detail::append_json_string(out, name);
  out += ",\"ph\":\"";
  out.push_back(ph);
  out += "\",\"ts\":";
  append_i64(out, ts);
  out += ",\"pid\":";
  append_i64(out, pid);
  out += ",\"tid\":";
  append_i64(out, tid);
  out += extra;
  out += "}";
}

// Emits one process lane (spans on tid 1, windows on tid 2) under `pid`.
// `first` threads the top-level event-separator state across lanes.
void append_lane(std::string& out, bool& first, std::int64_t pid,
                 const Snapshot& snapshot, const Timeline& timeline) {
  const auto emit = [&out, &first, pid](std::string_view name, char ph,
                                        std::int64_t ts, int tid,
                                        std::string_view extra = {}) {
    if (!first) out += ",\n";
    first = false;
    append_event(out, name, ph, ts, pid, tid, extra);
  };

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
  const auto close_top = [&](const std::vector<SpanRecord>& spans) {
    const SpanRecord& span = spans[open.back()];
    emit(span.name, 'E', clamp(std::max(span.begin, span.end)), 1);
    open.pop_back();
  };
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanRecord& span = snapshot.spans[i];
    while (!open.empty() &&
           static_cast<std::int32_t>(open.back()) != span.parent) {
      close_top(snapshot.spans);
    }
    emit(span.name, 'B', clamp(span.begin), 1);
    open.push_back(i);
  }
  while (!open.empty()) close_top(snapshot.spans);

  // Windows → X complete events + C throughput counters on tid 2.
  for (const WindowRecord& rec : timeline) {
    std::string extra = ",\"dur\":";
    append_i64(extra, rec.end - rec.begin);
    emit(rec.stage, 'X', rec.begin, 2, extra);
    std::uint64_t records = 0;
    std::uint64_t answered = 0;
    std::uint64_t fault_lost = 0;
    for (const VantageWindow& vw : rec.vantages) {
      records += vw.records;
      answered += vw.answered;
      fault_lost += vw.fault_lost;
    }
    std::string args = ",\"args\":{\"records\":";
    append_i64(args, static_cast<std::int64_t>(records));
    args += ",\"answered\":";
    append_i64(args, static_cast<std::int64_t>(answered));
    args += ",\"fault_lost\":";
    append_i64(args, static_cast<std::int64_t>(fault_lost));
    args += "}";
    emit("window_throughput", 'C', rec.end, 2, args);
  }
}

}  // namespace

std::string render_trace_events(const Snapshot& snapshot,
                                const Timeline& timeline) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  append_lane(out, first, 1, snapshot, timeline);
  out += "\n]}\n";
  return out;
}

std::string render_cluster_trace(const std::vector<TraceLane>& lanes) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceLane& lane : lanes) {
    // process_name metadata labels the pid lane in the viewer. ts/tid are
    // carried (0) so the linter's per-event requirements stay uniform.
    if (!first) out += ",\n";
    first = false;
    std::string args = ",\"args\":{\"name\":";
    detail::append_json_string(args, lane.name);
    args += "}";
    append_event(out, "process_name", 'M', 0,
                 static_cast<std::int64_t>(lane.pid), 0, args);
    append_lane(out, first, static_cast<std::int64_t>(lane.pid),
                lane.snapshot, lane.timeline);
  }
  out += "\n]}\n";
  return out;
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
