#include "obs/timeline.h"

#include <algorithm>
#include <bit>
#include <charconv>

#include "obs/exposition.h"

namespace v6::obs {

namespace {

// Same injective key the registry index uses: name + '\x1f'-joined labels.
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('\x1f');
    key.append(v);
  }
  return key;
}

// If `name` is one of the per-vantage collector families, returns the
// VantageWindow field its delta accumulates into; nullptr otherwise.
std::uint64_t VantageWindow::* vantage_field(std::string_view name) {
  if (name == kVantagePollsFamily) return &VantageWindow::polls;
  if (name == kVantageAnsweredFamily) return &VantageWindow::answered;
  if (name == kVantageFaultLostFamily) return &VantageWindow::fault_lost;
  if (name == kVantageRecordsFamily) return &VantageWindow::records;
  return nullptr;
}

// The decimal "vantage" label value, or nullopt when absent/malformed
// (the sample then stays in the generic counter list).
std::optional<std::uint32_t> vantage_id(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    if (k != "vantage") continue;
    std::uint32_t id = 0;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), id);
    if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
    return id;
  }
  return std::nullopt;
}

}  // namespace

TimelineSampler::TimelineSampler(const Registry& registry,
                                 util::SimDuration interval,
                                 util::SimTime origin)
    : registry_(&registry),
      interval_(std::max<util::SimDuration>(interval, 1)),
      origin_(origin),
      last_(origin) {}

util::SimTime TimelineSampler::next_boundary(util::SimTime t) const noexcept {
  if (t < origin_) return origin_;
  return origin_ + ((t - origin_) / interval_ + 1) * interval_;
}

bool TimelineSampler::on_boundary(util::SimTime t) const noexcept {
  return t >= origin_ && (t - origin_) % interval_ == 0;
}

void TimelineSampler::sample(util::SimTime at, std::string_view stage) {
  WindowRecord rec;
  rec.begin = last_;
  // Stages replay sim windows the pipeline already passed (campaigns
  // re-cover the collection window); clamping keeps the timeline monotone.
  rec.end = std::max(at, last_);
  rec.stage = std::string(stage);

  const Snapshot snap = registry_->snapshot();
  // std::map: vantage series come out sorted by id.
  std::map<std::uint32_t, VantageWindow> vantages;
  for (const auto& s : snap.samples) {
    switch (s.type) {
      case MetricType::kCounter: {
        auto [it, inserted] =
            prev_counters_.try_emplace(series_key(s.name, s.labels), 0);
        const std::uint64_t delta = s.counter_value - it->second;
        it->second = s.counter_value;
        if (delta == 0) break;
        if (auto field = vantage_field(s.name)) {
          if (const auto id = vantage_id(s.labels)) {
            VantageWindow& vw = vantages[*id];
            vw.vantage = *id;
            vw.*field += delta;
            break;
          }
        }
        rec.counters.push_back(WindowCounter{s.name, s.labels, delta});
        break;
      }
      case MetricType::kGauge: {
        // Bit comparison, not ==: NaN-safe and distinguishes -0.0, so the
        // record is exactly "the stored bits changed".
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(s.gauge_value);
        auto [it, inserted] =
            prev_gauge_bits_.try_emplace(series_key(s.name, s.labels), bits);
        if (!inserted) {
          if (it->second == bits) break;
          it->second = bits;
        }
        rec.gauges.push_back(WindowGauge{s.name, s.labels, s.gauge_value});
        break;
      }
      case MetricType::kHistogram: {
        // Count/sum movement only; bucket shapes stay in the end-of-run
        // snapshot. These fields carry wall-clock timings (stage
        // durations, serve latency) and are explicitly outside the
        // timeline's bit-identity contract.
        const std::string key = series_key(s.name, s.labels);
        auto [cit, cfresh] = prev_hist_counts_.try_emplace(key, 0);
        auto [sit, sfresh] = prev_hist_sums_.try_emplace(key, 0.0);
        const std::uint64_t count_delta = s.histogram.count - cit->second;
        const double sum_delta = s.histogram.sum - sit->second;
        cit->second = s.histogram.count;
        sit->second = s.histogram.sum;
        if (count_delta == 0) break;
        rec.histograms.push_back(
            WindowHistogram{s.name, s.labels, count_delta, sum_delta});
        break;
      }
    }
  }
  rec.vantages.reserve(vantages.size());
  for (auto& [id, vw] : vantages) rec.vantages.push_back(vw);

  last_ = rec.end;
  timeline_.push_back(std::move(rec));
}

// --- Exposition ------------------------------------------------------------

namespace {

// `name{label="v"}` — the Prometheus series notation, reused here so
// timeline series names match the metrics exposition byte for byte.
std::string series_name(std::string_view name, const Labels& labels) {
  std::string out(name);
  out += detail::label_block(labels);
  return out;
}

std::string render_timeline_jsonl(const Timeline& timeline) {
  JsonWriter w;
  for (const WindowRecord& rec : timeline) {
    w.begin_object();
    write_window_members(w, rec);
    w.end_object();
  }
  return w.take();
}

// RFC 4180: quote when the field contains a comma, quote, or newline;
// double embedded quotes.
void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

std::string render_timeline_csv(const Timeline& timeline) {
  std::string out = "begin,end,stage,kind,series,value\n";
  const auto row = [&out](util::SimTime begin, util::SimTime end,
                          std::string_view stage, std::string_view kind,
                          std::string_view series, std::string_view value) {
    out += std::to_string(begin);
    out.push_back(',');
    out += std::to_string(end);
    out.push_back(',');
    append_csv_field(out, stage);
    out.push_back(',');
    out += kind;
    out.push_back(',');
    append_csv_field(out, series);
    out.push_back(',');
    out += value;
    out.push_back('\n');
  };
  for (const WindowRecord& rec : timeline) {
    for (const WindowCounter& c : rec.counters) {
      row(rec.begin, rec.end, rec.stage, "counter",
          series_name(c.name, c.labels), std::to_string(c.delta));
    }
    for (const WindowGauge& g : rec.gauges) {
      row(rec.begin, rec.end, rec.stage, "gauge",
          series_name(g.name, g.labels), detail::format_double(g.value));
    }
    for (const WindowHistogram& h : rec.histograms) {
      row(rec.begin, rec.end, rec.stage, "histogram_count",
          series_name(h.name, h.labels), std::to_string(h.count_delta));
      row(rec.begin, rec.end, rec.stage, "histogram_sum",
          series_name(h.name, h.labels), detail::format_double(h.sum_delta));
    }
    for (const VantageWindow& vw : rec.vantages) {
      const std::string vantage = std::to_string(vw.vantage);
      row(rec.begin, rec.end, rec.stage, "vantage_polls", vantage,
          std::to_string(vw.polls));
      row(rec.begin, rec.end, rec.stage, "vantage_answered", vantage,
          std::to_string(vw.answered));
      row(rec.begin, rec.end, rec.stage, "vantage_fault_lost", vantage,
          std::to_string(vw.fault_lost));
      row(rec.begin, rec.end, rec.stage, "vantage_records", vantage,
          std::to_string(vw.records));
    }
  }
  return out;
}

}  // namespace

std::optional<TimelineFormat> parse_timeline_format(std::string_view name) {
  if (name == "jsonl" || name == "json") return TimelineFormat::kJsonl;
  if (name == "csv") return TimelineFormat::kCsv;
  return std::nullopt;
}

std::string_view timeline_format_suffix(TimelineFormat format) {
  return format == TimelineFormat::kCsv ? "csv" : "jsonl";
}

std::string render_timeline(const Timeline& timeline, TimelineFormat format) {
  return format == TimelineFormat::kCsv ? render_timeline_csv(timeline)
                                        : render_timeline_jsonl(timeline);
}

void write_window_members(JsonWriter& w, const WindowRecord& rec) {
  w.key("begin").integer(rec.begin).key("end").integer(rec.end);
  w.key("stage").string(rec.stage);
  w.key("counters").begin_object();
  for (const WindowCounter& c : rec.counters) {
    w.key(series_name(c.name, c.labels)).integer(c.delta);
  }
  w.end_object().key("gauges").begin_object();
  for (const WindowGauge& g : rec.gauges) {
    w.key(series_name(g.name, g.labels)).number(g.value);
  }
  w.end_object().key("histograms").begin_object();
  for (const WindowHistogram& h : rec.histograms) {
    w.key(series_name(h.name, h.labels)).begin_object();
    w.key("count").integer(h.count_delta).key("sum").number(h.sum_delta);
    w.end_object();
  }
  w.end_object().key("vantages").begin_array();
  for (const VantageWindow& vw : rec.vantages) {
    w.begin_object()
        .key("vantage").integer(vw.vantage)
        .key("polls").integer(vw.polls)
        .key("answered").integer(vw.answered)
        .key("fault_lost").integer(vw.fault_lost)
        .key("records").integer(vw.records)
        .end_object();
  }
  w.end_array();
}

std::optional<std::string> lint_timeline_jsonl(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  std::optional<std::int64_t> prev_end;
  const auto fail = [&](std::string_view what) {
    return "line " + std::to_string(line_no) + ": " + std::string(what);
  };
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    const JsonParse parsed = parse_json(line);
    if (parsed.error) return fail(*parsed.error);
    const JsonValue& window = parsed.root;
    if (window.kind != JsonValue::Kind::kObject) {
      return fail("window is not a JSON object");
    }
    const auto begin = window.int_member("begin");
    const auto end = window.int_member("end");
    if (!begin || !end) return fail("missing integer begin/end");
    const JsonValue* stage = window.find("stage");
    if (stage == nullptr || stage->kind != JsonValue::Kind::kString) {
      return fail("missing stage");
    }
    if (*begin > *end) return fail("begin after end");
    if (prev_end && *begin != *prev_end) {
      return fail("gap: begin does not match previous window's end");
    }
    prev_end = *end;
  }
  return std::nullopt;
}

}  // namespace v6::obs
