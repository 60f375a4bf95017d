#include "obs/exposition.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace v6::obs {

namespace {

// Prometheus label-value escaping: `\` → `\\`, `"` → `\"`, newline → `\n`.
void append_escaped_label_value(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

}  // namespace

namespace detail {

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string label_block(const Labels& labels, std::string_view extra_key,
                        std::string_view extra_value) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    append_escaped_label_value(out, v);
    out.push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out += extra_key;
    out += "=\"";
    append_escaped_label_value(out, extra_value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

}  // namespace detail

namespace {

using detail::format_double;
using detail::label_block;

std::string_view type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string render_prometheus(const Snapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.samples.size() * 64);
  std::string_view current_family;
  for (const auto& sample : snapshot.samples) {
    // Samples are sorted by name, so each family's header is emitted
    // exactly once, before its first sample.
    if (sample.name != current_family) {
      current_family = sample.name;
      if (!sample.help.empty()) {
        out += "# HELP ";
        out += sample.name;
        out.push_back(' ');
        for (const char c : sample.help) {
          if (c == '\\') out += "\\\\";
          else if (c == '\n') out += "\\n";
          else out.push_back(c);
        }
        out.push_back('\n');
      }
      out += "# TYPE ";
      out += sample.name;
      out.push_back(' ');
      out += type_name(sample.type);
      out.push_back('\n');
    }
    switch (sample.type) {
      case MetricType::kCounter:
        out += sample.name;
        out += label_block(sample.labels);
        out.push_back(' ');
        out += format_double(static_cast<double>(sample.counter_value));
        out.push_back('\n');
        break;
      case MetricType::kGauge:
        out += sample.name;
        out += label_block(sample.labels);
        out.push_back(' ');
        out += format_double(sample.gauge_value);
        out.push_back('\n');
        break;
      case MetricType::kHistogram: {
        const auto& h = sample.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          cumulative += h.counts[i];
          const std::string le = i < h.bounds.size()
                                     ? format_double(h.bounds[i])
                                     : std::string("+Inf");
          out += sample.name;
          out += "_bucket";
          out += label_block(sample.labels, "le", le);
          out.push_back(' ');
          out += format_double(static_cast<double>(cumulative));
          out.push_back('\n');
        }
        out += sample.name;
        out += "_sum";
        out += label_block(sample.labels);
        out.push_back(' ');
        out += format_double(h.sum);
        out.push_back('\n');
        out += sample.name;
        out += "_count";
        out += label_block(sample.labels);
        out.push_back(' ');
        out += format_double(static_cast<double>(h.count));
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

// Metrics one per line with spaced members and compact label objects,
// then spans the same way.
std::string render_json(const Snapshot& snapshot) {
  using Layout = JsonWriter::Layout;
  JsonWriter w;
  w.begin_object(Layout::kLines).key("metrics").begin_array(Layout::kLines);
  for (const auto& sample : snapshot.samples) {
    w.begin_object(Layout::kSpaced)
        .key("name").string(sample.name)
        .key("type").string(type_name(sample.type))
        .key("labels").begin_object();
    for (const auto& [k, v] : sample.labels) w.key(k).string(v);
    w.end_object();
    switch (sample.type) {
      case MetricType::kCounter:
        w.key("value").integer(sample.counter_value);
        break;
      case MetricType::kGauge:
        w.key("value").number(sample.gauge_value);
        break;
      case MetricType::kHistogram: {
        const auto& h = sample.histogram;
        w.key("count").integer(h.count).key("sum").number(h.sum);
        w.key("buckets").begin_array(Layout::kSpaced);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          cumulative += h.counts[i];
          w.begin_object(Layout::kSpaced).key("le");
          if (i < h.bounds.size()) {
            w.number(h.bounds[i]);
          } else {
            w.string("+Inf");
          }
          w.key("count").integer(cumulative).end_object();
        }
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array().key("spans").begin_array(Layout::kLines);
  for (const auto& span : snapshot.spans) {
    w.begin_object(Layout::kSpaced)
        .key("name").string(span.name)
        .key("begin").integer(span.begin)
        .key("end").integer(span.end)
        .key("parent").integer(span.parent)
        .key("depth").integer(span.depth)
        .key("closed").boolean(span.closed)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

// --- Prometheus lint -------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  const auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!tail(c)) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

bool valid_value(std::string_view text) {
  if (text == "+Inf" || text == "-Inf" || text == "Inf" || text == "NaN") {
    return true;
  }
  if (text.empty()) return false;
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

// Parses `{k="v",...}`; advances `pos` past the closing brace and appends
// the parsed (name, raw value) pairs to `pairs` for series-identity checks.
// Label values must use the exposition escapes exactly: `\\`, `\"`, `\n` —
// a bare backslash before anything else, an unescaped quote mid-value
// (which ends the value early and is caught as a syntax error downstream),
// or a raw newline can't occur in a well-formed line.
std::optional<std::string> lint_labels(
    std::string_view line, std::size_t& pos,
    std::vector<std::pair<std::string, std::string>>& pairs) {
  ++pos;  // consume '{'
  bool first = true;
  while (pos < line.size() && line[pos] != '}') {
    if (!first) {
      if (line[pos] != ',') return "expected ',' between labels";
      ++pos;
    }
    first = false;
    const std::size_t name_start = pos;
    while (pos < line.size() && line[pos] != '=') ++pos;
    if (pos >= line.size()) return "label missing '='";
    const std::string_view label_name =
        line.substr(name_start, pos - name_start);
    if (!valid_label_name(label_name)) {
      return "invalid label name";
    }
    ++pos;  // '='
    if (pos >= line.size() || line[pos] != '"') {
      return "label value must be quoted";
    }
    ++pos;  // opening quote
    const std::size_t value_start = pos;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') {
        if (pos + 1 >= line.size()) return "dangling escape in label value";
        const char escaped = line[pos + 1];
        if (escaped != '\\' && escaped != '"' && escaped != 'n') {
          return "invalid escape in label value";
        }
        ++pos;  // escaped char
      }
      ++pos;
    }
    if (pos >= line.size()) return "unterminated label value";
    pairs.emplace_back(std::string(label_name),
                       std::string(line.substr(value_start,
                                               pos - value_start)));
    ++pos;  // closing quote
  }
  if (pos >= line.size()) return "unterminated label block";
  ++pos;  // '}'
  return std::nullopt;
}

// The family a sample name belongs to: histogram/summary series drop
// their _bucket/_sum/_count suffix.
std::string family_of(std::string_view name) {
  for (const std::string_view suffix :
       {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() && name.ends_with(suffix)) {
      return std::string(name.substr(0, name.size() - suffix.size()));
    }
  }
  return std::string(name);
}

}  // namespace

std::optional<ExpositionFormat> parse_format(std::string_view name) {
  if (name == "prom" || name == "prometheus" || name == "text") {
    return ExpositionFormat::kPrometheus;
  }
  if (name == "json") return ExpositionFormat::kJson;
  return std::nullopt;
}

std::string_view format_suffix(ExpositionFormat format) {
  return format == ExpositionFormat::kJson ? "json" : "prom";
}

std::string render(const Snapshot& snapshot, ExpositionFormat format) {
  return format == ExpositionFormat::kJson ? render_json(snapshot)
                                           : render_prometheus(snapshot);
}

std::optional<std::string> lint_prometheus(std::string_view text) {
  std::unordered_map<std::string, std::string> declared_type;
  std::unordered_set<std::string> family_sampled;
  std::unordered_set<std::string> helped;
  std::unordered_set<std::string> series_seen;
  // Histogram internal-consistency state, keyed by family + the sorted
  // non-le labels (one entry per histogram series group). std::map so the
  // end-of-scan checks report in a deterministic order.
  struct HistogramState {
    std::string display;  // "family{labels}" for end-of-scan messages
    bool has_bucket = false;
    double last_cumulative = 0.0;
    bool has_inf = false;
    double inf_value = 0.0;
    bool has_count = false;
    double count_value = 0.0;
  };
  std::map<std::string, HistogramState> hist_state;
  std::size_t line_no = 0;
  std::size_t start = 0;
  const auto fail = [&](std::string_view what) {
    return "line " + std::to_string(line_no) + ": " + std::string(what);
  };

  while (start <= text.size()) {
    if (start == text.size()) break;
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // `# HELP name text` or `# TYPE name kind`; any other comment is
      // legal and ignored.
      if (line.starts_with("# HELP ") || line.starts_with("# TYPE ")) {
        const bool is_type = line[2] == 'T';
        std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        const std::string_view name =
            space == std::string_view::npos ? rest : rest.substr(0, space);
        if (!valid_metric_name(name)) {
          return fail("invalid metric name in comment");
        }
        if (is_type) {
          if (space == std::string_view::npos) {
            return fail("TYPE missing kind");
          }
          const std::string_view kind = rest.substr(space + 1);
          if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
              kind != "summary" && kind != "untyped") {
            return fail("unknown TYPE kind");
          }
          if (!declared_type.emplace(std::string(name), std::string(kind))
                   .second) {
            return fail("duplicate TYPE for family");
          }
          if (family_sampled.contains(std::string(name))) {
            return fail("TYPE after samples of its family");
          }
        } else {
          if (!helped.insert(std::string(name)).second) {
            return fail("duplicate HELP for family");
          }
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') {
      ++pos;
    }
    const std::string_view name = line.substr(0, pos);
    if (!valid_metric_name(name)) return fail("invalid metric name");
    std::vector<std::pair<std::string, std::string>> label_pairs;
    if (pos < line.size() && line[pos] == '{') {
      if (auto err = lint_labels(line, pos, label_pairs)) return fail(*err);
    }
    // Two samples of the same (name, label set) are a scrape-breaking
    // duplicate. Labels are a set, so sort before keying — `{a="x",b="y"}`
    // and `{b="y",a="x"}` are the same series.
    std::sort(label_pairs.begin(), label_pairs.end());
    std::string series_key(name);
    for (const auto& [k, v] : label_pairs) {
      series_key.push_back('\x1f');
      series_key += k;
      series_key.push_back('\x1f');
      series_key += v;
    }
    if (!series_seen.insert(std::move(series_key)).second) {
      return fail("duplicate series (same name and labels)");
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail("missing value");
    }
    ++pos;
    std::string_view value = line.substr(pos);
    // Optional timestamp after the value.
    if (const std::size_t space = value.find(' ');
        space != std::string_view::npos) {
      const std::string_view ts = value.substr(space + 1);
      value = value.substr(0, space);
      std::int64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(ts.data(), ts.data() + ts.size(), parsed);
      if (ec != std::errc{} || ptr != ts.data() + ts.size()) {
        return fail("invalid timestamp");
      }
    }
    if (!valid_value(value)) return fail("invalid sample value");
    const std::string family = family_of(name);
    family_sampled.insert(family);
    family_sampled.insert(std::string(name));
    if (declared_type.contains(family) &&
        declared_type[family] == "histogram") {
      // A histogram family's _bucket series must carry an `le` label.
      std::string le;
      bool has_le = false;
      for (const auto& [k, v] : label_pairs) {
        if (k == "le") {
          le = v;
          has_le = true;
        }
      }
      if (name.ends_with("_bucket") && !has_le) {
        return fail("histogram _bucket sample without le label");
      }
      if (name.ends_with("_bucket") || name.ends_with("_count")) {
        // `value` is already validated; strtod covers the +Inf/NaN forms
        // from_chars rejects.
        const double parsed = std::strtod(std::string(value).c_str(), nullptr);
        std::string key = family;
        std::string display = family + "{";
        for (const auto& [k, v] : label_pairs) {  // sorted above
          if (k == "le") continue;
          key.push_back('\x1f');
          key += k;
          key.push_back('\x1f');
          key += v;
          if (display.back() != '{') display.push_back(',');
          display += k + "=\"" + v + "\"";
        }
        display.push_back('}');
        auto& st = hist_state[key];
        if (st.display.empty()) st.display = std::move(display);
        if (name.ends_with("_bucket")) {
          // Buckets are cumulative; our renderer emits them in ascending
          // le order, so a drop between consecutive lines means a
          // negative bucket count somewhere.
          if (st.has_bucket && parsed < st.last_cumulative) {
            return fail("histogram _bucket counts decrease in le order");
          }
          st.has_bucket = true;
          st.last_cumulative = parsed;
          if (le == "+Inf") {
            st.has_inf = true;
            st.inf_value = parsed;
          }
        } else {
          st.has_count = true;
          st.count_value = parsed;
        }
      }
    }
  }
  // End-of-scan histogram invariants: a series group with buckets must
  // close with the +Inf bucket, must expose _count, and the two must
  // agree — every observation lands in some bucket.
  for (const auto& [key, st] : hist_state) {
    if (st.has_bucket && !st.has_inf) {
      return "histogram " + st.display + ": missing +Inf bucket";
    }
    if (st.has_bucket && !st.has_count) {
      return "histogram " + st.display + ": missing _count sample";
    }
    if (st.has_inf && st.has_count && st.inf_value != st.count_value) {
      return "histogram " + st.display +
             ": +Inf bucket does not equal _count";
    }
  }
  return std::nullopt;
}

}  // namespace v6::obs
