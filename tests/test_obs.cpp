// The observability subsystem: the striped metrics registry, sim-time
// trace spans, the JSON writer, the two exposition formats, the Prometheus
// linter — and the contract that wiring metrics through the whole study
// changes no result bit.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/study.h"
#include "hitlist/checkpoint_io.h"
#include "obs/exposition.h"
#include "obs/json.h"

namespace v6::obs {
namespace {

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistry, CountersFoldAcrossHandlesAndStripes) {
  Registry registry;
  auto a = registry.counter("demo_total", "A counter.");
  auto b = registry.counter("demo_total");  // same identity, same cells
  a.inc();
  a.inc(41);
  b.inc(8);
  EXPECT_TRUE(a.wired());
  EXPECT_EQ(registry.instrument_count(), 1u);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].name, "demo_total");
  EXPECT_EQ(snap.samples[0].help, "A counter.");
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.samples[0].counter_value, 50u);
  EXPECT_EQ(snap.counter_sum("demo_total"), 50u);
  EXPECT_EQ(snap.counter_sum("missing_total"), 0u);
}

TEST(MetricsRegistry, LabelsAreDistinctInstrumentsAndSumAsAFamily) {
  Registry registry;
  registry.counter("polls_total", "", {{"vantage", "0"}}).inc(3);
  registry.counter("polls_total", "", {{"vantage", "1"}}).inc(4);
  EXPECT_EQ(registry.instrument_count(), 2u);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  EXPECT_EQ(snap.counter_sum("polls_total"), 7u);
  // find() only matches the unlabeled instance.
  EXPECT_EQ(snap.find("polls_total"), nullptr);
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(counter.wired());
  counter.inc();        // must not crash
  gauge.set(1.0);
  gauge.add(2.0);
  histogram.observe(3.0);
}

TEST(MetricsRegistry, TypeMismatchYieldsNoOpHandleNotACrash) {
  Registry registry;
  auto counter = registry.counter("clash");
  counter.inc(5);
  auto gauge = registry.gauge("clash");  // same name, wrong type
  EXPECT_FALSE(gauge.wired());
  gauge.set(99.0);  // swallowed

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.samples[0].counter_value, 5u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  Registry registry;
  auto gauge = registry.gauge("ratio", "Answered share.");
  gauge.set(0.25);
  gauge.add(0.5);
  const auto snap = registry.snapshot();
  const auto* sample = snap.find("ratio");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->type, MetricType::kGauge);
  EXPECT_DOUBLE_EQ(sample->gauge_value, 0.75);
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperEdges) {
  Registry registry;
  auto histogram =
      registry.histogram("latency_us", "", {100.0, 1000.0});
  histogram.observe(50.0);
  histogram.observe(100.0);   // le="100" is inclusive
  histogram.observe(500.0);
  histogram.observe(5000.0);  // past every edge: +Inf bucket

  const auto snap = registry.snapshot();
  const auto* sample = snap.find("latency_us");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->type, MetricType::kHistogram);
  const auto& h = sample->histogram;
  ASSERT_EQ(h.bounds, (std::vector<double>{100.0, 1000.0}));
  ASSERT_EQ(h.counts, (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 5650.0);
}

TEST(MetricsRegistry, HistogramBoundsMismatchYieldsNoOpHandle) {
  Registry registry;
  auto original = registry.histogram("latency_us", "", {100.0, 1000.0});
  original.observe(50.0);

  // Same identity, different bucket layout: the second registration gets
  // a no-op handle (same contract as a type clash) instead of silently
  // folding observations into the wrong buckets.
  auto clash = registry.histogram("latency_us", "", {5.0, 10.0});
  EXPECT_FALSE(clash.wired());
  clash.observe(7.0);  // swallowed

  // Bounds are compared after normalization: order and duplicates do not
  // constitute a mismatch.
  auto same = registry.histogram("latency_us", "", {1000.0, 100.0, 100.0});
  EXPECT_TRUE(same.wired());
  same.observe(500.0);

  const auto snap = registry.snapshot();
  const auto* sample = snap.find("latency_us");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->histogram.bounds, (std::vector<double>{100.0, 1000.0}));
  EXPECT_EQ(sample->histogram.count, 2u);
  EXPECT_DOUBLE_EQ(sample->histogram.sum, 550.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameThenLabels) {
  Registry registry;
  // Register in anti-sorted order; the snapshot must not care.
  registry.counter("zz_total").inc();
  registry.counter("aa_total", "", {{"k", "b"}}).inc();
  registry.counter("aa_total", "", {{"k", "a"}}).inc();
  registry.gauge("mm").set(1);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "aa_total");
  EXPECT_EQ(snap.samples[0].labels[0].second, "a");
  EXPECT_EQ(snap.samples[1].name, "aa_total");
  EXPECT_EQ(snap.samples[1].labels[0].second, "b");
  EXPECT_EQ(snap.samples[2].name, "mm");
  EXPECT_EQ(snap.samples[3].name, "zz_total");
}

// The TSan tier (ctest regex in CI) pins the registry's central claim:
// increments from many threads, racing registrations, and concurrent
// snapshots are all safe, and a post-join snapshot is exact.
TEST(MetricsRegistry, ConcurrentIncrementsWithLiveSnapshots) {
  Registry registry;
  constexpr unsigned kWriters = 8;
  constexpr std::uint64_t kIters = 40000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry] {
      // Registration itself races (same identity from every thread).
      auto counter = registry.counter("hammer_total");
      auto histogram = registry.histogram("hammer_us", "", {100.0});
      for (std::uint64_t i = 0; i < kIters; ++i) {
        counter.inc();
        if ((i & 1023u) == 0) histogram.observe(static_cast<double>(i));
      }
    });
  }
  // Torn-free live snapshots: totals only ever grow.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto now = registry.snapshot().counter_sum("hammer_total");
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : writers) t.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_sum("hammer_total"), kWriters * kIters);
  const auto* histogram = snap.find("hammer_us");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->histogram.count, kWriters * ((kIters + 1023) / 1024));
}

// --- Tracer ----------------------------------------------------------------

TEST(TraceSpans, NestUnderTheInnermostOpenSpan) {
  Tracer tracer;
  const auto outer = tracer.begin_span("outer", 10);
  const auto inner = tracer.begin_span("inner", 20);
  tracer.end_span(inner, 30);
  const auto sibling = tracer.begin_span("sibling", 40);
  tracer.end_span(sibling, 50);
  tracer.end_span(outer, 60);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].begin, 10);
  EXPECT_EQ(spans[0].end, 60);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].depth, 1u);
}

TEST(TraceSpans, EndingAnOuterSpanClosesDeeperOpenSpans) {
  Tracer tracer;
  const auto outer = tracer.begin_span("outer", 0);
  tracer.begin_span("leaked", 5);  // never explicitly ended
  tracer.end_span(outer, 100);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[1].closed);
  EXPECT_EQ(spans[1].end, 100);
  // The stack unwound: the next span is a fresh root.
  const auto next = tracer.begin_span("root2", 200);
  EXPECT_EQ(tracer.spans()[next].parent, -1);
}

TEST(TraceSpans, DeepNestingAutoClosesInOneSweep) {
  Tracer tracer;
  constexpr int kDepth = 200;
  std::vector<Tracer::SpanId> ids;
  for (int i = 0; i < kDepth; ++i) {
    ids.push_back(tracer.begin_span("level", i));
  }
  tracer.end_span(ids.front(), 1000);  // closes all 200 at once

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kDepth));
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_TRUE(spans[i].closed);
    EXPECT_EQ(spans[i].end, 1000);
    EXPECT_EQ(spans[i].depth, static_cast<std::size_t>(i));
    EXPECT_EQ(spans[i].parent, i - 1);
  }
  const auto fresh = tracer.begin_span("fresh", 2000);
  EXPECT_EQ(tracer.spans()[fresh].parent, -1);
}

TEST(TraceSpans, ConcurrentBeginEndKeepsEverySpanWellFormed) {
  // Spans mark stage boundaries, but nothing stops two stages ending on
  // different threads; the Tracer's mutex must keep the records
  // structurally sound (no lost spans, every one closed, parents valid).
  // The TSan tier re-runs this shape under -fsanitize=thread.
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const auto id =
            tracer.begin_span("worker", t * kSpansPerThread + i);
        tracer.end_span(id, t * kSpansPerThread + i + 1);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  for (const auto& span : spans) {
    EXPECT_TRUE(span.closed);
    // (begin <= end is NOT asserted: a cross-thread auto-close can stamp
    // an earlier sim time; the trace exporter clamps for that reason.)
    EXPECT_GE(span.parent, -1);
    EXPECT_LT(span.parent, static_cast<std::int32_t>(spans.size()));
  }
}

// --- Exposition ------------------------------------------------------------

Snapshot demo_snapshot() {
  Registry registry;
  auto polls = registry.counter("demo_polls_total", "Polls issued.");
  polls.inc(41);
  polls.inc();
  registry.gauge("demo_answer_ratio", "Answered share.").set(0.5);
  auto latency =
      registry.histogram("demo_latency_us", "Stage latency.", {100.0, 1000.0});
  latency.observe(50.0);
  latency.observe(500.0);
  latency.observe(5000.0);
  registry.counter("demo_vantage_polls_total", "Per-vantage polls.",
                   {{"vantage", "0"}})
      .inc(7);
  const auto span = registry.tracer().begin_span("study.run", 0);
  registry.tracer().end_span(span, 100);
  return registry.snapshot();
}

TEST(Exposition, PrometheusGolden) {
  const std::string text =
      render(demo_snapshot(), ExpositionFormat::kPrometheus);
  EXPECT_EQ(text,
            "# HELP demo_answer_ratio Answered share.\n"
            "# TYPE demo_answer_ratio gauge\n"
            "demo_answer_ratio 0.5\n"
            "# HELP demo_latency_us Stage latency.\n"
            "# TYPE demo_latency_us histogram\n"
            "demo_latency_us_bucket{le=\"100\"} 1\n"
            "demo_latency_us_bucket{le=\"1000\"} 2\n"
            "demo_latency_us_bucket{le=\"+Inf\"} 3\n"
            "demo_latency_us_sum 5550\n"
            "demo_latency_us_count 3\n"
            "# HELP demo_polls_total Polls issued.\n"
            "# TYPE demo_polls_total counter\n"
            "demo_polls_total 42\n"
            "# HELP demo_vantage_polls_total Per-vantage polls.\n"
            "# TYPE demo_vantage_polls_total counter\n"
            "demo_vantage_polls_total{vantage=\"0\"} 7\n");
  EXPECT_EQ(lint_prometheus(text), std::nullopt);
}

TEST(Exposition, JsonGolden) {
  Registry registry;
  registry.counter("demo_polls_total", "", {{"vantage", "0"}}).inc(7);
  const auto span = registry.tracer().begin_span("study.run", 0);
  registry.tracer().end_span(span, 100);

  const std::string text =
      render(registry.snapshot(), ExpositionFormat::kJson);
  EXPECT_EQ(text,
            "{\n"
            "  \"metrics\": [\n"
            "    {\"name\": \"demo_polls_total\", \"type\": \"counter\", "
            "\"labels\": {\"vantage\":\"0\"}, \"value\": 7}\n"
            "  ],\n"
            "  \"spans\": [\n"
            "    {\"name\": \"study.run\", \"begin\": 0, \"end\": 100, "
            "\"parent\": -1, \"depth\": 0, \"closed\": true}\n"
            "  ]\n"
            "}\n");
}

TEST(Exposition, RegistrationOrderDoesNotChangeTheBytes) {
  Registry forward;
  forward.counter("a_total").inc(1);
  forward.gauge("b").set(2);
  Registry reverse;
  reverse.gauge("b").set(2);
  reverse.counter("a_total").inc(1);
  EXPECT_EQ(render(forward.snapshot(), ExpositionFormat::kPrometheus),
            render(reverse.snapshot(), ExpositionFormat::kPrometheus));
  EXPECT_EQ(render(forward.snapshot(), ExpositionFormat::kJson),
            render(reverse.snapshot(), ExpositionFormat::kJson));
}

TEST(Exposition, ParseFormatAndSuffix) {
  EXPECT_EQ(parse_format("prom"), ExpositionFormat::kPrometheus);
  EXPECT_EQ(parse_format("prometheus"), ExpositionFormat::kPrometheus);
  EXPECT_EQ(parse_format("text"), ExpositionFormat::kPrometheus);
  EXPECT_EQ(parse_format("json"), ExpositionFormat::kJson);
  EXPECT_EQ(parse_format("yaml"), std::nullopt);
  EXPECT_EQ(format_suffix(ExpositionFormat::kPrometheus), "prom");
  EXPECT_EQ(format_suffix(ExpositionFormat::kJson), "json");
}

TEST(ExpositionLint, AcceptsWellFormedText) {
  EXPECT_EQ(lint_prometheus(""), std::nullopt);
  EXPECT_EQ(lint_prometheus("# a free-form comment\nup 1\n"), std::nullopt);
  EXPECT_EQ(lint_prometheus("metric{a=\"x\",b=\"y\"} 2.5 1690000000\n"),
            std::nullopt);
  EXPECT_EQ(lint_prometheus("weird NaN\nmore +Inf\n"), std::nullopt);
}

TEST(ExpositionLint, RejectsMalformedLinesWithLineNumbers) {
  EXPECT_EQ(lint_prometheus("1bad 3\n"),
            std::optional<std::string>("line 1: invalid metric name"));
  EXPECT_EQ(lint_prometheus("ok 1\nnovalue\n"),
            std::optional<std::string>("line 2: missing value"));
  EXPECT_EQ(lint_prometheus("a abc\n"),
            std::optional<std::string>("line 1: invalid sample value"));
  EXPECT_EQ(lint_prometheus("a 1 12x\n"),
            std::optional<std::string>("line 1: invalid timestamp"));
  EXPECT_EQ(lint_prometheus("a{x=\"1 2\n"),
            std::optional<std::string>("line 1: unterminated label value"));
  EXPECT_EQ(lint_prometheus("a{1x=\"v\"} 2\n"),
            std::optional<std::string>("line 1: invalid label name"));
  EXPECT_EQ(
      lint_prometheus("# TYPE a counter\n# TYPE a counter\n"),
      std::optional<std::string>("line 2: duplicate TYPE for family"));
  EXPECT_EQ(
      lint_prometheus("a 1\n# TYPE a counter\n"),
      std::optional<std::string>("line 2: TYPE after samples of its family"));
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\nh_bucket 3\n"),
            std::optional<std::string>(
                "line 2: histogram _bucket sample without le label"));
  EXPECT_EQ(lint_prometheus("# TYPE a flavor\n"),
            std::optional<std::string>("line 1: unknown TYPE kind"));
}

TEST(ExpositionLint, LabelValueEscapesAreValidated) {
  // The three legal escapes pass...
  EXPECT_EQ(lint_prometheus("a{x=\"q\\\\b\\\"c\\nd\"} 1\n"), std::nullopt);
  // ...anything else after a backslash is rejected...
  EXPECT_EQ(lint_prometheus("a{x=\"bad\\tescape\"} 1\n"),
            std::optional<std::string>(
                "line 1: invalid escape in label value"));
  // ...as is a backslash with nothing after it...
  EXPECT_EQ(lint_prometheus("a{x=\"dangling\\\n"),
            std::optional<std::string>(
                "line 1: dangling escape in label value"));
  // ...and a backslash that swallows the closing quote reads as an
  // escaped quote, leaving the value unterminated.
  EXPECT_EQ(lint_prometheus("a{x=\"dangling\\\"} 1\n"),
            std::optional<std::string>(
                "line 1: unterminated label value"));
}

TEST(ExpositionLint, DuplicateSeriesAreRejected) {
  EXPECT_EQ(lint_prometheus("a{x=\"1\"} 1\na{x=\"1\"} 2\n"),
            std::optional<std::string>(
                "line 2: duplicate series (same name and labels)"));
  // Label order does not disguise a duplicate.
  EXPECT_EQ(lint_prometheus("a{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n"),
            std::optional<std::string>(
                "line 2: duplicate series (same name and labels)"));
  // Different label values are distinct series.
  EXPECT_EQ(lint_prometheus("a{x=\"1\"} 1\na{x=\"2\"} 2\n"), std::nullopt);
}

TEST(ExpositionLint, HistogramConsistencyAccepted) {
  // A well-formed histogram group: cumulative buckets, +Inf present and
  // equal to _count; per-kind groups are independent.
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{le=\"1\"} 2\n"
                            "h_bucket{le=\"+Inf\"} 5\n"
                            "h_sum 9.5\n"
                            "h_count 5\n"),
            std::nullopt);
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{kind=\"a\",le=\"1\"} 2\n"
                            "h_bucket{kind=\"a\",le=\"+Inf\"} 2\n"
                            "h_count{kind=\"a\"} 2\n"
                            "h_bucket{kind=\"b\",le=\"1\"} 0\n"
                            "h_bucket{kind=\"b\",le=\"+Inf\"} 1\n"
                            "h_count{kind=\"b\"} 1\n"),
            std::nullopt);
}

TEST(ExpositionLint, HistogramConsistencyViolationsRejected) {
  // Cumulative bucket counts must never decrease in le order.
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{le=\"1\"} 5\n"
                            "h_bucket{le=\"+Inf\"} 3\n"
                            "h_count 3\n"),
            std::optional<std::string>(
                "line 3: histogram _bucket counts decrease in le order"));
  // A bucketed group must close with +Inf...
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{le=\"1\"} 2\n"
                            "h_count 2\n"),
            std::optional<std::string>("histogram h{}: missing +Inf bucket"));
  // ...must expose _count...
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{le=\"+Inf\"} 2\n"),
            std::optional<std::string>("histogram h{}: missing _count sample"));
  // ...and the +Inf bucket must equal _count (every observation lands in
  // some bucket).
  EXPECT_EQ(lint_prometheus("# TYPE h histogram\n"
                            "h_bucket{le=\"+Inf\"} 2\n"
                            "h_count 3\n"),
            std::optional<std::string>(
                "histogram h{}: +Inf bucket does not equal _count"));
}

TEST(Exposition, LabelValuesAreEscapedAndRoundTripTheLinter) {
  Registry registry;
  registry.counter("esc_total", "", {{"path", "a\\b\"c\nd"}}).inc(1);
  const std::string text =
      render(registry.snapshot(), ExpositionFormat::kPrometheus);
  EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(lint_prometheus(text), std::nullopt);
}

// --- JsonWriter ------------------------------------------------------------

// Decodes the raw (still-escaped) text parse_json keeps for a string.
std::string unescape(std::string_view raw) {
  std::string out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out.push_back(raw[i]);
      continue;
    }
    const char e = raw[++i];
    switch (e) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u':
        out.push_back(static_cast<char>(
            std::stoi(std::string(raw.substr(i + 1, 4)), nullptr, 16)));
        i += 4;
        break;
      default: out.push_back(e); break;  // '"', '\\', '/'
    }
  }
  return out;
}

TEST(JsonWriter, EveryAsciiByteRoundTripsInKeysAndStrings) {
  for (int c = 0; c < 0x80; ++c) {
    SCOPED_TRACE(c);
    const std::string text = "<" + std::string(1, static_cast<char>(c)) + ">";
    JsonWriter w;
    w.begin_object().key(text).string(text).end_object();
    const JsonParse parsed = parse_json(w.text());
    ASSERT_EQ(parsed.error, std::nullopt) << w.text();
    ASSERT_EQ(parsed.root.keys.size(), 1u);
    ASSERT_EQ(parsed.root.items[0].kind, JsonValue::Kind::kString);
    EXPECT_EQ(unescape(parsed.root.keys[0]), text);
    EXPECT_EQ(unescape(parsed.root.items[0].text), text);
    // Printable bytes other than the quote and the backslash pass as
    // they are.
    if (c >= 0x20 && c != '"' && c != '\\') {
      EXPECT_EQ(parsed.root.keys[0], text);
    }
  }
}

TEST(JsonWriter, NonFiniteNumbersWriteNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  JsonWriter w;
  w.begin_array();
  for (const double v : {kInf, -kInf, kNan}) w.number(v).number_exact(v);
  w.number(3.0).number(0.5).number_exact(0.1).end_array();
  EXPECT_EQ(w.text(),
            "[null,null,null,null,null,null,3,0.5,0.10000000000000001]\n");
}

TEST(JsonWriter, SeparatorsAroundNestedEmptyAndFilledContainers) {
  using Layout = JsonWriter::Layout;
  // The same document in both one-line layouts.
  const auto document = [](Layout layout) {
    JsonWriter w;
    w.begin_object(layout)
        .key("a").begin_array(layout).end_array()
        .key("b").begin_object(layout).end_object()
        .key("c").begin_array(layout)
        .integer(1)
        .begin_array(layout).integer(-2).begin_object(layout).end_object()
        .end_array()
        .begin_object(layout).key("d").null().end_object()
        .end_array()
        .end_object();
    return w.take();
  };
  EXPECT_EQ(document(Layout::kCompact),
            "{\"a\":[],\"b\":{},\"c\":[1,[-2,{}],{\"d\":null}]}\n");
  EXPECT_EQ(document(Layout::kSpaced),
            "{\"a\": [], \"b\": {}, \"c\": [1, [-2, {}], {\"d\": null}]}\n");

  // kLines indents per enclosing kLines level and closes on its own line,
  // empty or not; containers inside keep their own layout.
  JsonWriter lines;
  lines.begin_object(Layout::kLines)
      .key("empty").begin_array(Layout::kLines).end_array()
      .key("rows").begin_array(Layout::kLines)
      .begin_object(Layout::kSpaced)
      .key("x").boolean(true).key("y").boolean(false)
      .end_object()
      .begin_array().end_array()
      .end_array()
      .end_object();
  EXPECT_EQ(lines.text(),
            "{\n"
            "  \"empty\": [\n"
            "  ],\n"
            "  \"rows\": [\n"
            "    {\"x\": true, \"y\": false},\n"
            "    []\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(parse_json(lines.text()).error, std::nullopt);

  // Unindented lines, and a run of top-level values is JSON Lines.
  JsonWriter flat(0);
  flat.begin_array(Layout::kLines).integer(1).integer(2).end_array();
  flat.string("x").begin_object().end_object();
  EXPECT_EQ(flat.text(), "[\n1,\n2\n]\n\"x\"\n{}\n");
}

// --- Study integration -----------------------------------------------------

core::StudyConfig tiny_study(std::uint64_t seed) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.total_sites = 260;
  config.world.study_duration = 12 * util::kDay;
  config.pool_capture_share = 1.0;
  config.backscan_start = 14 * util::kDay;
  config.backscan_duration = 2 * util::kDay;
  config.hitlist_campaign.start = util::kDay;
  config.hitlist_campaign.duration = 8 * util::kDay;
  config.caida_campaign.start = util::kDay;
  config.caida_campaign.duration = 6 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.005;
  return config;
}

void expect_identical_corpora(const hitlist::Corpus& a,
                              const hitlist::Corpus& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_observations(), b.total_observations());
  for (const auto& rec : a.records()) {
    const auto* other = b.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->first_seen, rec.first_seen);
    EXPECT_EQ(other->last_seen, rec.last_seen);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->vantage_mask, rec.vantage_mask);
  }
}

// One full instrumented study shared by the read-only assertions below.
class StudyMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new core::Study(tiny_study(5));
    study_->run();
  }
  static void TearDownTestSuite() { delete study_; }
  static core::Study* study_;
};

core::Study* StudyMetricsTest::study_ = nullptr;

TEST_F(StudyMetricsTest, SnapshotCoversEveryInstrumentedLayer) {
  const auto& r = study_->results();
  const auto& m = r.metrics;
  ASSERT_FALSE(m.samples.empty());

  // Collector counters: the backscan week runs its own collector into the
  // same registry, so the family totals are at least the main window's.
  EXPECT_GE(m.counter_sum("v6_collector_polls_total"), r.polls_attempted);
  EXPECT_GE(m.counter_sum("v6_collector_answered_total"), r.polls_answered);
  EXPECT_GE(m.counter_sum("v6_collector_records_total"), r.ntp.size());
  EXPECT_EQ(m.counter_sum("v6_collector_vantage_polls_total"),
            m.counter_sum("v6_collector_polls_total"));

  // Backscanner counters mirror its report exactly.
  EXPECT_EQ(m.counter_sum("v6_backscan_clients_probed_total"),
            r.backscan.clients_probed);
  EXPECT_EQ(m.counter_sum("v6_backscan_clients_responded_total"),
            r.backscan.clients_responded);
  EXPECT_EQ(m.counter_sum("v6_backscan_random_probed_total"),
            r.backscan.random_probed);

  // Active scanners and the analysis engine reported in.
  EXPECT_GT(m.counter_sum("v6_scan_probes_total"), 0u);
  std::uint64_t stage_records = 0;
  for (const auto& stage : r.analysis.stage_stats) stage_records += stage.records;
  EXPECT_EQ(m.counter_sum("v6_analysis_records_total"), stage_records);

  // Per-vantage health gauges, one per vantage.
  std::size_t ratio_gauges = 0;
  for (const auto& sample : m.samples) {
    if (sample.name == "v6_vantage_answer_ratio") ++ratio_gauges;
  }
  EXPECT_EQ(ratio_gauges, r.vantage_health.size());
}

// Each analysis stage times itself into its own series, labelled like its
// record counter: one wall and one merge observation per run() of the
// stage (Table 1 runs some stages once per dataset).
TEST_F(StudyMetricsTest, AnalysisWallTimeIsLabelledByStage) {
  const auto& r = study_->results();
  std::map<std::string, std::uint64_t> runs;
  for (const auto& stage : r.analysis.stage_stats) ++runs[stage.stage];
  ASSERT_FALSE(runs.empty());
  for (const char* family : {"v6_analysis_wall_us", "v6_analysis_merge_us"}) {
    SCOPED_TRACE(family);
    std::map<std::string, std::uint64_t> observed;
    for (const auto& sample : r.metrics.samples) {
      if (sample.name != family) continue;
      ASSERT_EQ(sample.labels.size(), 1u);
      EXPECT_EQ(sample.labels[0].first, "stage");
      EXPECT_TRUE(observed.emplace(sample.labels[0].second,
                                   sample.histogram.count)
                      .second);
    }
    EXPECT_EQ(observed, runs);
  }
}

TEST_F(StudyMetricsTest, SpansCoverTheFourStagesUnderOneRoot) {
  const auto& spans = study_->results().metrics.spans;
  ASSERT_GE(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "study.run");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_TRUE(spans[0].closed);
  for (const char* name : {"study.collect", "study.campaigns",
                           "study.backscan", "study.analysis"}) {
    bool found = false;
    for (const auto& span : spans) {
      if (span.name != name) continue;
      found = true;
      EXPECT_EQ(span.parent, 0) << name;
      EXPECT_EQ(span.depth, 1u) << name;
      EXPECT_TRUE(span.closed) << name;
      EXPECT_LE(span.begin, span.end) << name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST_F(StudyMetricsTest, RenderedSnapshotPassesTheLinterInBothFormats) {
  const auto& m = study_->results().metrics;
  const auto prom = render(m, ExpositionFormat::kPrometheus);
  EXPECT_EQ(lint_prometheus(prom), std::nullopt)
      << prom.substr(0, 400);
  const auto json = render(m, ExpositionFormat::kJson);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');

  // The JSON parses, with one metrics entry per sample that carries the
  // sample's own values.
  const JsonParse parsed = parse_json(json);
  ASSERT_EQ(parsed.error, std::nullopt);
  const JsonValue* metrics = parsed.root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(metrics->items.size(), m.samples.size());
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    const MetricSample& sample = m.samples[i];
    const JsonValue& entry = metrics->items[i];
    SCOPED_TRACE(sample.name);
    const JsonValue* name = entry.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->text, sample.name);
    ASSERT_NE(entry.find("type"), nullptr);
    const JsonValue* labels = entry.find("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->kind, JsonValue::Kind::kObject);
    EXPECT_EQ(labels->keys.size(), sample.labels.size());
    if (sample.type == MetricType::kCounter) {
      EXPECT_EQ(entry.int_member("value"),
                static_cast<std::int64_t>(sample.counter_value));
    } else if (sample.type == MetricType::kHistogram) {
      const auto count = entry.int_member("count");
      EXPECT_EQ(count, static_cast<std::int64_t>(sample.histogram.count));
      const JsonValue* buckets = entry.find("buckets");
      ASSERT_NE(buckets, nullptr);
      ASSERT_FALSE(buckets->items.empty());
      const JsonValue& last = buckets->items.back();
      const JsonValue* le = last.find("le");
      ASSERT_NE(le, nullptr);
      EXPECT_EQ(le->kind, JsonValue::Kind::kString);
      EXPECT_EQ(le->text, "+Inf");
      EXPECT_EQ(last.int_member("count"), count);
    }
  }
}

TEST_F(StudyMetricsTest, MetricsOffIsBitIdenticalAndUnsampled) {
  auto config = tiny_study(5);
  config.metrics = false;
  core::Study off(config);
  const auto& ro = off.run();
  const auto& r = study_->results();

  expect_identical_corpora(r.ntp, ro.ntp);
  expect_identical_corpora(r.backscan_week, ro.backscan_week);
  EXPECT_EQ(r.polls_attempted, ro.polls_attempted);
  EXPECT_EQ(r.polls_answered, ro.polls_answered);
  EXPECT_EQ(r.hitlist.corpus.size(), ro.hitlist.corpus.size());
  EXPECT_EQ(r.caida.corpus.size(), ro.caida.corpus.size());
  EXPECT_EQ(r.backscan.clients_probed, ro.backscan.clients_probed);
  EXPECT_EQ(r.backscan.clients_responded, ro.backscan.clients_responded);
  EXPECT_EQ(r.backscan.random_probed, ro.backscan.random_probed);
  EXPECT_EQ(r.alias_check.aliased_known_to_hitlist,
            ro.alias_check.aliased_known_to_hitlist);
  EXPECT_EQ(r.alias_check.aliased_new, ro.alias_check.aliased_new);
  ASSERT_EQ(r.analysis.table1.size(), ro.analysis.table1.size());
  for (std::size_t i = 0; i < r.analysis.table1.size(); ++i) {
    EXPECT_EQ(r.analysis.table1[i].addresses, ro.analysis.table1[i].addresses);
    EXPECT_EQ(r.analysis.table1[i].asns, ro.analysis.table1[i].asns);
    EXPECT_EQ(r.analysis.table1[i].slash48s, ro.analysis.table1[i].slash48s);
  }
  EXPECT_DOUBLE_EQ(r.analysis.address_lifetimes.fraction_once,
                   ro.analysis.address_lifetimes.fraction_once);

  // With metrics off nothing registers, but spans still mark the stages.
  EXPECT_TRUE(ro.metrics.samples.empty());
  EXPECT_FALSE(ro.metrics.spans.empty());
}

// The "per-stage shims" of the name are now one run() per stage, each
// selecting a single stage; together they must match one full run().
TEST(StudyRunApi, RunMatchesTheLegacyPerStageShims) {
  const auto config = tiny_study(9);
  core::Study via_run(config);
  const auto& ra = via_run.run();

  core::Study per_stage(config);
  per_stage.run({.campaigns = false, .backscan = false, .analysis = false});
  per_stage.run({.collect = false, .backscan = false, .analysis = false});
  per_stage.run({.collect = false, .campaigns = false, .analysis = false});
  per_stage.run({.collect = false, .campaigns = false, .backscan = false});
  // Every stage has run: a final run() re-runs nothing.
  const auto before = per_stage.results().ntp.size();
  const auto& rb = per_stage.run();
  EXPECT_EQ(rb.ntp.size(), before);
  EXPECT_FALSE(rb.metrics.samples.empty());

  expect_identical_corpora(ra.ntp, rb.ntp);
  EXPECT_EQ(ra.hitlist.corpus.size(), rb.hitlist.corpus.size());
  EXPECT_EQ(ra.caida.corpus.size(), rb.caida.corpus.size());
  EXPECT_EQ(ra.backscan.clients_probed, rb.backscan.clients_probed);
  EXPECT_EQ(ra.backscan.clients_responded, rb.backscan.clients_responded);
  ASSERT_EQ(ra.analysis.stage_stats.size(), rb.analysis.stage_stats.size());
  for (std::size_t i = 0; i < ra.analysis.stage_stats.size(); ++i) {
    EXPECT_EQ(ra.analysis.stage_stats[i].records,
              rb.analysis.stage_stats[i].records);
  }
  EXPECT_EQ(ra.metrics.counter_sum("v6_collector_polls_total"),
            rb.metrics.counter_sum("v6_collector_polls_total"));
  EXPECT_EQ(ra.metrics.counter_sum("v6_scan_probes_total"),
            rb.metrics.counter_sum("v6_scan_probes_total"));
}

TEST(StudyRunApi, StageTogglesRunOnlyTheSelectedStages) {
  core::Study study(tiny_study(13));
  core::RunOptions options;
  options.campaigns = options.backscan = options.analysis = false;
  const auto& r = study.run(std::move(options));
  EXPECT_GT(r.ntp.size(), 0u);
  EXPECT_EQ(r.hitlist.corpus.size(), 0u);
  EXPECT_EQ(r.backscan.clients_probed, 0u);
  EXPECT_TRUE(r.analysis.table1.empty());
  // Collect-only: the collector counters equal the study's own tallies.
  EXPECT_EQ(r.metrics.counter_sum("v6_collector_polls_total"),
            r.polls_attempted);
  EXPECT_EQ(r.metrics.counter_sum("v6_collector_answered_total"),
            r.polls_answered);
  EXPECT_EQ(r.metrics.counter_sum("v6_collector_records_total"),
            r.ntp.size());
  // Skipped stages record no span.
  ASSERT_EQ(r.metrics.spans.size(), 2u);
  EXPECT_EQ(r.metrics.spans[0].name, "study.run");
  EXPECT_EQ(r.metrics.spans[1].name, "study.collect");
}

TEST(StudyRunApi, ResumeViaRunOptionsIsBitIdentical) {
  auto config = tiny_study(21);
  config.collector.threads = 2;
  config.collector.checkpoint_interval = 5 * util::kDay;

  std::vector<std::string> snapshots;
  core::Study reference(config);
  core::RunOptions ref_options;
  ref_options.campaigns = ref_options.backscan = ref_options.analysis = false;
  ref_options.checkpoint_sink = [&](const hitlist::CheckpointState& state,
                                    const hitlist::Corpus& corpus) {
    std::stringstream out;
    hitlist::save_checkpoint(out, state, corpus);
    snapshots.push_back(out.str());
  };
  const auto& ref = reference.run(std::move(ref_options));
  ASSERT_EQ(snapshots.size(), 2u);  // boundaries at day 5 and 10
  EXPECT_EQ(ref.metrics.counter_sum("v6_collector_checkpoints_total"), 2u);

  for (auto& snapshot : snapshots) {
    std::stringstream in(snapshot);
    core::Study resumed(config);
    core::RunOptions options;
    options.campaigns = options.backscan = options.analysis = false;
    options.resume_from = hitlist::load_checkpoint(in);
    const auto& r = resumed.run(std::move(options));
    expect_identical_corpora(ref.ntp, r.ntp);
    EXPECT_EQ(r.polls_attempted, ref.polls_attempted);
    EXPECT_EQ(r.polls_answered, ref.polls_answered);
  }
}

}  // namespace
}  // namespace v6::obs
