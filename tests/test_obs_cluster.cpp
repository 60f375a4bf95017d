// The cluster observability plane: ClusterAggregator merge semantics
// (counters sum under original labels, gauges get per-worker tags,
// histograms merge bucket-wise when bounds agree), the merged cluster
// timeline and multi-lane trace, the histogram percentile estimator, and
// the run-report linter.
#include "obs/cluster.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/snapshot.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"

namespace v6::obs {
namespace {

MetricSample counter(std::string name, Labels labels, std::uint64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.type = MetricType::kCounter;
  s.labels = std::move(labels);
  s.counter_value = value;
  return s;
}

MetricSample gauge(std::string name, double value) {
  MetricSample s;
  s.name = std::move(name);
  s.type = MetricType::kGauge;
  s.gauge_value = value;
  return s;
}

MetricSample hist(std::string name, std::vector<double> bounds,
                  std::vector<std::uint64_t> counts, double sum) {
  MetricSample s;
  s.name = std::move(name);
  s.type = MetricType::kHistogram;
  s.histogram.bounds = std::move(bounds);
  s.histogram.counts = std::move(counts);
  for (const std::uint64_t c : s.histogram.counts) s.histogram.count += c;
  s.histogram.sum = sum;
  return s;
}

Snapshot snapshot_of(std::vector<MetricSample> samples) {
  Snapshot snap;
  snap.samples = std::move(samples);
  return snap;
}

WindowRecord window(util::SimTime begin, util::SimTime end,
                    std::string stage) {
  WindowRecord w;
  w.begin = begin;
  w.end = end;
  w.stage = std::move(stage);
  return w;
}

// --- percentile estimator --------------------------------------------------

TEST(HistogramSummaryEstimator, EmptyHistogramHasNoPercentiles) {
  const HistogramSummary s = summarize_histogram(HistogramData{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_FALSE(s.p50.has_value());
  EXPECT_FALSE(s.p90.has_value());
  EXPECT_FALSE(s.p99.has_value());
}

TEST(HistogramSummaryEstimator, InterpolatesLinearlyInsideTheBucket) {
  HistogramData h;
  h.bounds = {10.0, 20.0};
  h.counts = {10, 10, 0};
  h.count = 20;
  h.sum = 250.0;
  const HistogramSummary s = summarize_histogram(h);
  EXPECT_EQ(s.count, 20u);
  EXPECT_EQ(s.sum, 250.0);
  // rank(p50) = 10 lands exactly on the first bucket's full width.
  ASSERT_TRUE(s.p50.has_value());
  EXPECT_DOUBLE_EQ(*s.p50, 10.0);
  // rank(p90) = 18: 8/10 into the (10, 20] bucket.
  ASSERT_TRUE(s.p90.has_value());
  EXPECT_DOUBLE_EQ(*s.p90, 18.0);
}

TEST(HistogramSummaryEstimator, InfBucketRankClampsToLastFiniteBound) {
  HistogramData h;
  h.bounds = {10.0};
  h.counts = {0, 5};  // everything in +Inf
  h.count = 5;
  const HistogramSummary s = summarize_histogram(h);
  ASSERT_TRUE(s.p50.has_value());
  EXPECT_DOUBLE_EQ(*s.p50, 10.0);
  ASSERT_TRUE(s.p99.has_value());
  EXPECT_DOUBLE_EQ(*s.p99, 10.0);
}

TEST(HistogramSummaryEstimator, MalformedBucketShapeYieldsNoPercentiles) {
  HistogramData h;
  h.bounds = {10.0};
  h.counts = {1};  // must be bounds + 1
  h.count = 1;
  const HistogramSummary s = summarize_histogram(h);
  EXPECT_FALSE(s.p50.has_value());
}

// --- merge semantics -------------------------------------------------------

TEST(ClusterAggregator, CountersSumUnderOriginalLabels) {
  ClusterAggregator agg;
  agg.add_worker(1, 0,
                 snapshot_of({counter("v6_collector_polls_total", {}, 100),
                              counter("v6_collector_vantage_polls_total",
                                      {{"vantage", "0"}}, 7)}),
                 {});
  agg.add_worker(2, 1,
                 snapshot_of({counter("v6_collector_polls_total", {}, 50),
                              counter("v6_collector_vantage_polls_total",
                                      {{"vantage", "1"}}, 3)}),
                 {});
  const Snapshot merged = agg.cluster_snapshot();
  EXPECT_EQ(merged.counter_sum("v6_collector_polls_total"), 150u);
  // Label sets stay the ORIGINAL identity — no worker tag on counters.
  ASSERT_EQ(merged.samples.size(), 3u);
  EXPECT_EQ(merged.samples[0].name, "v6_collector_polls_total");
  EXPECT_TRUE(merged.samples[0].labels.empty());
  EXPECT_EQ(merged.samples[1].labels,
            Labels({{"vantage", "0"}}));
  EXPECT_EQ(merged.samples[2].labels,
            Labels({{"vantage", "1"}}));
}

TEST(ClusterAggregator, GaugesAreTaggedPerWorkerNeverSummed) {
  ClusterAggregator agg;
  agg.add_worker(1, 0, snapshot_of({gauge("v6_backlog", 3.0)}), {});
  agg.add_worker(2, 1, snapshot_of({gauge("v6_backlog", 5.0)}), {});
  const Snapshot merged = agg.cluster_snapshot();
  ASSERT_EQ(merged.samples.size(), 2u);
  EXPECT_EQ(merged.samples[0].labels, Labels({{"worker", "1"}}));
  EXPECT_EQ(merged.samples[0].gauge_value, 3.0);
  EXPECT_EQ(merged.samples[1].labels, Labels({{"worker", "2"}}));
  EXPECT_EQ(merged.samples[1].gauge_value, 5.0);
}

TEST(ClusterAggregator, MatchingHistogramsMergeBucketWise) {
  ClusterAggregator agg;
  agg.add_worker(1, 0,
                 snapshot_of({hist("lat_us", {1.0, 4.0}, {1, 2, 0}, 5.0)}),
                 {});
  agg.add_worker(2, 1,
                 snapshot_of({hist("lat_us", {1.0, 4.0}, {0, 1, 3}, 40.0)}),
                 {});
  const Snapshot merged = agg.cluster_snapshot();
  ASSERT_EQ(merged.samples.size(), 1u);
  const HistogramData& h = merged.samples[0].histogram;
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 3, 3}));
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 45.0);
  EXPECT_TRUE(merged.samples[0].labels.empty());
}

TEST(ClusterAggregator, MismatchedHistogramBoundsFallBackToPerWorker) {
  ClusterAggregator agg;
  agg.add_worker(1, 0,
                 snapshot_of({hist("lat_us", {1.0, 4.0}, {1, 2, 0}, 5.0)}),
                 {});
  agg.add_worker(2, 1, snapshot_of({hist("lat_us", {2.0}, {1, 1}, 6.0)}), {});
  const Snapshot merged = agg.cluster_snapshot();
  ASSERT_EQ(merged.samples.size(), 2u);
  EXPECT_EQ(merged.samples[0].labels, Labels({{"worker", "1"}}));
  EXPECT_EQ(merged.samples[1].labels, Labels({{"worker", "2"}}));
  EXPECT_EQ(merged.samples[0].histogram.count, 3u);
  EXPECT_EQ(merged.samples[1].histogram.count, 2u);
}

TEST(ClusterAggregator, SubsetReplacementKeepsOnlyTheCompletingLease) {
  // Lease reassignment: worker 1's aborted lease 0 reported, then
  // worker 3 completed the same lease. Keeping both would double-count
  // the range's deterministic counters.
  ClusterAggregator agg;
  agg.add_worker(1, 0, snapshot_of({counter("polls_total", {}, 40)}), {});
  agg.add_worker(3, 0, snapshot_of({counter("polls_total", {}, 100)}), {});
  EXPECT_EQ(agg.report_count(), 1u);
  EXPECT_EQ(agg.reports()[0].worker, 3u);
  EXPECT_EQ(agg.cluster_snapshot().counter_sum("polls_total"), 100u);
}

TEST(ClusterAggregator, ClusterSnapshotRendersCleanPrometheus) {
  ClusterAggregator agg;
  agg.add_worker(
      1, 0,
      snapshot_of({counter("v6_collector_polls_total", {}, 10),
                   gauge("v6_backlog", 2.0),
                   hist("lat_us", {1.0}, {1, 1}, 3.0)}),
      {});
  agg.add_worker(
      2, 1,
      snapshot_of({counter("v6_collector_polls_total", {}, 20),
                   gauge("v6_backlog", 4.0),
                   hist("lat_us", {1.0}, {2, 0}, 1.0)}),
      {});
  const std::string text =
      render(agg.cluster_snapshot(), ExpositionFormat::kPrometheus);
  EXPECT_EQ(lint_prometheus(text), std::nullopt) << text;
  EXPECT_NE(text.find("v6_collector_polls_total 30\n"), std::string::npos);
  EXPECT_NE(text.find("v6_backlog{worker=\"1\"} 2\n"), std::string::npos);
}

// --- cluster timeline and trace --------------------------------------------

TEST(ClusterAggregator, ClusterTimelineInterleavesSortedByWindowThenWorker) {
  ClusterAggregator agg;
  agg.add_worker(2, 1,
                 snapshot_of({}),
                 {window(0, 10, "collect"), window(10, 15, "collect")});
  agg.add_worker(1, 0,
                 snapshot_of({}),
                 {window(0, 10, "collect"), window(10, 20, "collect")});
  const std::vector<ClusterWindow> merged = agg.cluster_timeline();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].worker, 1u);  // (0, 10, worker 1)
  EXPECT_EQ(merged[1].worker, 2u);  // (0, 10, worker 2)
  EXPECT_EQ(merged[2].worker, 2u);  // (10, 15)
  EXPECT_EQ(merged[3].worker, 1u);  // (10, 20)
}

TEST(ClusterAggregator, RenderedClusterTimelineLinesAreValidJson) {
  ClusterAggregator agg;
  WindowRecord w = window(0, 10, "collect");
  w.counters.push_back({"polls_total", {}, 7});
  w.histograms.push_back({"wall_us", {}, 2, 5.5});
  agg.add_worker(1, 0, snapshot_of({}), {std::move(w)});
  agg.add_worker(2, 1, snapshot_of({}), {window(0, 10, "collect")});
  const std::string text = agg.render_cluster_timeline();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = text.substr(start, nl - start);
    EXPECT_EQ(parse_json(line).error, std::nullopt) << line;
    EXPECT_EQ(line.find("{\"worker\":"), 0u) << line;
    start = nl + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(ClusterAggregator, TraceHasOneLanePerReportAndLintsClean) {
  ClusterAggregator agg;
  agg.add_worker(1, 0, snapshot_of({}), {window(0, 10, "collect")});
  agg.add_worker(4, 1, snapshot_of({}), {window(0, 12, "collect")});
  agg.add_worker(4, 2, snapshot_of({}), {window(0, 9, "collect")});
  const std::string text = agg.render_trace();
  EXPECT_EQ(lint_trace_events(text), std::nullopt) << text;
  EXPECT_EQ(parse_json(text).error, std::nullopt);
  // One pid lane per report, labeled with the real (worker, lease) ids.
  EXPECT_NE(text.find("\"name\":\"worker 1 lease 0\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker 4 lease 1\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker 4 lease 2\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":3"), std::string::npos);
}

// --- run-report linter -----------------------------------------------------

std::string minimal_report() {
  return "{\"report\":\"v6pool_run_report\",\"version\":1,"
         "\"config\":{\"digest\":\"abc\"},"
         "\"kernel_backend\":\"scalar\","
         "\"metrics\":{\"v6_collector_polls_total\":1},"
         "\"serve_latency\":{\"point\":{\"count\":2,\"p50_us\":1.5,"
         "\"p90_us\":null,\"p99_us\":null}},"
         "\"epochs\":[],\"timeline\":null}";
}

TEST(RunReportLint, AcceptsAWellFormedReport) {
  EXPECT_EQ(lint_report(minimal_report()), std::nullopt);
}

TEST(RunReportLint, RejectsEmptyAndNonObjectText) {
  EXPECT_TRUE(lint_report("").has_value());
  EXPECT_TRUE(lint_report("[1,2]").has_value());
  EXPECT_TRUE(lint_report("{\"a\":1,}").has_value());  // invalid JSON
}

TEST(RunReportLint, RejectsMissingIdentityAndRequiredKeys) {
  std::string no_identity = minimal_report();
  const std::size_t at = no_identity.find("v6pool_run_report");
  no_identity.replace(at, 17, "something_else_xx");
  EXPECT_TRUE(lint_report(no_identity).has_value());

  for (const char* key :
       {"version", "config", "digest", "kernel_backend", "metrics",
        "serve_latency", "epochs", "timeline"}) {
    std::string broken = minimal_report();
    std::string pattern = "\"";
    (pattern += key) += "\":";
    const std::size_t pos = broken.find(pattern);
    ASSERT_NE(pos, std::string::npos) << key;
    // Rename the key in place; the text stays valid JSON but loses the
    // required section.
    broken[pos + 1] = 'x';
    EXPECT_TRUE(lint_report(broken).has_value()) << key;
  }
}

TEST(RunReportLint, RejectsRequiredKeysThatAreOnlyNested) {
  // Every required section exists, but only inside "metrics".
  EXPECT_TRUE(lint_report(
                  "{\"report\":\"v6pool_run_report\",\"metrics\":{"
                  "\"version\":1,\"config\":{\"digest\":\"abc\"},"
                  "\"kernel_backend\":\"scalar\",\"serve_latency\":{},"
                  "\"epochs\":[],\"timeline\":null}}")
                  .has_value());
  // The identity, too, must be a top-level member.
  std::string nested_identity = minimal_report();
  nested_identity.replace(nested_identity.find("\"report\""), 8,
                          "\"kind\"");
  nested_identity.insert(nested_identity.find("\"metrics\":{") + 11,
                         "\"report\":\"v6pool_run_report\",");
  EXPECT_TRUE(lint_report(nested_identity).has_value());
  // And digest must sit in config, not merely somewhere.
  std::string stray_digest = minimal_report();
  stray_digest.replace(stray_digest.find("\"digest\""), 8, "\"hash\"");
  stray_digest.insert(stray_digest.find("\"metrics\":{") + 11,
                      "\"digest\":\"abc\",");
  EXPECT_TRUE(lint_report(stray_digest).has_value());
}

TEST(RunReportLint, AcceptsWhitespaceAroundColons) {
  std::string spaced;
  for (const char c : minimal_report()) {
    if (c == ':') {
      spaced += " : ";
    } else if (c == ',') {
      spaced += ",\n  ";
    } else {
      spaced += c;
    }
  }
  EXPECT_EQ(lint_report(spaced), std::nullopt);
  EXPECT_EQ(lint_report("{\"report\": \"v6pool_run_report\", \"version\": 1, "
                        "\"config\": {\"digest\": \"abc\"}, "
                        "\"kernel_backend\": \"scalar\", \"metrics\": {}, "
                        "\"serve_latency\": {}, \"epochs\": [], "
                        "\"timeline\": null}"),
            std::nullopt);
  // Spacing does not hide a bad percentile either.
  std::string bad = spaced;
  bad.replace(bad.find("1.5"), 3, "\"x\"");
  EXPECT_TRUE(lint_report(bad).has_value());
}

TEST(RunReportLint, RejectsNonNumericPercentiles) {
  std::string broken = minimal_report();
  const std::size_t at = broken.find("\"p50_us\":1.5");
  ASSERT_NE(at, std::string::npos);
  broken.replace(at, 12, "\"p50_us\":\"x\"");
  const auto problem = lint_report(broken);
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("p50_us"), std::string::npos) << *problem;
}

}  // namespace
}  // namespace v6::obs
