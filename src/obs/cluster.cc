#include "obs/cluster.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/exposition.h"
#include "obs/trace_export.h"

namespace v6::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// Smallest bucket whose cumulative count reaches rank q*count, linearly
// interpolated inside that bucket. The first bucket interpolates from 0
// (Prometheus convention) unless its edge is non-positive.
std::optional<double> bucket_quantile(const HistogramData& h, double q) {
  if (h.count == 0 || h.counts.empty() ||
      h.counts.size() != h.bounds.size() + 1) {
    return std::nullopt;
  }
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += h.counts[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i == h.bounds.size()) break;  // +Inf bucket: clamp below
    const double hi = h.bounds[i];
    const double lo = i == 0 ? std::min(0.0, hi) : h.bounds[i - 1];
    // First index with cum >= rank implies prev < rank, so the bucket is
    // non-empty and the division is safe.
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(h.counts[i]);
    return lo + (hi - lo) * frac;
  }
  // Rank lands past every finite edge: the largest finite bound is the
  // tightest claim the bucket layout supports.
  if (h.bounds.empty()) return std::nullopt;
  return h.bounds.back();
}

Labels with_worker(Labels labels, std::uint32_t worker) {
  labels.emplace_back("worker", std::to_string(worker));
  return labels;
}

void sort_samples(std::vector<MetricSample>& samples) {
  // Same (name, labels) order Registry::snapshot() emits, so cluster
  // exposition text is deterministic and diffable against it.
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
}

}  // namespace

HistogramSummary summarize_histogram(const HistogramData& histogram) {
  HistogramSummary summary;
  summary.count = histogram.count;
  summary.sum = histogram.sum;
  summary.p50 = bucket_quantile(histogram, 0.50);
  summary.p90 = bucket_quantile(histogram, 0.90);
  summary.p99 = bucket_quantile(histogram, 0.99);
  return summary;
}

void ClusterAggregator::add_worker(std::uint32_t worker, std::uint32_t lease,
                                   Snapshot snapshot, Timeline timeline) {
  std::erase_if(reports_,
                [lease](const WorkerReport& r) { return r.lease == lease; });
  WorkerReport report;
  report.worker = worker;
  report.lease = lease;
  report.snapshot = std::move(snapshot);
  report.timeline = std::move(timeline);
  const auto at = std::upper_bound(
      reports_.begin(), reports_.end(), report,
      [](const WorkerReport& a, const WorkerReport& b) {
        if (a.worker != b.worker) return a.worker < b.worker;
        return a.lease < b.lease;
      });
  reports_.insert(at, std::move(report));
}

Snapshot ClusterAggregator::cluster_snapshot() const {
  using Key = std::pair<std::string, Labels>;
  std::map<Key, MetricSample> counters;
  // Gauges and bound-mismatched histograms keyed with the worker label
  // already appended; a same-identity re-report (one worker completing
  // two leases) overwrites — last value wins, it is a point-in-time
  // fact, not an increment.
  std::map<Key, MetricSample> per_worker;
  // Histogram groups under original identity; folded after the scan so a
  // bound mismatch anywhere in the group demotes the whole family to
  // per-worker samples.
  std::map<Key, std::vector<std::pair<std::uint32_t, const MetricSample*>>>
      histograms;

  for (const WorkerReport& report : reports_) {
    for (const MetricSample& s : report.snapshot.samples) {
      switch (s.type) {
        case MetricType::kCounter: {
          auto [it, fresh] = counters.try_emplace(Key{s.name, s.labels}, s);
          if (!fresh) it->second.counter_value += s.counter_value;
          break;
        }
        case MetricType::kGauge: {
          MetricSample tagged = s;
          tagged.labels = with_worker(tagged.labels, report.worker);
          per_worker.insert_or_assign(Key{tagged.name, tagged.labels},
                                      std::move(tagged));
          break;
        }
        case MetricType::kHistogram:
          histograms[Key{s.name, s.labels}].emplace_back(report.worker, &s);
          break;
      }
    }
  }

  for (const auto& [key, group] : histograms) {
    const std::vector<double>& bounds = group.front().second->histogram.bounds;
    const bool mergeable = std::all_of(
        group.begin(), group.end(), [&bounds](const auto& entry) {
          const HistogramData& h = entry.second->histogram;
          return h.bounds == bounds && h.counts.size() == bounds.size() + 1;
        });
    if (mergeable) {
      MetricSample merged = *group.front().second;
      for (std::size_t i = 1; i < group.size(); ++i) {
        const HistogramData& h = group[i].second->histogram;
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          merged.histogram.counts[b] += h.counts[b];
        }
        merged.histogram.count += h.count;
        merged.histogram.sum += h.sum;
      }
      per_worker.insert_or_assign(Key{merged.name, merged.labels},
                                  std::move(merged));
    } else {
      for (const auto& [worker, sample] : group) {
        MetricSample tagged = *sample;
        tagged.labels = with_worker(tagged.labels, worker);
        per_worker.insert_or_assign(Key{tagged.name, tagged.labels},
                                    std::move(tagged));
      }
    }
  }

  Snapshot out;
  out.samples.reserve(counters.size() + per_worker.size());
  for (auto& [key, sample] : counters) out.samples.push_back(std::move(sample));
  for (auto& [key, sample] : per_worker) {
    out.samples.push_back(std::move(sample));
  }
  sort_samples(out.samples);
  return out;
}

std::vector<ClusterWindow> ClusterAggregator::cluster_timeline() const {
  std::vector<ClusterWindow> merged;
  for (const WorkerReport& report : reports_) {
    for (const WindowRecord& rec : report.timeline) {
      merged.push_back(ClusterWindow{report.worker, rec});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ClusterWindow& a, const ClusterWindow& b) {
                     if (a.window.begin != b.window.begin) {
                       return a.window.begin < b.window.begin;
                     }
                     if (a.window.end != b.window.end) {
                       return a.window.end < b.window.end;
                     }
                     return a.worker < b.worker;
                   });
  return merged;
}

std::string ClusterAggregator::render_cluster_timeline() const {
  std::string out;
  for (const ClusterWindow& cw : cluster_timeline()) {
    out += "{\"worker\":";
    append_u64(out, cw.worker);
    out.push_back(',');
    // render_window_json emits "{...}"; splice past its opening brace so
    // the line stays one object with the worker field in front.
    const std::string window = render_window_json(cw.window);
    out.append(window, 1, window.size() - 1);
    out.push_back('\n');
  }
  return out;
}

std::string ClusterAggregator::render_trace() const {
  std::vector<TraceLane> lanes;
  lanes.reserve(reports_.size());
  for (const WorkerReport& report : reports_) {
    TraceLane lane;
    // pids are 1-based lane indices (reports_ is sorted, so this is
    // deterministic); the metadata name carries the real ids.
    lane.pid = static_cast<std::uint32_t>(lanes.size() + 1);
    lane.name = "worker " + std::to_string(report.worker) + " lease " +
                std::to_string(report.lease);
    lane.snapshot = report.snapshot;
    lane.timeline = report.timeline;
    lanes.push_back(std::move(lane));
  }
  return render_cluster_trace(lanes);
}

std::optional<std::string> lint_report(std::string_view text) {
  if (text.empty()) return "empty report";
  if (const auto err = lint_json(text)) return *err;
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos || text[first] != '{') {
    return "report is not a JSON object";
  }
  if (text.find("\"report\":\"v6pool_run_report\"") == std::string_view::npos) {
    return "missing \"report\":\"v6pool_run_report\" identity";
  }
  for (const std::string_view key :
       {"version", "config", "digest", "kernel_backend", "metrics",
        "serve_latency", "epochs", "timeline"}) {
    std::string pattern = "\"";
    pattern += key;
    pattern += "\":";
    if (text.find(pattern) == std::string_view::npos) {
      return "missing required key \"" + std::string(key) + "\"";
    }
  }
  // Percentile fields must be a JSON number or null — a renderer that
  // leaks "inf"/"nan" (not JSON) or a string would slip past lint_json
  // consumers expecting numbers.
  for (const std::string_view key : {"p50_us", "p90_us", "p99_us"}) {
    std::string pattern = "\"";
    pattern += key;
    pattern += "\":";
    std::size_t at = 0;
    while ((at = text.find(pattern, at)) != std::string_view::npos) {
      std::size_t v = at + pattern.size();
      while (v < text.size() && text[v] == ' ') ++v;
      const char c = v < text.size() ? text[v] : '\0';
      if (!(std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == 'n')) {
        return std::string(key) + " value is not a number or null";
      }
      at = v;
    }
  }
  return std::nullopt;
}

}  // namespace v6::obs
