#include "serve/query_service.h"

#include <algorithm>

#include "analysis/scan_source.h"
#include "util/wall_clock.h"

namespace v6::serve {

namespace {

// RAII latency probe: observes the enclosing scope's wall-clock duration
// (µs) into the query kind's histogram on destruction. A no-op handle
// (metrics unwired) costs one branch.
class LatencyProbe {
 public:
  explicit LatencyProbe(const obs::Histogram& histogram) noexcept
      : histogram_(histogram), begin_us_(util::steady_micros()) {}
  ~LatencyProbe() { histogram_.observe(util::steady_micros() - begin_us_); }

 private:
  const obs::Histogram& histogram_;
  double begin_us_;
};

}  // namespace

std::vector<double> serve_latency_buckets_us() {
  return {0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1000.0, 4000.0, 16000.0,
          100000.0};
}

const char* to_string(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kPoint: return "point";
    case QueryKind::kDensity48: return "density48";
    case QueryKind::kEntropy64: return "entropy64";
    case QueryKind::kOuiRisk: return "oui";
  }
  return "unknown";
}

QueryService::QueryService(std::size_t retain_epochs)
    : retain_epochs_(std::max<std::size_t>(retain_epochs, 1)) {}

void QueryService::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) return;
  for (std::size_t i = 0; i < kQueryKinds; ++i) {
    const obs::Labels labels{{"kind", to_string(static_cast<QueryKind>(i))}};
    metric_queries_[i] = registry->counter(
        "v6_serve_queries_total", "Queries answered by the serving layer",
        labels);
    metric_latency_[i] = registry->histogram(
        "v6_serve_latency_us",
        "Wall-clock latency of counted convenience queries (microseconds; "
        "not covered by the determinism gates)",
        serve_latency_buckets_us(), labels);
  }
  metric_epochs_ = registry->counter("v6_serve_epochs_published_total",
                                     "Snapshot epochs published");
  metric_epoch_ = registry->gauge("v6_serve_epoch",
                                  "Epoch of the currently served snapshot");
  metric_records_ = registry->gauge(
      "v6_serve_snapshot_records",
      "Addresses in the currently served snapshot");
}

void QueryService::set_retain_epochs(std::size_t retain_epochs) {
  std::lock_guard<std::mutex> lock(mu_);
  retain_epochs_ = std::max<std::size_t>(retain_epochs, 1);
  if (retained_.size() > retain_epochs_) {
    retained_.erase(retained_.begin(),
                    retained_.end() - static_cast<std::ptrdiff_t>(retain_epochs_));
  }
}

std::shared_ptr<const Snapshot> QueryService::publish(
    const analysis::ScanSource& src, util::SimTime as_of) {
  const std::uint64_t epoch =
      epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto snap = Snapshot::build(src, epoch, as_of, build_threads_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    retained_.push_back(snap);
    if (retained_.size() > retain_epochs_) {
      retained_.erase(
          retained_.begin(),
          retained_.end() - static_cast<std::ptrdiff_t>(retain_epochs_));
    }
    // The swap: readers pinning current() from here on see the new epoch;
    // readers still holding the old pointer keep that epoch alive.
    current_ = snap;
  }
  metric_epochs_.inc();
  metric_epoch_.set(static_cast<double>(epoch));
  metric_records_.set(static_cast<double>(snap->records()));
  return snap;
}

std::vector<std::shared_ptr<const Snapshot>> QueryService::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

std::optional<hitlist::AddressRecord> QueryService::point(
    const net::Ipv6Address& address) const {
  const LatencyProbe probe(
      metric_latency_[static_cast<std::size_t>(QueryKind::kPoint)]);
  count_queries(QueryKind::kPoint);
  const auto snap = current();
  if (!snap) return std::nullopt;
  return snap->find(address);
}

std::uint64_t QueryService::slash48_density(
    const net::Ipv6Address& address) const {
  const LatencyProbe probe(
      metric_latency_[static_cast<std::size_t>(QueryKind::kDensity48)]);
  count_queries(QueryKind::kDensity48);
  const auto snap = current();
  if (!snap) return 0;
  return snap->slash48_density(address);
}

Slash64Summary QueryService::slash64_entropy(
    const net::Ipv6Address& address) const {
  const LatencyProbe probe(
      metric_latency_[static_cast<std::size_t>(QueryKind::kEntropy64)]);
  count_queries(QueryKind::kEntropy64);
  const auto snap = current();
  if (!snap) return {};
  return snap->slash64(address).value_or(Slash64Summary{});
}

OuiRisk QueryService::oui_risk(net::Oui oui) const {
  const LatencyProbe probe(
      metric_latency_[static_cast<std::size_t>(QueryKind::kOuiRisk)]);
  count_queries(QueryKind::kOuiRisk);
  const auto snap = current();
  if (!snap) return {};
  if (const OuiRisk* risk = snap->oui_risk(oui)) return *risk;
  return {};
}

}  // namespace v6::serve
