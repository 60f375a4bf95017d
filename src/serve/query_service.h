// QueryService: hitlist-as-a-service over a live corpus.
//
// The read-mostly snapshot pattern of Jool's pool6.c (SNIPPETS.md) in
// modern C++: the collector publishes an immutable Snapshot at each
// sim-time merge barrier by swapping a shared_ptr; readers copy the
// pointer and answer queries against a frozen epoch while ingest keeps
// running. The pointer swap/copy is guarded by a mutex held only for the
// refcount bump — readers pin an epoch once per batch and then query the
// Snapshot itself lock-free — and publication never waits for readers: a
// reader that grabbed epoch N keeps it alive (shared_ptr refcount is the
// grace period) while epoch N+1 serves new pins. (A lock-free
// std::atomic<shared_ptr> would express the same shape, but libstdc++
// 12's lock-bit implementation pairs its protected-pointer accesses with
// a relaxed unlock, which ThreadSanitizer flags — the mutex keeps the
// reader/ingest race test in the TSan CI job clean at identical cost per
// pinned batch.)
//
// Determinism contract: every answer is a pure function of the snapshot
// it was asked of. Snapshots are built at merge barriers from
// canonicalized content, so for a given epoch the answers are
// bit-identical at any reader thread count and any ingest thread count
// (tests and bench_query_serving assert this).
//
// Memory bound: the service retains at most `retain_epochs` snapshots
// (a deque under the publish mutex); older epochs die as soon as the
// last outside reader drops its pointer. Worst-case footprint is
// retain_epochs * Snapshot::memory_bytes() plus whatever readers pin
// (about 36 B per address per retained epoch; see snapshot.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "util/parallelism.h"
#include "util/sim_time.h"

namespace v6::serve {

// What Study::run(RunOptions::serve) turns on.
struct ServeConfig {
  bool enabled = false;
  // Sim-time spacing of interior publication barriers inside the
  // collection window (the collector joins all shards there, exactly like
  // the checkpoint grid). 0 publishes only the final end-of-collection
  // epoch. Distributed stage 1 always publishes only the final epoch.
  util::SimDuration epoch_interval = 0;
  // Retention bound on snapshots the service itself keeps alive.
  std::size_t retain_epochs = 4;
};

enum class QueryKind : std::uint8_t {
  kPoint = 0,
  kDensity48 = 1,
  kEntropy64 = 2,
  kOuiRisk = 3,
};
inline constexpr std::size_t kQueryKinds = 4;

const char* to_string(QueryKind kind) noexcept;

class QueryService {
 public:
  explicit QueryService(std::size_t retain_epochs = 4);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Registers the serve counters/gauges. Call before readers start (the
  // handles are plain members); a null registry keeps them no-ops.
  void set_metrics(obs::Registry* registry);
  void set_retain_epochs(std::size_t retain_epochs);
  // Shards each publish() builds its snapshot on (util::Parallelism's
  // contract; serial by default). The answers do not depend on it.
  // Publisher-side, like publish().
  void set_build_threads(util::Parallelism threads) noexcept {
    build_threads_ = threads;
  }

  // Builds the next epoch's snapshot from `src` (ascending record
  // stream; see Snapshot::build) and publishes it. Publisher-side only —
  // call from one thread at a merge barrier. Returns the published
  // snapshot.
  std::shared_ptr<const Snapshot> publish(const analysis::ScanSource& src,
                                          util::SimTime as_of);

  // The latest published epoch (null before the first publish). Pins the
  // epoch: the mutex is held for one shared_ptr copy; batch queries
  // against the returned Snapshot directly.
  std::shared_ptr<const Snapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  // The retained epochs, ascending. Readers holding older shared_ptrs
  // keep those epochs alive beyond this window; the service itself only
  // pins the last retain_epochs.
  std::vector<std::shared_ptr<const Snapshot>> retained() const;

  std::uint64_t epochs_published() const noexcept {
    return epoch_counter_.load(std::memory_order_relaxed);
  }

  // --- Counted convenience queries against the current epoch -----------
  // Each loads current() once; a null current answers "unknown"/zero.
  // Readers pinning one epoch across a batch should query the Snapshot
  // directly and tally with count_queries(). Each observes its wall-clock
  // duration into v6_serve_latency_us{kind=...} — real elapsed time, so
  // (like the analysis stage wall_us histograms) those samples sit
  // explicitly OUTSIDE the determinism gates; everything else the serve
  // layer exports stays bit-identical.

  std::optional<hitlist::AddressRecord> point(
      const net::Ipv6Address& address) const;
  std::uint64_t slash48_density(const net::Ipv6Address& address) const;
  Slash64Summary slash64_entropy(const net::Ipv6Address& address) const;
  OuiRisk oui_risk(net::Oui oui) const;

  // Bulk query accounting for epoch-pinned readers (wait-free striped
  // counter increments; see obs/metrics.h).
  void count_queries(QueryKind kind, std::uint64_t n = 1) const noexcept {
    metric_queries_[static_cast<std::size_t>(kind)].inc(n);
  }

 private:
  mutable std::mutex mu_;  // guards current_, retained_, retain_epochs_
  std::shared_ptr<const Snapshot> current_;
  std::vector<std::shared_ptr<const Snapshot>> retained_;
  std::size_t retain_epochs_;
  util::Parallelism build_threads_ = util::Parallelism::serial();
  std::atomic<std::uint64_t> epoch_counter_{0};
  obs::Counter metric_queries_[kQueryKinds];
  obs::Histogram metric_latency_[kQueryKinds];
  obs::Counter metric_epochs_;
  obs::Gauge metric_epoch_;
  obs::Gauge metric_records_;
};

// Latency bucket edges for the serve path, in microseconds: point lookups
// answer in well under a microsecond, so the ladder starts at 0.25µs and
// climbs ~4x to 100ms (the default stage-duration ladder starts at 100µs —
// far too coarse here).
std::vector<double> serve_latency_buckets_us();

}  // namespace v6::serve
