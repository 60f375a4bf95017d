// TieredCorpus: the out-of-core corpus engine.
//
// The paper's corpus is 7.9B unique addresses — far past what one
// in-memory table holds. This engine keeps collection's shard tables
// in memory but, at the deterministic merge barriers the chunk loop
// already runs, flushes their union as a sorted, delta-encoded run file
// (run_io.h) and resets the tables. Analysis, snapshot export, epoch
// collapse and compaction then all see one ascending record stream: one
// block-pull k-way merge (merge_record_blocks) over the runs' cursors,
// which aggregates duplicates exactly like Corpus::add_record (min
// first_seen, max last_seen, sum count, OR vantage_mask).
//
// Determinism contract (the headline invariant, asserted by tests): for a
// fixed spill budget and thread count the run files are bit-identical
// across repeats, and for ANY budget and ANY thread count the merged
// stream — hence save() bytes and every analysis float — is bit-identical
// to the unlimited-memory run. The pieces: spills happen only at merge
// barriers on the sim-time grid, each run is the canonicalized union of
// ALL shards (thread-count-independent content), and the merge's
// aggregation is field-for-field the in-memory fold.
//
// Concurrency: the read path (scan_segment_blocks, for_each_merged,
// contains) is const, and every call opens its own file streams and
// cursors (whose decode buffers are call-local), so ParallelScan workers
// may call it concurrently — PROVIDED the lazy caches were warmed first:
// call segment_bounds() and merged_size() once from one thread (which is
// what analysis::make_source does). collapse() may shard its merge on a
// caller's pool: it warms segment_bounds() on the calling thread first,
// and its workers only read. Mutations (spill, compact) stay serial and
// must be externally serialized against everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hitlist/corpus.h"
#include "hitlist/run_io.h"
#include "obs/metrics.h"

namespace v6::util {
class ThreadPool;
}

namespace v6::hitlist {

struct SpillConfig {
  // Combined heap budget for the collector's shard tables; crossing it at
  // a merge barrier triggers a spill. 0 disables out-of-core collection
  // entirely (the knob Study/RunOptions expose).
  std::size_t memory_budget_bytes = 0;
  // Where run files live. Empty: a fresh directory under the system temp
  // root, removed with the TieredCorpus.
  std::string directory;
  // Records per run-file block (delta-chain reset + seek granularity).
  // Tests shrink it to force multi-block runs on tiny corpora.
  std::uint32_t block_records = 4096;

  bool active() const noexcept { return memory_budget_bytes > 0; }
};

// Lifetime totals; `disk_bytes` and the runs gauge describe the present.
struct TieredCorpusStats {
  std::uint64_t spills = 0;
  std::uint64_t spilled_records = 0;  // records written across all spills
  std::uint64_t compactions = 0;
  std::uint64_t disk_bytes = 0;  // current total size of live run files
};

class TieredCorpus {
 public:
  explicit TieredCorpus(SpillConfig config, obs::Registry* metrics = nullptr);
  ~TieredCorpus();

  TieredCorpus(const TieredCorpus&) = delete;
  TieredCorpus& operator=(const TieredCorpus&) = delete;

  const SpillConfig& config() const noexcept { return config_; }
  const TieredCorpusStats& stats() const noexcept { return stats_; }
  std::size_t run_count() const noexcept { return runs_.size(); }

  // Writes `records` (strictly ascending, e.g. the collector's live union)
  // as one run; RunWriter throws on input that is not. An empty span is
  // ignored. The written file is re-opened and validated immediately, so a
  // spill that would not round-trip throws here, not at analysis time.
  void spill(std::span<const AddressRecord> records);
  // Canonicalizes `shard` and spills its records (consuming it).
  void spill(Corpus&& shard);

  // Merges every live run into a single new run and deletes the old
  // files; the merged stream (and all reads) are unchanged.
  void compact();

  // Unique addresses across all runs (one counting merge; cached until
  // the next spill/compact).
  std::uint64_t merged_size() const;
  // As if `extra` (strictly ascending, e.g. the canonical live shard
  // union) were a run.
  std::uint64_t merged_size_with(std::span<const AddressRecord> extra) const;
  // Total raw observations (each lands in exactly one run, so this is a
  // plain sum over run headers).
  std::uint64_t total_observations() const noexcept;

  // Streams the aggregated union of all runs in ascending address order.
  void for_each_merged(
      const std::function<void(const AddressRecord&)>& fn) const;

  // The contiguous scan domain handed to analysis::ParallelScan: sorted
  // unique block-start addresses across all runs. Segment i covers
  // addresses [bounds[i], bounds[i+1]) (the last one unbounded above);
  // bounds[0] is the global minimum record address, so concatenating
  // scan_segment_blocks over [0, size) in order replays for_each_merged
  // exactly.
  const std::vector<net::Ipv6Address>& segment_bounds() const;

  // Streams the merged records of segments [begin, end), in ascending
  // address order, as contiguous spans of up to kScanBlockRecords records
  // (staged in a scan-local buffer: a span is only valid inside the
  // callback). Block boundaries carry no meaning; only the concatenated
  // stream is contractual. Thread-safe against concurrent calls (each
  // opens its own streams and cursors); see the caching caveat above.
  static constexpr std::size_t kScanBlockRecords = 4096;
  void scan_segment_blocks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::span<const AddressRecord>)>& fn) const;

  // Point lookup across all runs (aggregating duplicates). Decodes one
  // block per run — meant for tests and spot checks, not hot loops.
  std::optional<AddressRecord> find(const net::Ipv6Address& address) const;
  bool contains(const net::Ipv6Address& address) const {
    return find(address).has_value();
  }

  // Materializes the merged stream as an in-memory, already canonical
  // Corpus, as if `live` (strictly ascending, e.g. the canonical union of
  // the collector's live shard tables) were one more run. One k-way merge
  // fills the record array, which is then indexed once. With a `pool`,
  // contiguous ranges of segment_bounds() merge on its workers, each with
  // its slice of `live`, into parts reserved on the calling thread; the
  // parts are concatenated in order, so the result does not depend on the
  // pool. The pool must be idle and serve this call alone.
  Corpus collapse(std::span<const AddressRecord> live = {},
                  util::ThreadPool* pool = nullptr) const;

  // Writes the merged stream as a corpus snapshot (corpus_io v2),
  // byte-identical to save_corpus() of the equivalent canonicalized
  // in-memory corpus. Returns bytes written.
  std::size_t save(std::ostream& out) const;

 private:
  struct Run {
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t observations = 0;
    std::uint64_t bytes = 0;
    std::vector<RunBlockInfo> blocks;
  };

  // The one read path: opens every run — each from its first record
  // >= *lo, or from its start when lo is null — plus `extra` (strictly
  // ascending) as one more stream, and merges them into `emit` (see
  // merge_record_blocks). Defined in the .cc, its only user.
  template <typename Emit>
  void merge_runs(const net::Ipv6Address* lo,
                  std::span<const AddressRecord> extra, Emit&& emit) const;
  void invalidate_caches();

  SpillConfig config_;
  bool owns_directory_ = false;
  std::vector<Run> runs_;
  TieredCorpusStats stats_;
  mutable std::optional<std::uint64_t> merged_size_cache_;
  mutable std::optional<std::vector<net::Ipv6Address>> bounds_cache_;
  obs::Counter metric_spills_;
  obs::Counter metric_spilled_records_;
  obs::Counter metric_spill_bytes_;
  obs::Counter metric_compactions_;
  obs::Gauge metric_runs_;
};

}  // namespace v6::hitlist
