#include "hitlist/tiered_corpus.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "hitlist/corpus_io.h"
#include "util/thread_pool.h"

namespace v6::hitlist {

namespace fs = std::filesystem;

namespace {

// Unique-per-process suffix for auto-created spill directories: parallel
// ctest jobs share the temp root, so the pid alone is not enough once a
// process builds several engines.
std::uint64_t next_directory_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::ifstream open_run_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("tiered corpus: cannot open run file: " + path);
  }
  return file;
}

// One run opened for a merge: its stream, validated header and index, and
// a cursor. Heap-held by merge_runs, so the reader's and the cursor's
// back-pointers stay put.
struct OpenRun {
  std::ifstream file;
  RunReader reader;
  RunReader::Cursor cursor;

  OpenRun(const std::string& path, const net::Ipv6Address* lo)
      : file(open_run_file(path)),
        reader(file),
        cursor(lo != nullptr ? reader.cursor_at(*lo) : reader.cursor()) {}
};

// Records of one run (its block index) that may lie in [lo, hi), where a
// null bound is open. A block holds addresses from its first up to the
// next block's first, so every block overlapping the range counts whole:
// an upper bound on the run's share of the range.
std::size_t records_overlapping(const std::vector<RunBlockInfo>& blocks,
                                const net::Ipv6Address* lo,
                                const net::Ipv6Address* hi) {
  std::size_t total = 0;
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    if (hi != nullptr && !(blocks[j].first_address < *hi)) break;
    const bool ends_above_lo = lo == nullptr || j + 1 == blocks.size() ||
                               *lo < blocks[j + 1].first_address;
    if (ends_above_lo) total += blocks[j].record_count;
  }
  return total;
}

std::string zero_padded(std::uint64_t v) {
  std::string digits = std::to_string(v);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

}  // namespace

TieredCorpus::TieredCorpus(SpillConfig config, obs::Registry* metrics)
    : config_(std::move(config)) {
  if (config_.directory.empty()) {
    const fs::path dir =
        fs::temp_directory_path() /
        ("v6pool-runs-" + std::to_string(::getpid()) + "-" +
         std::to_string(next_directory_id()));
    fs::create_directories(dir);
    config_.directory = dir.string();
    owns_directory_ = true;
  } else {
    owns_directory_ = !fs::exists(config_.directory);
    fs::create_directories(config_.directory);
  }
  if (metrics != nullptr) {
    metric_spills_ = metrics->counter(
        "v6_corpus_spills_total", "Shard tables flushed into on-disk runs");
    metric_spilled_records_ =
        metrics->counter("v6_corpus_spilled_records_total",
                         "Address records written across all spills");
    metric_spill_bytes_ = metrics->counter(
        "v6_corpus_spill_bytes_total", "Run-file bytes written by spills");
    metric_compactions_ = metrics->counter(
        "v6_corpus_compactions_total", "Multi-run merges into a single run");
    metric_runs_ =
        metrics->gauge("v6_corpus_runs", "Live on-disk runs right now");
  }
}

TieredCorpus::~TieredCorpus() {
  std::error_code ec;  // destructor path: never throw, best effort
  for (const Run& run : runs_) fs::remove(run.path, ec);
  if (owns_directory_) fs::remove(config_.directory, ec);
}

void TieredCorpus::invalidate_caches() {
  merged_size_cache_.reset();
  bounds_cache_.reset();
}

void TieredCorpus::spill(Corpus&& shard) {
  shard.canonicalize();
  spill(shard.records());
  shard = Corpus(0);
}

void TieredCorpus::spill(std::span<const AddressRecord> records) {
  if (records.empty()) return;

  Run run;
  // spills + compactions counts every file ever created, so the sequence
  // number stays unique across compactions that delete earlier runs.
  run.path = (fs::path(config_.directory) /
              ("run-" + zero_padded(stats_.spills + stats_.compactions) +
               ".v6run"))
                 .string();
  RunFileStats written;
  try {
    std::ofstream out(run.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("tiered corpus: cannot create run file: " +
                               run.path);
    }
    RunWriter writer(out, {.block_records = config_.block_records});
    for (const AddressRecord& rec : records) writer.append(rec);
    written = writer.finish();
    out.flush();
    if (!out) {
      throw std::runtime_error("tiered corpus: run write failed: " +
                               run.path);
    }
  } catch (...) {
    // A rejected span (not strictly ascending) leaves no partial file.
    std::error_code ec;
    fs::remove(run.path, ec);
    throw;
  }

  // Re-open and validate immediately: a spill that would not round-trip
  // (disk error, format bug) must fail here, not at analysis time. The
  // validated header and index are cached for segment planning.
  std::ifstream in(run.path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("tiered corpus: cannot reopen run file: " +
                             run.path);
  }
  RunReader reader(in);
  run.records = reader.records();
  run.observations = reader.observations();
  run.bytes = written.bytes;
  run.blocks = reader.blocks();
  runs_.push_back(std::move(run));

  stats_.spills += 1;
  stats_.spilled_records += written.records;
  stats_.disk_bytes += written.bytes;
  metric_spills_.inc();
  metric_spilled_records_.inc(written.records);
  metric_spill_bytes_.inc(written.bytes);
  metric_runs_.set(static_cast<double>(runs_.size()));
  invalidate_caches();
}

template <typename Emit>
void TieredCorpus::merge_runs(const net::Ipv6Address* lo,
                              std::span<const AddressRecord> extra,
                              Emit&& emit) const {
  std::vector<std::unique_ptr<OpenRun>> open;
  std::vector<BlockStream> streams;
  open.reserve(runs_.size());
  streams.reserve(runs_.size() + 1);
  for (const Run& run : runs_) {
    open.push_back(std::make_unique<OpenRun>(run.path, lo));
    streams.push_back(cursor_stream(open.back()->cursor));
  }
  if (!extra.empty()) streams.push_back(span_stream(extra));
  merge_record_blocks(streams, emit);
}

void TieredCorpus::compact() {
  if (runs_.size() <= 1) return;

  const std::string path =
      (fs::path(config_.directory) /
       ("run-" + zero_padded(stats_.spills + stats_.compactions) + ".v6run"))
          .string();
  RunFileStats written;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("tiered corpus: cannot create run file: " +
                               path);
    }
    RunWriter writer(out, {.block_records = config_.block_records});
    merge_runs(nullptr, {}, [&writer](const AddressRecord& rec) {
      writer.append(rec);
      return true;
    });
    written = writer.finish();
    out.flush();
    if (!out) {
      throw std::runtime_error("tiered corpus: run write failed: " + path);
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("tiered corpus: cannot reopen run file: " +
                             path);
  }
  RunReader reader(in);
  Run merged;
  merged.path = path;
  merged.records = reader.records();
  merged.observations = reader.observations();
  merged.bytes = written.bytes;
  merged.blocks = reader.blocks();

  std::error_code ec;
  for (const Run& run : runs_) fs::remove(run.path, ec);
  runs_.clear();
  runs_.push_back(std::move(merged));
  stats_.compactions += 1;
  stats_.disk_bytes = written.bytes;
  metric_compactions_.inc();
  metric_runs_.set(static_cast<double>(runs_.size()));
  invalidate_caches();
}

std::uint64_t TieredCorpus::merged_size() const {
  if (!merged_size_cache_.has_value()) {
    merged_size_cache_ = merged_size_with({});
  }
  return *merged_size_cache_;
}

std::uint64_t TieredCorpus::merged_size_with(
    std::span<const AddressRecord> extra) const {
  std::uint64_t unique = 0;
  merge_runs(nullptr, extra, [&unique](const AddressRecord&) {
    ++unique;
    return true;
  });
  return unique;
}

std::uint64_t TieredCorpus::total_observations() const noexcept {
  std::uint64_t total = 0;
  for (const Run& run : runs_) total += run.observations;
  return total;
}

void TieredCorpus::for_each_merged(
    const std::function<void(const AddressRecord&)>& fn) const {
  merge_runs(nullptr, {}, [&fn](const AddressRecord& rec) {
    fn(rec);
    return true;
  });
}

const std::vector<net::Ipv6Address>& TieredCorpus::segment_bounds() const {
  if (!bounds_cache_.has_value()) {
    std::vector<net::Ipv6Address> bounds;
    for (const Run& run : runs_) {
      for (const RunBlockInfo& block : run.blocks) {
        bounds.push_back(block.first_address);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    bounds_cache_ = std::move(bounds);
  }
  return *bounds_cache_;
}

void TieredCorpus::scan_segment_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::span<const AddressRecord>)>& fn) const {
  const auto& bounds = segment_bounds();
  end = std::min(end, bounds.size());
  if (begin >= end) return;
  const net::Ipv6Address lo = bounds[begin];
  const bool bounded = end < bounds.size();
  const net::Ipv6Address hi = bounded ? bounds[end] : net::Ipv6Address{};
  // The merge surfaces one aggregated record at a time; stage them in a
  // scan-local buffer and hand off full blocks.
  std::vector<AddressRecord> buffer;
  buffer.reserve(kScanBlockRecords);
  merge_runs(&lo, {}, [&](const AddressRecord& rec) {
    if (bounded && !(rec.address < hi)) return false;
    buffer.push_back(rec);
    if (buffer.size() == kScanBlockRecords) {
      fn(std::span<const AddressRecord>(buffer));
      buffer.clear();
    }
    return true;
  });
  if (!buffer.empty()) fn(std::span<const AddressRecord>(buffer));
}

std::optional<AddressRecord> TieredCorpus::find(
    const net::Ipv6Address& address) const {
  std::optional<AddressRecord> result;
  for (const Run& run : runs_) {
    OpenRun open(run.path, &address);
    AddressRecord rec;
    if (!open.cursor.next(rec) || rec.address != address) continue;
    if (!result.has_value()) {
      result = rec;
    } else {
      fold_record(*result, rec);
    }
  }
  return result;
}

Corpus TieredCorpus::collapse(std::span<const AddressRecord> live,
                              util::ThreadPool* pool) const {
  const auto& bounds = segment_bounds();  // warmed before any worker reads
  // Every segment starts a block of some run, so even a one-segment range
  // has a block to decode and merge. Without a pool there is one range,
  // merged inline: the serial collapse.
  const unsigned ranges = util::shard_count(pool, bounds.size(), 1);

  // Range r merges segments shard_range(bounds, r, ranges): addresses
  // [bounds[begin], bounds[end]), the first range open below and the last
  // open above, so live records outside the runs' span land in them. Each
  // range writes straight into its own slice of one record array. The
  // slices are sized here, on the calling thread, to an upper bound of
  // what their range can emit (runs may share addresses), so no worker
  // grows a vector: growth inside the workers strands freed buffers in
  // their malloc arenas and raised peak RSS (DESIGN.md, Pooled epoch
  // collapse).
  struct Range {
    const net::Ipv6Address* lo = nullptr;  // null: open
    const net::Ipv6Address* hi = nullptr;
    std::span<const AddressRecord> live;
    std::size_t begin = 0;  // the slice: [begin, begin + size)
    std::size_t size = 0;
  };
  const auto live_below = [&live](const net::Ipv6Address* bound) {
    if (bound == nullptr) return live.size();
    return static_cast<std::size_t>(
        std::lower_bound(live.begin(), live.end(), *bound,
                         [](const AddressRecord& rec,
                            const net::Ipv6Address& key) {
                           return rec.address < key;
                         }) -
        live.begin());
  };
  std::vector<Range> plan(ranges);
  std::size_t upper = 0;
  for (unsigned r = 0; r < ranges; ++r) {
    const util::ShardRange seg = util::shard_range(bounds.size(), r, ranges);
    Range& range = plan[r];
    if (r > 0) range.lo = &bounds[seg.begin];
    if (r + 1 < ranges) range.hi = &bounds[seg.end];
    const std::size_t first = range.lo == nullptr ? 0 : live_below(range.lo);
    range.live = live.subspan(first, live_below(range.hi) - first);
    range.begin = upper;
    upper += range.live.size();
    for (const Run& run : runs_) {
      upper += records_overlapping(run.blocks, range.lo, range.hi);
    }
  }
  // Sized without writing: only the records the ranges emit touch memory.
  RecordArray records(upper);
  util::run_sharded(pool, ranges, ranges,
                    [&](unsigned r, std::size_t, std::size_t) {
                      Range& range = plan[r];
                      AddressRecord* out = records.data() + range.begin;
                      merge_runs(range.lo, range.live,
                                 [&range, out](const AddressRecord& rec) {
                                   if (range.hi != nullptr &&
                                       !(rec.address < *range.hi)) {
                                     return false;
                                   }
                                   out[range.size++] = rec;
                                   return true;
                                 });
                    });
  // Slide the slices down in range order: each one lands right after the
  // last, never past its own start.
  std::size_t total = 0;
  for (const Range& range : plan) {
    const auto from = records.begin() + static_cast<std::ptrdiff_t>(range.begin);
    if (total != range.begin) {
      std::copy(from, from + static_cast<std::ptrdiff_t>(range.size),
                records.begin() + static_cast<std::ptrdiff_t>(total));
    }
    total += range.size;
  }
  records.resize(total);
  return Corpus::from_canonical(std::move(records));
}

std::size_t TieredCorpus::save(std::ostream& out) const {
  // Two passes over the merge (count, then write): the snapshot header
  // holds the totals up front and CorpusSnapshotWriter cross-checks them,
  // so a merge that is not repeatable fails loudly at finish().
  CorpusSnapshotWriter writer(out, merged_size(), total_observations());
  for_each_merged(
      [&writer](const AddressRecord& rec) { writer.append(rec); });
  return writer.finish();
}

}  // namespace v6::hitlist
