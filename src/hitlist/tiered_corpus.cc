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
  if (shard.size() == 0) return;
  shard.canonicalize();

  Run run;
  // spills + compactions counts every file ever created, so the sequence
  // number stays unique across compactions that delete earlier runs.
  run.path = (fs::path(config_.directory) /
              ("run-" + zero_padded(stats_.spills + stats_.compactions) +
               ".v6run"))
                 .string();
  RunFileStats written;
  {
    std::ofstream out(run.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("tiered corpus: cannot create run file: " +
                               run.path);
    }
    RunWriter writer(out, {.block_records = config_.block_records});
    for (const AddressRecord& rec : shard.records()) writer.append(rec);
    written = writer.finish();
    out.flush();
    if (!out) {
      throw std::runtime_error("tiered corpus: run write failed: " +
                               run.path);
    }
  }
  shard = Corpus(0);  // release the table before the validation read

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

Corpus TieredCorpus::collapse(std::span<const AddressRecord> live) const {
  // One merge pass straight into the record array. The reserve is an upper
  // bound (runs may share addresses); pages it never fills stay untouched.
  std::size_t upper = live.size();
  for (const Run& run : runs_) upper += static_cast<std::size_t>(run.records);
  std::vector<AddressRecord> records;
  records.reserve(upper);
  merge_runs(nullptr, live, [&records](const AddressRecord& rec) {
    records.push_back(rec);
    return true;
  });
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
