// ParallelScan: the sharded one-pass analysis engine.
//
// Every figure/table analysis is an embarrassingly parallel fold over the
// corpus: a pure per-record kernel feeding an aggregate (Gasser et al.'s
// entropy-style kernels scale linearly with sharding). This engine runs
// any number of registered kernels in ONE pass over a Corpus:
//
//   * the corpus's slot array is partitioned into `threads` contiguous
//     ranges (threads == 1 is the exact serial path: no pool, no merge);
//   * each shard runs every kernel's step() against a shard-local state,
//     visiting records in slot order;
//   * shard states are folded into shard 0's state strictly in ascending
//     shard-index order — NEVER completion order — so floating-point
//     accumulation sees one fixed association for a given thread count,
//     and concatenation-style states (sample vectors) reproduce the
//     serial records() sequence exactly.
//
// Determinism contract: a kernel whose merge() makes shard-order
// concatenation equal to the serial visit sequence (or whose aggregates
// are commutative integers/sets) produces BIT-IDENTICAL results at any
// thread count. All ported analyses (entropy distribution, Table 1,
// lifetimes, AS profiles, categories) satisfy this and tests assert it.
//
// Per-stage instrumentation (records scanned, wall µs, merge µs) is
// recorded in AnalysisStageStats so throughput regressions are visible in
// Study results and benches.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/scan_source.h"
#include "hitlist/corpus.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "util/parallelism.h"
#include "util/sim_time.h"

namespace v6::analysis {

struct AnalysisConfig {
  // Scan shards (see util::Parallelism for the 0/1/N contract). Serial by
  // default: 1 preserves the exact legacy single-threaded behavior.
  util::Parallelism threads = util::Parallelism::serial();

  // Optional metrics sink (not owned; must outlive the scan).
  obs::Registry* metrics = nullptr;

  // Optional timeline sampler (not owned): each run() closes one window
  // stamped `sample_time` after its deterministic merge — a barrier, so
  // the per-stage record counters in the window are exact at any thread
  // count. (Wall-clock stage histograms never enter WindowRecords; see
  // obs/timeline.h.) The analysis runs after the sim clock stopped, so
  // windows are zero-width at the pipeline's end.
  obs::TimelineSampler* sampler = nullptr;
  util::SimTime sample_time = 0;
};

// Per-stage scan instrumentation. Naming convention (repo-wide for stats
// structs): counts are plain nouns, durations carry a `_us` suffix.
// merge_us is included in wall_us.
struct AnalysisStageStats {
  std::string stage;
  unsigned threads = 1;
  std::uint64_t records = 0;   // records scanned by this stage's pass
  std::uint64_t wall_us = 0;   // whole stage: scan + deterministic merge
  std::uint64_t merge_us = 0;  // shard-index-order fold only

  double records_per_second() const noexcept {
    return wall_us == 0 ? 0.0
                        : static_cast<double>(records) * 1e6 /
                              static_cast<double>(wall_us);
  }
};

class ParallelScan {
 public:
  explicit ParallelScan(const AnalysisConfig& config = {});
  ~ParallelScan();

  ParallelScan(const ParallelScan&) = delete;
  ParallelScan& operator=(const ParallelScan&) = delete;

  // Registers one block kernel — the primary form:
  //   make()                -> State, one per shard, before the scan;
  //   step_block(state, block)  per contiguous record block, shard-local
  //                         (no locking needed). Blocks concatenate to
  //                         the ascending record stream; boundaries carry
  //                         no meaning, so the kernel must fold a block
  //                         exactly as it would fold its records one by
  //                         one (batch kernels are bit-identical to their
  //                         per-record references, so handing a block to
  //                         kernels/batch.h satisfies this).
  //   merge(into, from)     folds shard s into the running aggregate, in
  //                         ascending shard order (from is expiring);
  //   finish(state)         consumes the fully merged State.
  // Kernels must not throw (they run on ThreadPool workers).
  template <typename State, typename MakeFn, typename StepBlockFn,
            typename MergeFn, typename FinishFn>
  void add_block_kernel(std::string stage, MakeFn make, StepBlockFn step_block,
                        MergeFn merge, FinishFn finish) {
    Kernel k;
    k.stage = std::move(stage);
    k.make = [make = std::move(make)]() -> void* {
      return new State(make());
    };
    k.step_block = [step_block = std::move(step_block)](
                       void* s, std::span<const hitlist::AddressRecord> b) {
      step_block(*static_cast<State*>(s), b);
    };
    k.merge = [merge = std::move(merge)](void* into, void* from) {
      merge(*static_cast<State*>(into),
            std::move(*static_cast<State*>(from)));
    };
    k.finish = [finish = std::move(finish)](void* s) {
      finish(std::move(*static_cast<State*>(s)));
    };
    k.destroy = [](void* s) { delete static_cast<State*>(s); };
    kernels_.push_back(std::move(k));
  }

  // Per-record kernel registration: step(state, record) runs for every
  // record, wrapped in a loop over each block. Not deprecated — genuinely
  // scalar folds (rare branches, tiny states) read better this way — but
  // hot kernels should register the block form and batch.
  template <typename State, typename MakeFn, typename StepFn,
            typename MergeFn, typename FinishFn>
  void add_kernel(std::string stage, MakeFn make, StepFn step, MergeFn merge,
                  FinishFn finish) {
    add_block_kernel<State>(
        std::move(stage), std::move(make),
        [step = std::move(step)](State& s,
                                 std::span<const hitlist::AddressRecord> b) {
          for (const auto& rec : b) step(s, rec);
        },
        std::move(merge), std::move(finish));
  }

  // One pass over `source`: every registered kernel sees every record.
  // Appends one AnalysisStageStats per kernel to stats(). Reusable — a
  // second run() re-runs the same kernels (with fresh make() states) and
  // appends more stats.
  void run(const ScanSource& source);

  const std::vector<AnalysisStageStats>& stats() const noexcept {
    return stats_;
  }

 private:
  struct Kernel {
    std::string stage;
    std::function<void*()> make;
    std::function<void(void*, std::span<const hitlist::AddressRecord>)>
        step_block;
    std::function<void(void*, void*)> merge;
    std::function<void(void*)> finish;
    void (*destroy)(void*) = nullptr;
  };

  AnalysisConfig config_;
  std::vector<Kernel> kernels_;
  std::vector<AnalysisStageStats> stats_;
};

// Single-kernel convenience over the block contract: scans `source` and
// returns the merged State. When `stats` is non-null the stage's
// AnalysisStageStats is appended.
template <typename State, typename MakeFn, typename StepBlockFn,
          typename MergeFn>
State scan_corpus_blocks(const ScanSource& source,
                         const AnalysisConfig& config, std::string_view stage,
                         MakeFn make, StepBlockFn step_block, MergeFn merge,
                         std::vector<AnalysisStageStats>* stats = nullptr) {
  ParallelScan scan(config);
  std::optional<State> out;
  scan.add_block_kernel<State>(
      std::string(stage), std::move(make), std::move(step_block),
      std::move(merge),
      [&out](State&& merged) { out.emplace(std::move(merged)); });
  scan.run(source);
  if (stats != nullptr) {
    stats->insert(stats->end(), scan.stats().begin(), scan.stats().end());
  }
  return std::move(*out);
}

// Single-kernel convenience, per-record form.
template <typename State, typename MakeFn, typename StepFn, typename MergeFn>
State scan_corpus(const ScanSource& source, const AnalysisConfig& config,
                  std::string_view stage, MakeFn make, StepFn step,
                  MergeFn merge,
                  std::vector<AnalysisStageStats>* stats = nullptr) {
  return scan_corpus_blocks<State>(
      source, config, stage, std::move(make),
      [step = std::move(step)](State& s,
                               std::span<const hitlist::AddressRecord> b) {
        for (const auto& rec : b) step(s, rec);
      },
      std::move(merge), stats);
}

}  // namespace v6::analysis
