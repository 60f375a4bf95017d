#include "analysis/parallel_scan.h"

#include <numeric>

#include "util/thread_pool.h"
#include "util/wall_clock.h"

namespace v6::analysis {

ParallelScan::ParallelScan(const AnalysisConfig& config) : config_(config) {}

ParallelScan::~ParallelScan() = default;

void ParallelScan::run(const ScanSource& source) {
  if (kernels_.empty()) return;
  const double t_start = util::steady_micros();
  const unsigned shards = config_.threads.resolved();
  const std::size_t span = source.span;
  const std::size_t n_kernels = kernels_.size();

  // Per-shard state matrix. States are created INSIDE each worker so the
  // hot aggregate objects land in that thread's allocator arena — states
  // allocated back-to-back on the spawning thread share cache lines, and
  // the resulting false sharing costs more than the whole merge.
  std::vector<std::vector<void*>> states(shards);
  std::vector<std::uint64_t> shard_records(shards, 0);

  // run_sharded partitions [0, span) into contiguous slot ranges; with
  // shards == 1 it runs inline on the calling thread — the exact serial
  // path (single state, no pool, no merge). The pool's wait_idle()
  // handshake orders each worker's writes to states[s]/shard_records[s]
  // before the merge below reads them. Each shard streams its range as
  // contiguous blocks: every kernel sees every block, so one type-erased
  // callback amortizes over the whole block instead of costing one
  // indirect call per record per kernel.
  util::run_sharded(
      span, shards, [&](unsigned s, std::size_t begin, std::size_t end) {
        auto& row = states[s];
        row.reserve(n_kernels);
        for (const auto& k : kernels_) row.push_back(k.make());
        std::uint64_t n = 0;
        source.visit_blocks(
            begin, end, [&](std::span<const hitlist::AddressRecord> block) {
              for (std::size_t k = 0; k < n_kernels; ++k) {
                kernels_[k].step_block(row[k], block);
              }
              n += block.size();
            });
        shard_records[s] = n;
      });

  const std::uint64_t scanned = std::accumulate(
      shard_records.begin(), shard_records.end(), std::uint64_t{0});

  // Deterministic reduce: fold shard s into shard 0 for s = 1, 2, ... —
  // shard-index order, never completion order — then hand the merged
  // state to finish().
  for (std::size_t k = 0; k < n_kernels; ++k) {
    const double t_merge = util::steady_micros();
    for (unsigned s = 1; s < shards; ++s) {
      kernels_[k].merge(states[0][k], states[s][k]);
      kernels_[k].destroy(states[s][k]);
      states[s][k] = nullptr;
    }
    const auto merge_us =
        static_cast<std::uint64_t>(util::steady_micros() - t_merge);
    kernels_[k].finish(states[0][k]);
    kernels_[k].destroy(states[0][k]);
    states[0][k] = nullptr;

    AnalysisStageStats stat;
    stat.stage = kernels_[k].stage;
    stat.threads = shards;
    stat.records = scanned;
    stat.merge_us = merge_us;
    stats_.push_back(std::move(stat));
  }
  // One shared pass serves every kernel, so each stage reports the same
  // scan wall time (its own merge/finish time included).
  const auto wall =
      static_cast<std::uint64_t>(util::steady_micros() - t_start);
  for (std::size_t k = stats_.size() - n_kernels; k < stats_.size(); ++k) {
    stats_[k].wall_us = wall;
  }
  // Metrics ride the already-computed stage stats — nothing touches the
  // registry inside the sharded scan itself.
  if (config_.metrics != nullptr) {
    obs::Registry& reg = *config_.metrics;
    for (std::size_t k = stats_.size() - n_kernels; k < stats_.size(); ++k) {
      const obs::Labels stage{{"stage", stats_[k].stage}};
      reg.counter("v6_analysis_records_total",
                  "Records scanned, per analysis kernel", stage)
          .inc(stats_[k].records);
      reg.histogram("v6_analysis_wall_us",
                    "Whole-stage scan wall time (microseconds)", {}, stage)
          .observe(static_cast<double>(stats_[k].wall_us));
      reg.histogram("v6_analysis_merge_us",
                    "Shard-index-order merge time (microseconds)", {}, stage)
          .observe(static_cast<double>(stats_[k].merge_us));
    }
  }
  // Past the merge barrier every counter is exact; the sampler turns this
  // pass's per-stage record counts into one timeline window.
  if (config_.sampler != nullptr) {
    config_.sampler->sample(config_.sample_time, "analysis");
  }
}

}  // namespace v6::analysis
