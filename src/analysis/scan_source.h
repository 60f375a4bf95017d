// ScanSource: the one interface through which code outside the collector
// reads a corpus. Every analysis, the serving layer's snapshot build, the
// EUI-64 tracker and the /48 release take one, so the same code runs over
// an in-memory Corpus or the out-of-core TieredCorpus and the tiered
// corpus is never collapsed into memory just to be read.
//
// ParallelScan needs exactly two things from a corpus: a contiguous
// sharding domain [0, span) and a way to visit the records of a sub-range
// in order. ScanSource type-erases those, plus a membership test that only
// in-memory sources have and only summarize_dataset uses.
//
// Visitation is block-oriented: visit_blocks() streams a sub-range as
// contiguous std::span<const AddressRecord> slices whose concatenation is
// the ascending record stream, so analyses hand whole blocks to the batch
// kernels (kernels/batch.h) instead of paying a type-erased callback per
// record.
//
// The bit-identity contract carries over: concatenating visit_blocks()
// over an ascending partition of [0, span) yields the records in
// ascending address order for both backends — a canonicalized Corpus
// because its record array is sorted, a TieredCorpus because the k-way
// merge emits sorted output — so a kernel that is merge-exact under
// ParallelScan cannot tell the backends apart. Block *boundaries* carry
// no meaning: only the concatenated stream is contractual, and kernels
// must be boundary-oblivious (asserted by tests over ragged block sizes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "hitlist/corpus.h"
#include "net/ipv6.h"

namespace v6::hitlist {
class TieredCorpus;
}  // namespace v6::hitlist

namespace v6::analysis {

struct ScanSource {
  using BlockFn = std::function<void(std::span<const hitlist::AddressRecord>)>;

  ScanSource() = default;
  // In-memory source, implicit so that every reader accepts a Corpus as
  // it is. The corpus must outlive the source and stay unmutated while
  // scans run. The whole record array is contiguous, so a sub-range
  // arrives as exactly one block.
  ScanSource(const hitlist::Corpus& corpus)  // NOLINT(runtime/explicit)
      : span(corpus.slot_span()),
        records(corpus.size()),
        visit_blocks([&corpus](std::size_t begin, std::size_t end,
                               const BlockFn& fn) {
          corpus.for_each_block_in_slot_range(begin, end, fn);
        }),
        contains([&corpus](const net::Ipv6Address& address) {
          return corpus.find(address) != nullptr;
        }) {}

  // Sharding domain: ParallelScan partitions [0, span) into contiguous
  // ranges. Record positions for a Corpus, segment indices for runs.
  std::size_t span = 0;
  // Unique records a full visit sees (metrics / sizing, not control flow).
  std::uint64_t records = 0;
  // Streams the records of domain sub-range [begin, end) as contiguous
  // blocks, in order. Must be safe to call concurrently on disjoint
  // ranges. Spans are only valid for the duration of the callback.
  std::function<void(std::size_t, std::size_t, const BlockFn&)> visit_blocks;
  // Membership probe, set only on in-memory sources: on the tiered engine
  // a probe would cost a block decode per run. Its one user is
  // summarize_dataset, which probes the in-memory dataset it summarizes.
  std::function<bool(const net::Ipv6Address&)> contains;
};

// The in-memory source, spelled like the tiered one.
inline ScanSource make_source(const hitlist::Corpus& corpus) { return corpus; }

// Out-of-core source over the merged run stream. Warms the tiered
// corpus's lazy segment/size caches here, on the calling thread, so the
// returned visit_blocks() is safe for concurrent shard workers.
ScanSource make_source(const hitlist::TieredCorpus& runs);

}  // namespace v6::analysis
