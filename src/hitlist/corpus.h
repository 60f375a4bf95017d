// Corpus: the aggregated observation store behind every dataset in the
// study (the NTP corpus, the simulated IPv6 Hitlist, the CAIDA campaign).
//
// Billions-of-addresses scale (paper) maps to millions here, so the store
// is a cache-friendly dense table: records live contiguously in insertion
// order in `records_`, and an open-addressing index of u32 record ids
// (linear probing, power-of-two capacity, load factor <= ~0.66) maps
// addresses to them. Per address it keeps exactly what the analyses need —
// first/last sighting, observation count, vantage bitmask — so collection
// is O(1) memory per *unique address*, not per observation.
//
// The dense layout is what the out-of-core engine (tiered_corpus.h) builds
// on: after canonicalize() the record array IS the ascending-address
// stream, so an in-memory scan and a k-way merge over spilled runs visit
// records in the identical order — the bit-identity contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/ipv6.h"
#include "util/sim_time.h"

namespace v6::hitlist {

struct AddressRecord {
  net::Ipv6Address address;
  std::uint32_t first_seen = 0;  // seconds since study epoch
  std::uint32_t last_seen = 0;
  std::uint32_t count = 0;
  // Bit v set: seen at vantage v, for v < 31. Bit 31 is the overflow
  // bucket: a sighting from any vantage >= 31 sets it, so no observation
  // is ever silently dropped from the mask (the study runs 27 vantages;
  // the bucket only matters for configs beyond the mask's width).
  std::uint32_t vantage_mask = 0;

  util::SimDuration lifetime() const noexcept {
    return static_cast<util::SimDuration>(last_seen) - first_seen;
  }
};

// Folds `rec` (a sighting summary of the same address) into `agg`: min
// first_seen, max last_seen, sum count (wrapping at u32), OR vantage_mask.
// The one aggregation rule every merge path (table, k-way, sorted) uses.
inline void fold_record(AddressRecord& agg, const AddressRecord& rec) noexcept {
  agg.first_seen = std::min(agg.first_seen, rec.first_seen);
  agg.last_seen = std::max(agg.last_seen, rec.last_seen);
  agg.count += rec.count;
  agg.vantage_mask |= rec.vantage_mask;
}

// The allocator of a corpus's record array: std::allocator, except that a
// record made with no arguments (vector growth by resize) is left
// unwritten, so growing an array only reserves memory and pages no record
// is written to are never touched. Records are trivially copyable, so the
// allocation provides their objects; each must be written before it is
// read.
template <typename T>
struct RecordAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

// TieredCorpus::collapse sizes one to an upper bound of the records it
// merges and fills a prefix of it.
using RecordArray = std::vector<AddressRecord, RecordAllocator<AddressRecord>>;

class Corpus {
 public:
  explicit Corpus(std::size_t expected_addresses = 1 << 16);

  // Adopts a strictly ascending record array as a canonical corpus: the
  // array is kept as is and indexed once, with no per-record inserts.
  static Corpus from_canonical(RecordArray&& records);

  // The union of `parts` as one strictly ascending record array, with
  // duplicate addresses folded like merge(): the canonical record array of
  // the merged corpus, built with one sort and no hash table.
  static RecordArray canonical_union(
      std::span<const Corpus* const> parts);

  // The merged corpus of `parts`, canonical: canonical_union() adopted by
  // from_canonical(), with the parts released before the index is built.
  // The dist reduce over a run's device ranges.
  static Corpus canonical_merge(std::vector<Corpus> parts);

  // A moved-from Corpus is empty but fully usable: find() answers
  // nullptr and the next add() lazily re-creates a minimal table (the
  // default-move alternative left an empty index vector that find()/add()
  // would index into — UB).
  Corpus(Corpus&& other) noexcept;
  Corpus& operator=(Corpus&& other) noexcept;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  // An explicit deep copy: the record array and index are copied as they
  // are, so the copy has the same layout and nothing is re-hashed.
  // Implicit copies stay deleted; a full-corpus copy should be visible.
  Corpus copy() const;

  // Records one sighting. `t` is clamped into u32 seconds: negative times
  // clamp to 0 and times past 2^32-1 saturate at UINT32_MAX (truncating
  // instead would wrap first_seen/last_seen and manufacture negative
  // lifetimes). `vantage` sets bit min(vantage, 31) of the record's
  // vantage_mask — out-of-range vantages land in the bit-31 overflow
  // bucket rather than being dropped.
  void add(const net::Ipv6Address& address, util::SimTime t,
           std::uint8_t vantage = 0);

  // Merges every record of `other` into *this.
  void merge(const Corpus& other);

  // Merges one pre-aggregated record (same semantics as merge()).
  void add_record(const AddressRecord& record);

  // Merges a contiguous block of pre-aggregated records (same semantics
  // as add_record over each, in order). The hot path for block handoff:
  // addresses are hashed through the batch kernel
  // (kernels::ipv6_hash_batch) a block at a time instead of one indirect
  // hash call per record. Backend-independent: both kernel backends are
  // bit-identical, so probe sequences — and therefore the table layout —
  // never depend on the dispatch choice.
  void add_block(std::span<const AddressRecord> block);

  const AddressRecord* find(const net::Ipv6Address& address) const noexcept;

  // Re-sorts the record array into ascending address order (and rebuilds
  // the index). Records land in records() in first-insertion order, so
  // the raw layout — and with it records() order and save_corpus()
  // bytes — depends on the order sightings arrived. Canonicalizing makes
  // the layout a pure function of the stored content; collection calls
  // this at its final merge barrier so chunk grids (checkpoints, timeline
  // sampling) and shard counts change no output byte. It also aligns the
  // in-memory visit order with the ascending-address stream a k-way merge
  // over spilled runs produces.
  void canonicalize();

  std::size_t size() const noexcept { return records_.size(); }
  std::uint64_t total_observations() const noexcept { return observations_; }

  // The dense record array, in insertion order (ascending address order
  // after canonicalize()). Pointers/spans are invalidated by any mutation.
  std::span<const AddressRecord> records() const noexcept {
    return records_;
  }

  // Heap footprint of the table (records + index), the quantity the
  // collector's spill budget meters.
  std::size_t memory_bytes() const noexcept {
    return records_.capacity() * sizeof(AddressRecord) +
           index_.capacity() * sizeof(std::uint32_t);
  }

  // Hands the whole record array to `fn` as one contiguous block, in
  // insertion order (ascending address order after canonicalize()), so
  // callers feed the span straight into the batch kernels.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    fn(std::span<const AddressRecord>(records_));
  }

  // Sharded iteration domain for analysis::ParallelScan: the number of
  // stored records. Partitioning [0, slot_span()) into contiguous ranges
  // and concatenating for_each_block_in_slot_range() over them in
  // ascending order visits records in exactly records() order — the
  // invariant the parallel analyses' determinism rests on.
  std::size_t slot_span() const noexcept { return records_.size(); }

  // Hands the records stored at positions [begin, end) to `fn` as one
  // contiguous block (the array is dense, so a sub-range IS a block).
  // `end` is clamped to slot_span().
  template <typename Fn>
  void for_each_block_in_slot_range(std::size_t begin, std::size_t end,
                                    Fn&& fn) const {
    end = std::min(end, records_.size());
    if (begin >= end) return;
    fn(std::span<const AddressRecord>(records_.data() + begin, end - begin));
  }

  // Smallest power-of-two index capacity keeping `expected` records at or
  // below ~0.66 load. Public because the overflow regression test drives
  // it with paper-scale (near SIZE_MAX) inputs: the naive
  // `cap * 2 < expected * 3` form wrapped and looped forever.
  static std::size_t index_capacity_for(std::size_t expected) noexcept;

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  // Index slot holding `address`'s record id, or the empty slot where it
  // would go. The two-argument form takes the precomputed address hash
  // (the batch-insert path hashes whole blocks up front).
  std::uint32_t* lookup_slot(const net::Ipv6Address& address) noexcept;
  std::uint32_t* lookup_slot(const net::Ipv6Address& address,
                             std::uint64_t hash) noexcept;
  // add_record with the hash already in hand (does NOT bump
  // observations_; callers account for it).
  void merge_record_hashed(const AddressRecord& record, std::uint64_t hash);
  void grow_index();
  void rebuild_index(std::size_t capacity);
  // Re-creates a minimal table after a move emptied this corpus.
  void revive_if_moved_from();

  RecordArray records_;
  std::vector<std::uint32_t> index_;
  std::size_t index_mask_ = 0;
  std::uint64_t observations_ = 0;
};

}  // namespace v6::hitlist
