// An immutable, epoch-stamped query snapshot of a hitlist corpus.
//
// The serving layer's unit of publication: one Snapshot is built at a
// collection merge barrier from the canonicalized record stream (an
// in-memory Corpus or the out-of-core TieredCorpus, both behind
// analysis::ScanSource) and never mutated afterwards. Readers may hold a
// shared_ptr to it for as long as they like — queries against a given
// epoch are a pure function of that epoch's content, bit-identical at any
// reader, ingest or build thread count (the QueryService swap is the only
// moving part).
//
// Four query families, all answered from two flat sorted tables:
//   * point          — is this address known? (full AddressRecord back)
//   * /48 density    — unique addresses inside a /48
//   * /64 entropy    — per-band IID-entropy breakdown of a /64
//   * EUI-64 risk    — per-OUI MAC exposure (the paper's §5 tracking risk)
//
// Two-level layout. Every stored address shares its network half with
// its /64, so the network half is stored once, in the /64 row:
//   * a row is {hi, begin, low, medium, eui64} (24 B) and owns the record
//     range [begin, next row's begin); a sentinel row (hi = 2^64-1,
//     begin = records()) closes the table and is never a query answer;
//   * a record is {lo64, first_seen, last_seen, count, vantage_mask}
//     (24 B), ascending within its row.
// A /64's address count and its high-entropy band are derived from the
// offsets (`addresses = next.begin - begin`, `high = addresses - low -
// medium`), and so is /48 density: the rows of one /48 are contiguous, so
// its count is a difference of two row offsets. With the per-OUI rows
// (40 B per OUI) that is 24 B per record plus 24 B per /64: 30.1 MB for
// perfbench's collect_tiered_serve corpus (841,593 records, ~0.49 /64s
// per record), 35.7 B per record. Offsets are 32-bit: build() throws
// std::length_error past 2^32-1 records, as Corpus::from_canonical does.
//
// The answer digest is folded lazily, on the first digest() call, and
// cached (thread-safely): interior epochs whose digest no one asks for
// never pay the serial fold.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "hitlist/corpus.h"
#include "net/entropy.h"
#include "net/ipv6.h"
#include "net/mac.h"
#include "util/parallelism.h"
#include "util/sim_time.h"

namespace v6::analysis {
struct ScanSource;
}  // namespace v6::analysis

namespace v6::serve {

// Per-band address counts of one /64 (the Fig 1 bands, scoped to a
// subnet). `addresses == low + medium + high`.
struct Slash64Summary {
  std::uint64_t addresses = 0;
  std::uint64_t low = 0;
  std::uint64_t medium = 0;
  std::uint64_t high = 0;
  std::uint64_t eui64 = 0;  // EUI-64-shaped subset (counted inside a band)

  // Majority entropy band; ties resolve to the lower band (a /64 with as
  // many structured as random IIDs is treated as the more scannable one).
  net::EntropyBand dominant() const noexcept {
    if (low >= medium && low >= high) return net::EntropyBand::kLow;
    if (medium >= high) return net::EntropyBand::kMedium;
    return net::EntropyBand::kHigh;
  }

  bool operator==(const Slash64Summary&) const = default;
};

// Per-OUI EUI-64 exposure: how many addresses leak MACs of this vendor
// prefix, and how many of those MACs are trackable across subnets
// (appear in >= 2 distinct /64s — the paper's §5.2 gate).
struct OuiRisk {
  std::uint64_t eui64_addresses = 0;
  std::uint64_t unique_macs = 0;
  std::uint64_t trackable_macs = 0;
  std::uint64_t mac_slash64_pairs = 0;  // distinct (MAC, /64) sightings

  bool operator==(const OuiRisk&) const = default;
};

class Snapshot {
 public:
  // Builds a snapshot from the ascending record stream of `src` (the
  // ScanSource contract: concatenating visit_blocks() over [0, span)
  // yields records in ascending address order — a canonicalized Corpus or
  // any TieredCorpus qualifies). The domain is cut into `threads` shards
  // (util::Parallelism's contract: 0 = hardware, 1 = inline on the
  // calling thread); a count pass sizes the tables exactly, then a fill
  // pass writes each shard straight into its place. Call at a merge
  // barrier; the result is bit-identical at any thread count.
  static std::shared_ptr<const Snapshot> build(
      const analysis::ScanSource& src, std::uint64_t epoch,
      util::SimTime as_of,
      util::Parallelism threads = util::Parallelism::serial());

  std::uint64_t epoch() const noexcept { return epoch_; }
  util::SimTime as_of() const noexcept { return as_of_; }
  std::uint64_t records() const noexcept { return records_.size(); }
  std::uint64_t observations() const noexcept { return observations_; }

  // Point query: the full record for `address`, or nullopt when unknown.
  std::optional<hitlist::AddressRecord> find(
      const net::Ipv6Address& address) const noexcept;
  bool contains(const net::Ipv6Address& address) const noexcept {
    return find(address).has_value();
  }

  // Unique addresses inside the /48 containing `address`.
  std::uint64_t slash48_density(const net::Ipv6Address& address) const noexcept;

  // Entropy breakdown of the /64 containing `address`, or nullopt when
  // the snapshot holds no address in that subnet.
  std::optional<Slash64Summary> slash64(
      const net::Ipv6Address& address) const noexcept;

  // EUI-64 risk for a vendor OUI, or nullptr when no EUI-64 address of
  // that OUI is known.
  const OuiRisk* oui_risk(net::Oui oui) const noexcept;

  // Distinct key counts, for capacity summaries.
  std::size_t slash48_count() const noexcept { return slash48_count_; }
  std::size_t slash64_count() const noexcept { return rows_.size() - 1; }
  std::size_t oui_count() const noexcept { return oui_.size(); }

  // FNV-1a fold over every answer (each record, then the /48, /64 and
  // OUI answers in key order): two snapshots answer every query
  // identically iff their digests match (the bit-identity handle the
  // bench and tests assert on). Folded on the first call and cached; safe
  // to call from any number of threads.
  std::uint64_t digest() const noexcept;

  // Heap footprint of the answer tables (the quantity the retention bound
  // in QueryService is budgeting).
  std::size_t memory_bytes() const noexcept;

 private:
  struct Row {
    std::uint64_t hi = 0;     // the /64's network half
    std::uint32_t begin = 0;  // first record of this /64
    std::uint32_t low = 0;
    std::uint32_t medium = 0;
    std::uint32_t eui64 = 0;
  };
  struct Record {
    std::uint64_t lo = 0;  // the interface identifier
    std::uint32_t first_seen = 0;
    std::uint32_t last_seen = 0;
    std::uint32_t count = 0;
    std::uint32_t vantage_mask = 0;
  };
  struct OuiRow {
    std::uint32_t oui = 0;
    OuiRisk risk;
  };

  // The row holding `hi`, or nullptr; never the sentinel.
  const Row* find_row(std::uint64_t hi) const noexcept;
  Slash64Summary summary(const Row& row) const noexcept;
  std::uint64_t fold_digest() const noexcept;

  std::uint64_t epoch_ = 0;
  util::SimTime as_of_ = 0;
  std::uint64_t observations_ = 0;
  std::size_t slash48_count_ = 0;
  // Ascending by key; queries binary-search. rows_ ends in the sentinel.
  std::vector<Record> records_;
  std::vector<Row> rows_;
  std::vector<OuiRow> oui_;

  mutable std::once_flag digest_once_;
  mutable std::uint64_t digest_ = 0;
};

}  // namespace v6::serve
