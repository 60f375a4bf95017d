#include "serve/snapshot.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/scan_source.h"
#include "kernels/batch.h"
#include "net/eui64.h"
#include "util/thread_pool.h"

namespace v6::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

constexpr std::uint64_t kSentinelHi = std::numeric_limits<std::uint64_t>::max();

// What the count pass learns about one shard of the domain.
struct ShardCount {
  std::uint64_t records = 0;
  std::uint64_t rows = 0;   // distinct /64s, the seam row included
  std::uint64_t eui64 = 0;  // EUI-64-shaped records
  std::uint64_t observations = 0;
  std::uint64_t first_hi = 0;
  std::uint64_t last_hi = 0;
};

// Where the fill pass writes one shard. A shard whose first /64 continues
// the previous non-empty shard's last one (`joined`) tallies that row's
// counts into its `seams` slot; they are added to the row after the pass.
struct ShardPlan {
  std::size_t record = 0;  // first record index
  std::size_t row = 0;     // first row this shard opens
  std::size_t pair = 0;    // first (MAC, /64) pair index
  bool joined = false;
};

}  // namespace

std::shared_ptr<const Snapshot> Snapshot::build(
    const analysis::ScanSource& src, std::uint64_t epoch,
    util::SimTime as_of, util::Parallelism threads) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch_ = epoch;
  snap->as_of_ = as_of;

  const unsigned shards = threads.resolved();

  // Count pass: records, observations, /64 rows and EUI-64 records per
  // shard, plus the edge /64s that decide which shard seams split a row.
  std::vector<ShardCount> counts(shards);
  util::run_sharded(src.span, shards, [&](unsigned s, std::size_t begin,
                                          std::size_t end) {
    ShardCount& c = counts[s];
    src.visit_blocks(begin, end, [&](std::span<const hitlist::AddressRecord>
                                         block) {
      for (const hitlist::AddressRecord& rec : block) {
        const std::uint64_t hi = rec.address.hi64();
        if (c.records == 0) {
          c.first_hi = hi;
          c.rows = 1;
        } else if (hi != c.last_hi) {
          ++c.rows;
        }
        c.last_hi = hi;
        ++c.records;
        c.observations += rec.count;
        if (net::looks_like_eui64(rec.address.iid())) ++c.eui64;
      }
    });
  });

  // Place every shard: records and pairs concatenate; rows concatenate
  // less the seam rows a shard shares with its predecessor.
  std::vector<ShardPlan> plans(shards);
  std::size_t records = 0, rows = 0, pairs = 0;
  bool any = false;
  std::uint64_t prev_hi = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const ShardCount& c = counts[s];
    ShardPlan& p = plans[s];
    p.record = records;
    p.pair = pairs;
    p.row = rows;
    snap->observations_ += c.observations;
    if (c.records == 0) continue;
    p.joined = any && c.first_hi == prev_hi;
    records += c.records;
    pairs += c.eui64;
    rows += c.rows - (p.joined ? 1 : 0);
    any = true;
    prev_hi = c.last_hi;
  }
  if (records > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("snapshot: record offsets exceed 32 bits");
  }
  snap->records_.resize(records);
  snap->rows_.resize(rows + 1);
  snap->rows_[rows] = {kSentinelHi, static_cast<std::uint32_t>(records), 0, 0,
                       0};
  // (MAC, /64) sightings, in stream order; sorted below for the OUI fold.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mac_slash64(pairs);

  // Fill pass. IID entropies come from the batch kernel a chunk at a time
  // (bit-identical to per-record net::iid_entropy on either backend, so
  // the snapshot is dispatch-independent).
  std::vector<Row> seams(shards);
  util::run_sharded(src.span, shards, [&](unsigned s, std::size_t begin,
                                          std::size_t end) {
    const ShardPlan& p = plans[s];
    Record* out = snap->records_.data() + p.record;
    Row* next_row = snap->rows_.data() + p.row;
    auto* pair = mac_slash64.data() + p.pair;
    Row* row = p.joined ? &seams[s] : nullptr;
    std::uint64_t row_hi = counts[s].first_hi;
    std::uint64_t index = p.record;
    constexpr std::size_t kChunk = 1024;
    std::uint64_t iids[kChunk];
    double entropies[kChunk];
    src.visit_blocks(begin, end, [&](std::span<const hitlist::AddressRecord>
                                         block) {
      for (std::size_t base = 0; base < block.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, block.size() - base);
        kernels::extract_iid_batch(
            reinterpret_cast<const std::uint8_t*>(block.data() + base),
            sizeof(hitlist::AddressRecord), n, iids);
        kernels::iid_entropy_batch(iids, n, entropies);
        for (std::size_t i = 0; i < n; ++i, ++index) {
          const hitlist::AddressRecord& rec = block[base + i];
          *out++ = {iids[i], rec.first_seen, rec.last_seen, rec.count,
                    rec.vantage_mask};
          const std::uint64_t hi = rec.address.hi64();
          if (row == nullptr || hi != row_hi) {
            row = next_row++;
            row->hi = hi;
            row->begin = static_cast<std::uint32_t>(index);
            row_hi = hi;
          }
          switch (net::entropy_band(entropies[i])) {
            case net::EntropyBand::kLow: ++row->low; break;
            case net::EntropyBand::kMedium: ++row->medium; break;
            case net::EntropyBand::kHigh: break;
          }
          if (const auto mac = net::mac_from_eui64(iids[i])) {
            ++row->eui64;
            *pair++ = {mac->to_u64(), hi};
          }
        }
      }
    });
  });
  for (unsigned s = 0; s < shards; ++s) {
    if (!plans[s].joined) continue;
    Row& row = snap->rows_[plans[s].row - 1];
    row.low += seams[s].low;
    row.medium += seams[s].medium;
    row.eui64 += seams[s].eui64;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (r == 0 || (snap->rows_[r].hi >> 16) != (snap->rows_[r - 1].hi >> 16)) {
      ++snap->slash48_count_;
    }
  }

  // Per-OUI fold. Pairs sort MAC-major (so OUI-major too, and each MAC's
  // /64s are contiguous). Addresses are unique and an EUI-64 IID is a
  // function of its MAC, so no pair repeats: a MAC's pairs are its
  // distinct /64s, and each pair is one EUI-64 address.
  std::sort(mac_slash64.begin(), mac_slash64.end());
  std::vector<OuiRow>& ouis = snap->oui_;
  for (std::size_t i = 0; i < mac_slash64.size();) {
    const std::uint64_t mac = mac_slash64[i].first;
    std::size_t j = i;
    while (j < mac_slash64.size() && mac_slash64[j].first == mac) ++j;
    const auto oui = static_cast<std::uint32_t>(mac >> 24);
    if (ouis.empty() || ouis.back().oui != oui) ouis.push_back({oui, {}});
    OuiRisk& risk = ouis.back().risk;
    risk.eui64_addresses += j - i;
    ++risk.unique_macs;
    if (j - i >= 2) ++risk.trackable_macs;
    risk.mac_slash64_pairs += j - i;
    i = j;
  }
  ouis.shrink_to_fit();
  return snap;
}

std::uint64_t Snapshot::fold_digest() const noexcept {
  const std::size_t rows = rows_.size() - 1;
  std::uint64_t h = kFnvOffset;
  fnv(h, records_.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t hi = rows_[r].hi;
    for (std::uint32_t i = rows_[r].begin; i < rows_[r + 1].begin; ++i) {
      const Record& rec = records_[i];
      fnv(h, hi);
      fnv(h, rec.lo);
      fnv(h, (static_cast<std::uint64_t>(rec.first_seen) << 32) |
                 rec.last_seen);
      fnv(h, (static_cast<std::uint64_t>(rec.count) << 32) |
                 rec.vantage_mask);
    }
  }
  // /48 answers: runs of rows sharing their top 48 bits.
  for (std::size_t r = 0; r < rows;) {
    const std::uint64_t key = rows_[r].hi >> 16;
    std::size_t end = r + 1;
    while (end < rows && (rows_[end].hi >> 16) == key) ++end;
    fnv(h, key);
    fnv(h, rows_[end].begin - rows_[r].begin);
    r = end;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const Slash64Summary sum = summary(rows_[r]);
    fnv(h, rows_[r].hi);
    fnv(h, sum.low);
    fnv(h, sum.medium);
    fnv(h, sum.high);
    fnv(h, sum.eui64);
  }
  for (const OuiRow& row : oui_) {
    fnv(h, row.oui);
    fnv(h, row.risk.unique_macs);
    fnv(h, row.risk.trackable_macs);
    fnv(h, row.risk.mac_slash64_pairs);
    fnv(h, row.risk.eui64_addresses);
  }
  return h;
}

std::uint64_t Snapshot::digest() const noexcept {
  std::call_once(digest_once_, [this] { digest_ = fold_digest(); });
  return digest_;
}

const Snapshot::Row* Snapshot::find_row(std::uint64_t hi) const noexcept {
  const auto end = rows_.end() - 1;  // the sentinel answers nothing
  const auto it = std::lower_bound(
      rows_.begin(), end, hi,
      [](const Row& row, std::uint64_t k) { return row.hi < k; });
  if (it == end || it->hi != hi) return nullptr;
  return &*it;
}

Slash64Summary Snapshot::summary(const Row& row) const noexcept {
  const std::uint64_t addresses = (&row + 1)->begin - row.begin;
  return {addresses, row.low, row.medium, addresses - row.low - row.medium,
          row.eui64};
}

std::optional<hitlist::AddressRecord> Snapshot::find(
    const net::Ipv6Address& address) const noexcept {
  const Row* row = find_row(address.hi64());
  if (row == nullptr) return std::nullopt;
  const std::uint64_t lo = address.lo64();
  const auto first = records_.begin() + row->begin;
  const auto last = records_.begin() + (row + 1)->begin;
  const auto it = std::lower_bound(
      first, last, lo, [](const Record& rec, std::uint64_t k) {
        return rec.lo < k;
      });
  if (it == last || it->lo != lo) return std::nullopt;
  hitlist::AddressRecord rec;
  rec.address = address;
  rec.first_seen = it->first_seen;
  rec.last_seen = it->last_seen;
  rec.count = it->count;
  rec.vantage_mask = it->vantage_mask;
  return rec;
}

std::uint64_t Snapshot::slash48_density(
    const net::Ipv6Address& address) const noexcept {
  const std::uint64_t key = address.hi64() >> 16;
  const auto end = rows_.end() - 1;
  const auto first = std::lower_bound(
      rows_.begin(), end, key,
      [](const Row& row, std::uint64_t k) { return (row.hi >> 16) < k; });
  const auto last = std::upper_bound(
      first, end, key,
      [](std::uint64_t k, const Row& row) { return k < (row.hi >> 16); });
  return last->begin - first->begin;
}

std::optional<Slash64Summary> Snapshot::slash64(
    const net::Ipv6Address& address) const noexcept {
  const Row* row = find_row(address.hi64());
  if (row == nullptr) return std::nullopt;
  return summary(*row);
}

const OuiRisk* Snapshot::oui_risk(net::Oui oui) const noexcept {
  const auto it = std::lower_bound(
      oui_.begin(), oui_.end(), oui.value(),
      [](const OuiRow& row, std::uint32_t v) { return row.oui < v; });
  if (it == oui_.end() || it->oui != oui.value()) return nullptr;
  return &it->risk;
}

std::size_t Snapshot::memory_bytes() const noexcept {
  return records_.capacity() * sizeof(Record) +
         rows_.capacity() * sizeof(Row) + oui_.capacity() * sizeof(OuiRow);
}

}  // namespace v6::serve
