#include "hitlist/run_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "hitlist/corpus.h"
#include "proto/checksum.h"
#include "util/rng.h"

namespace v6::hitlist {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

AddressRecord rec(std::uint64_t hi, std::uint64_t lo, std::uint32_t first,
                  std::uint32_t last, std::uint32_t count,
                  std::uint32_t mask) {
  AddressRecord r;
  r.address = addr(hi, lo);
  r.first_seen = first;
  r.last_seen = last;
  r.count = count;
  r.vantage_mask = mask;
  return r;
}

// Ascending random records with the IID structure mix collection actually
// produces: dense same-prefix groups, sparse prefixes, repeat-heavy
// aggregates, and full-entropy IIDs.
std::vector<AddressRecord> random_records(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Corpus corpus(n);
  while (corpus.size() < n) {
    const std::uint64_t prefix = rng.bounded(n / 4 + 1);
    const std::uint64_t iid =
        rng.bounded(2) == 0 ? rng.bounded(512) : rng.next();
    corpus.add(addr(prefix, iid),
               static_cast<util::SimTime>(rng.bounded(1 << 24)),
               static_cast<std::uint8_t>(rng.bounded(34)));
  }
  corpus.canonicalize();
  return {corpus.records().begin(), corpus.records().end()};
}

std::string write_run(const std::vector<AddressRecord>& records,
                      std::uint32_t block_records,
                      RunFileStats* stats = nullptr) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  RunWriter writer(out, {.block_records = block_records});
  for (const auto& r : records) writer.append(r);
  const auto s = writer.finish();
  if (stats != nullptr) *stats = s;
  return out.str();
}

std::vector<AddressRecord> read_run(const std::string& bytes) {
  std::stringstream in(bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  RunReader reader(in);
  std::vector<AddressRecord> out;
  auto cursor = reader.cursor();
  AddressRecord r;
  while (cursor.next(r)) out.push_back(r);
  return out;
}

void expect_same(const std::vector<AddressRecord>& got,
                 const std::vector<AddressRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].address, want[i].address) << "record " << i;
    EXPECT_EQ(got[i].first_seen, want[i].first_seen) << "record " << i;
    EXPECT_EQ(got[i].last_seen, want[i].last_seen) << "record " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "record " << i;
    EXPECT_EQ(got[i].vantage_mask, want[i].vantage_mask) << "record " << i;
  }
}

TEST(RunIo, RoundTripAcrossBlockSizes) {
  const auto records = random_records(500, 11);
  for (const std::uint32_t block_records : {1u, 2u, 7u, 64u, 4096u}) {
    RunFileStats stats;
    const auto bytes = write_run(records, block_records, &stats);
    EXPECT_EQ(stats.records, records.size());
    EXPECT_EQ(stats.bytes, bytes.size());
    std::uint64_t observations = 0;
    for (const auto& r : records) observations += r.count;
    EXPECT_EQ(stats.observations, observations);
    expect_same(read_run(bytes), records);
  }
}

TEST(RunIo, EmptyRunRoundTrips) {
  const auto bytes = write_run({}, 16);
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  RunReader reader(in);
  EXPECT_EQ(reader.records(), 0u);
  auto cursor = reader.cursor();
  AddressRecord r;
  EXPECT_FALSE(cursor.next(r));
}

TEST(RunIo, TagPackingEdgeCases) {
  // One record per tag-bit combination the encoder special-cases:
  // same-prefix IID deltas (tiny and huge), count==1 elision, zero
  // lifetime, single-bit masks below and above the packed range, and the
  // absolute record at a prefix change.
  const std::vector<AddressRecord> records = {
      rec(1, 0, 5, 5, 1, 1u << 0),              // zero lifetime, count 1
      rec(1, 1, 5, 9, 2, 1u << 15),             // IID delta 1, packed mask
      rec(1, 0x8000000000000000ull, 0, 1u << 30, 0xffffffffu,
          0xffffffffu),                         // huge IID delta, max fields
      rec(2, 0xffffffffffffffffull, 7, 7, 3, 1u << 16),  // mask past packing
      rec(3, 0, 1, 2, 1, (1u << 3) | (1u << 19)),        // multi-bit mask
      rec(3, 1, 0, 0xffffffffu, 1, 1u << 31),   // max lifetime, bit 31
  };
  for (const std::uint32_t block_records : {1u, 3u, 16u}) {
    expect_same(read_run(write_run(records, block_records)), records);
  }
}

TEST(RunIo, WriterRejectsNonAscendingAndZeroCount) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  RunWriter writer(out);
  writer.append(rec(1, 5, 0, 0, 1, 1));
  EXPECT_THROW(writer.append(rec(1, 5, 0, 0, 1, 1)),
               std::invalid_argument);  // equal address
  EXPECT_THROW(writer.append(rec(1, 4, 0, 0, 1, 1)),
               std::invalid_argument);  // descending
  EXPECT_THROW(writer.append(rec(2, 0, 0, 0, 0, 1)),
               std::invalid_argument);  // count == 0
  writer.append(rec(2, 0, 0, 0, 1, 1));
  writer.finish();
}

TEST(RunIo, CursorAtFindsEveryRecordAndGaps) {
  const auto records = random_records(300, 23);
  const auto bytes = write_run(records, 8);
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  RunReader reader(in);

  AddressRecord r;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto cursor = reader.cursor_at(records[i].address);
    ASSERT_TRUE(cursor.next(r)) << "record " << i;
    EXPECT_EQ(r.address, records[i].address) << "record " << i;
    // The cursor keeps streaming the suffix.
    if (i + 1 < records.size()) {
      ASSERT_TRUE(cursor.next(r));
      EXPECT_EQ(r.address, records[i + 1].address);
    } else {
      EXPECT_FALSE(cursor.next(r));
    }
  }

  // Below the first record: the whole run. Past the last: empty.
  auto low = reader.cursor_at(addr(0, 0));
  ASSERT_TRUE(low.next(r));
  EXPECT_EQ(r.address, records.front().address);
  auto high = reader.cursor_at(
      addr(0xffffffffffffffffull, 0xffffffffffffffffull));
  EXPECT_FALSE(high.next(r));
}

TEST(RunIo, DetectsCorruptionAtEveryByteOffset) {
  // Multi-block file; every byte is under a CRC (header, blocks, index),
  // so any single-byte flip must throw somewhere on a full read — never
  // yield a wrong record.
  const auto records = random_records(48, 31);
  const auto bytes = write_run(records, 4);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_THROW(
        {
          const auto got = read_run(corrupt);
          // A successful decode with identical content can only mean the
          // flip landed in a bit the format ignores — there are none.
          expect_same(got, records);
          ADD_FAILURE() << "corruption at byte " << i << " went undetected";
        },
        std::runtime_error)
        << "byte " << i;
  }
}

TEST(RunIo, DetectsTruncationAtEveryLength) {
  const auto records = random_records(32, 37);
  const auto bytes = write_run(records, 4);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(read_run(bytes.substr(0, len)), std::runtime_error)
        << "length " << len;
  }
  EXPECT_THROW(read_run(bytes + "x"), std::runtime_error) << "trailing byte";
  expect_same(read_run(bytes), records);  // the intact file still loads
}

// --- forged files: valid CRCs, invalid content ----------------------------

// File layout offsets (see run_io.h): magic 8, records u64, observations
// u64, index offset u64, header CRC u32; index = count u32, then 36-byte
// entries (first address 16, offset u64, length u32, count u32, CRC u32),
// then the index CRC u32.
constexpr std::size_t kHeaderCrcAt = 32;
constexpr std::size_t kHeaderBytes = 36;
constexpr std::size_t kIndexEntryBytes = 36;

std::uint64_t get_be(const std::string& bytes, std::size_t at,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
  }
  return v;
}

void put_be(std::string& bytes, std::size_t at, std::size_t width,
            std::uint64_t v) {
  for (std::size_t i = width; i-- > 0;) {
    bytes[at + i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
}

std::uint32_t crc_of(const std::string& bytes, std::size_t at,
                     std::size_t length) {
  return proto::crc32(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()) + at, length});
}

std::size_t index_at(const std::string& bytes) {
  return static_cast<std::size_t>(get_be(bytes, 24, 8));
}

std::size_t entry_at(const std::string& bytes, std::size_t block) {
  return index_at(bytes) + 4 + block * kIndexEntryBytes;
}

// Recomputes the header and index CRCs after a forgery.
void reseal(std::string& bytes) {
  put_be(bytes, kHeaderCrcAt, 4, crc_of(bytes, 8, 24));
  const std::size_t index = index_at(bytes);
  const std::size_t count = get_be(bytes, index, 4);
  const std::size_t length = 4 + count * kIndexEntryBytes;
  put_be(bytes, index + length, 4, crc_of(bytes, index, length));
}

TEST(RunIo, RejectsRecordCountPastBlockBytes) {
  // A record takes at least 3 bytes, so an index entry claiming more
  // records than byte_length / 3 is forged — rejected when the reader is
  // constructed, before any decode could size a buffer from it.
  const auto bytes = write_run(random_records(40, 67), 8);
  const std::size_t entry = entry_at(bytes, 0);
  const std::uint64_t claimed = get_be(bytes, entry + 28, 4);
  const std::uint64_t length = get_be(bytes, entry + 24, 4);
  // Block 0 claiming `count` records, the header total kept consistent.
  const auto forge = [&](std::uint64_t count) {
    std::string forged = bytes;
    put_be(forged, entry + 28, 4, count);
    put_be(forged, 8, 8, get_be(forged, 8, 8) - claimed + count);
    reseal(forged);
    return forged;
  };
  for (const std::uint64_t count : {std::uint64_t{0x7fffffff},
                                    length / 3 + 1, std::uint64_t{0}}) {
    std::stringstream in(forge(count), std::ios::in | std::ios::binary);
    EXPECT_THROW(RunReader reader(in), std::runtime_error) << count;
  }
  // Exactly byte_length / 3 passes the index check; the decode rejects it.
  const std::string edge = forge(length / 3);
  std::stringstream in(edge, std::ios::in | std::ios::binary);
  EXPECT_NO_THROW(RunReader reader(in));
  EXPECT_THROW(read_run(edge), std::runtime_error);
}

TEST(RunIo, RejectsBlocksThatOverlapTheNextBlock) {
  // Blocks [(1,0), (1,5)] and [(1,8), (1,20)]. Forge block 0 as
  // [(1,0), (1,10)] — same encoded length, a valid block CRC — so its
  // last record passes the next block's first address. The index still
  // orders the first addresses, so only the decode's cross-block check
  // can catch it.
  const std::vector<AddressRecord> records = {
      rec(1, 0, 0, 0, 1, 1), rec(1, 5, 0, 0, 1, 1), rec(1, 8, 0, 0, 1, 1),
      rec(1, 20, 0, 0, 1, 1)};
  const auto bytes = write_run(records, 2);
  for (const std::uint64_t last : {10u, 8u}) {
    const auto donor =
        write_run({rec(1, 0, 0, 0, 1, 1), rec(1, last, 0, 0, 1, 1)}, 2);
    const std::size_t length = get_be(bytes, entry_at(bytes, 0) + 24, 4);
    ASSERT_EQ(get_be(donor, entry_at(donor, 0) + 24, 4), length);
    std::string bad = bytes;
    bad.replace(kHeaderBytes, length, donor, kHeaderBytes, length);
    put_be(bad, entry_at(bad, 0) + 32, 4, crc_of(bad, kHeaderBytes, length));
    reseal(bad);
    EXPECT_THROW(read_run(bad), std::runtime_error) << "last " << last;
    // A merge over the forged run throws too, never emits.
    std::stringstream in(bad, std::ios::in | std::ios::binary);
    RunReader reader(in);
    auto cursor = reader.cursor();
    std::vector<BlockStream> streams;
    streams.push_back(cursor_stream(cursor));
    EXPECT_THROW(merge_record_blocks(
                     streams, [](const AddressRecord&) { return true; }),
                 std::runtime_error);
    // The failed decode ended the cursor: no partial block leaks out.
    AddressRecord r;
    EXPECT_FALSE(cursor.next(r));
  }
}

// --- k-way merge properties ---------------------------------------------

std::vector<AddressRecord> merge_streams(std::vector<BlockStream> streams) {
  std::vector<AddressRecord> out;
  merge_record_blocks(streams, [&](const AddressRecord& r) {
    out.push_back(r);
    return true;
  });
  return out;
}

std::vector<AddressRecord> merge_all(
    const std::vector<std::vector<AddressRecord>>& inputs) {
  std::vector<BlockStream> streams;
  streams.reserve(inputs.size());
  for (const auto& in : inputs) streams.push_back(span_stream(in));
  return merge_streams(std::move(streams));
}

// `records` handed over in spans whose sizes cycle through `sizes` (0 is
// an empty span in the middle of the stream).
BlockStream ragged_stream(const std::vector<AddressRecord>& records,
                          std::vector<std::size_t> sizes) {
  return [&records, sizes = std::move(sizes), pos = std::size_t{0},
          turn = std::size_t{0}](
             std::span<const AddressRecord>& out) mutable {
    if (pos >= records.size()) return false;
    const std::size_t n =
        std::min(sizes[turn++ % sizes.size()], records.size() - pos);
    out = std::span<const AddressRecord>(records).subspan(pos, n);
    pos += n;
    return true;
  };
}

// Random records partitioned into `k` canonical shards (duplicates across
// shards), with the Corpus fold of the same multiset as the reference.
struct Partition {
  std::vector<std::vector<AddressRecord>> inputs;
  std::vector<AddressRecord> want;
};

Partition partition(int k, int sightings, std::uint64_t seed) {
  util::Rng rng(seed);
  Corpus reference(64);
  std::vector<Corpus> shards;
  for (int s = 0; s < k; ++s) shards.emplace_back(16);
  for (int i = 0; i < sightings; ++i) {
    const auto a = addr(rng.bounded(40), rng.bounded(40));
    const auto t = static_cast<util::SimTime>(rng.bounded(1 << 20));
    const auto v = static_cast<std::uint8_t>(rng.bounded(34));
    reference.add(a, t, v);
    shards[rng.bounded(shards.size())].add(a, t, v);
  }
  reference.canonicalize();
  Partition p;
  p.want = {reference.records().begin(), reference.records().end()};
  for (auto& shard : shards) {
    shard.canonicalize();
    p.inputs.emplace_back(shard.records().begin(), shard.records().end());
  }
  return p;
}

TEST(RunIo, MergeAggregatesDuplicatesLikeCorpus) {
  // Random records partitioned into K runs, with duplicates across runs:
  // the merge must equal the Corpus fold of the same multiset.
  for (int k = 1; k <= 4; ++k) {
    const Partition p = partition(k, 5000, 47);
    expect_same(merge_all(p.inputs), p.want);
  }
}

TEST(RunIo, MergeIsBlockBoundaryOblivious) {
  // The same inputs handed over in ragged spans — sizes 1, 2, 3 and 4096
  // with empty spans in between, a different rhythm per stream — merge
  // to the same output as whole arrays.
  const Partition p = partition(4, 5000, 61);
  const std::vector<std::vector<std::size_t>> rhythms = {
      {1}, {2, 0, 3}, {0, 4096}, {3, 0, 0, 1, 2}};
  std::vector<BlockStream> streams;
  for (std::size_t i = 0; i < p.inputs.size(); ++i) {
    streams.push_back(ragged_stream(p.inputs[i], rhythms[i]));
  }
  expect_same(merge_streams(std::move(streams)), p.want);
}

TEST(RunIo, MergeFoldsOneAddressInEveryStream) {
  // Nine streams all holding the same address (among others of their
  // own): every tie folds into one record, exactly like Corpus.
  const auto shared = addr(5, 5);
  Corpus reference(64);
  std::vector<std::vector<AddressRecord>> inputs;
  for (std::uint32_t s = 0; s < 9; ++s) {
    Corpus shard(8);
    shard.add(shared, 100 + 7 * s, static_cast<std::uint8_t>(s));
    shard.add(shared, 900 - 11 * s, static_cast<std::uint8_t>(s + 9));
    shard.add(addr(s, 1), s, static_cast<std::uint8_t>(s));
    shard.add(addr(9 + s, 0), 3 * s, 0);
    for (const auto& r : shard.records()) reference.add_record(r);
    shard.canonicalize();
    inputs.emplace_back(shard.records().begin(), shard.records().end());
  }
  reference.canonicalize();
  const std::vector<AddressRecord> want = {reference.records().begin(),
                                           reference.records().end()};
  const auto merged = merge_all(inputs);
  expect_same(merged, want);
  const auto it = std::find_if(merged.begin(), merged.end(),
                               [&](const AddressRecord& r) {
                                 return r.address == shared;
                               });
  ASSERT_NE(it, merged.end());
  EXPECT_EQ(it->count, 18u);
  EXPECT_EQ(it->vantage_mask, (1u << 18) - 1);
}

TEST(RunIo, MergeContinuesPastAStreamThatEndsEarly) {
  // One stream runs out mid-merge, between and after the others' records:
  // the rest stream on unchanged.
  const std::vector<AddressRecord> short_run = {rec(1, 0, 0, 0, 1, 1),
                                                rec(3, 0, 0, 0, 1, 2)};
  const std::vector<AddressRecord> long_run = {
      rec(2, 0, 0, 0, 1, 4), rec(3, 0, 5, 5, 1, 4), rec(4, 0, 0, 0, 1, 4),
      rec(5, 0, 0, 0, 1, 4), rec(6, 0, 0, 0, 1, 4)};
  const std::vector<AddressRecord> empty_run;
  std::vector<BlockStream> streams;
  streams.push_back(span_stream(long_run));
  streams.push_back(span_stream(empty_run));
  streams.push_back(ragged_stream(short_run, {1, 0}));
  const auto merged = merge_streams(std::move(streams));
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].address, addr(i + 1, 0)) << "record " << i;
  }
  EXPECT_EQ(merged[2].vantage_mask, 6u);  // the one shared address
  EXPECT_EQ(merged[2].last_seen, 5u);
  EXPECT_EQ(merged[2].count, 2u);
}

TEST(RunIo, MergeCountSumWrapsLikeCorpus) {
  // The aggregation contract is field-for-field Corpus::add_record,
  // including the u32 wrap on the count sum.
  const auto merged = merge_all({{rec(1, 1, 0, 9, 0xffffffffu, 1)},
                                 {rec(1, 1, 2, 5, 2, 2)}});
  Corpus corpus(4);
  corpus.add_record(rec(1, 1, 0, 9, 0xffffffffu, 1));
  corpus.add_record(rec(1, 1, 2, 5, 2, 2));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].count, corpus.records()[0].count);
  EXPECT_EQ(merged[0].count, 1u);  // wrapped
  EXPECT_EQ(merged[0].first_seen, 0u);
  EXPECT_EQ(merged[0].last_seen, 9u);
  EXPECT_EQ(merged[0].vantage_mask, 3u);
}

TEST(RunIo, MergeStopsWhenEmitReturnsFalse) {
  const std::vector<AddressRecord> input = {
      rec(1, 0, 0, 0, 1, 1), rec(2, 0, 0, 0, 1, 1), rec(3, 0, 0, 0, 1, 1)};
  const std::vector<AddressRecord> other = {rec(2, 0, 0, 0, 1, 2)};
  for (const bool tie : {false, true}) {
    std::vector<BlockStream> streams;
    streams.push_back(span_stream(input));
    if (tie) streams.push_back(span_stream(other));
    std::size_t emitted = 0;
    merge_record_blocks(streams, [&](const AddressRecord&) {
      return ++emitted < 2;
    });
    EXPECT_EQ(emitted, 2u) << "tie " << tie;
  }
}

TEST(RunIo, MergeOverRunFilesMatchesInMemoryStreams) {
  // The same partition merged from actual run-file cursors.
  const auto records = random_records(200, 53);
  std::vector<std::vector<AddressRecord>> inputs(3);
  util::Rng rng(59);
  for (const auto& r : records) inputs[rng.bounded(3)].push_back(r);

  std::vector<std::string> files;
  for (const auto& in : inputs) files.push_back(write_run(in, 8));
  std::vector<std::stringstream> streams_storage;
  std::vector<std::unique_ptr<RunReader>> readers;
  std::vector<RunReader::Cursor> cursors;
  for (const auto& bytes : files) {
    streams_storage.emplace_back(bytes, std::ios::in | std::ios::binary);
  }
  for (auto& s : streams_storage) {
    readers.push_back(std::make_unique<RunReader>(s));
    cursors.push_back(readers.back()->cursor());
  }
  std::vector<BlockStream> streams;
  for (auto& cursor : cursors) streams.push_back(cursor_stream(cursor));
  expect_same(merge_streams(std::move(streams)), records);
}

}  // namespace
}  // namespace v6::hitlist
