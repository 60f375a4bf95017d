// Sorted on-disk runs: the storage layer of the out-of-core corpus engine
// (see tiered_corpus.h).
//
// A run file holds a strictly-ascending sequence of pre-aggregated
// AddressRecords, delta-encoded in blocks so paper-scale spills compress
// far below the 32 bytes/record of the in-memory layout. Format V6RUN001:
//
//   magic "V6RUN001"           8 bytes
//   record count               u64   (big-endian, like every repo format)
//   total observations         u64
//   index offset               u64   byte offset of the block index
//   header CRC32               u32   over the three u64 fields
//   blocks                     delta-coded record groups (below)
//   index: block count         u32
//          per block: first address (16), byte offset (u64),
//                     byte length (u32), record count (u32), CRC32 (u32)
//   index CRC32                u32   over the count + entries
//
// Each block encodes up to `block_records` records. The first record of a
// block is absolute (the decoder resets its delta chain there), making
// every block independently decodable — the unit ParallelScan's segment
// domains and the point-lookup path both seek to. Within a block a record
// is a tag byte plus varints (LEB128):
//
//   bit 0  same /64 prefix as the previous record -> only the IID delta
//   bit 1  count == 1                             -> count elided
//   bit 2  last_seen == first_seen                -> last_seen elided
//   bit 3  vantage_mask is a single bit b < 16    -> mask packed in bits 4-7
//
// The split of the 128-bit address into /64 prefix + IID is what makes the
// deltas small: consecutive addresses usually share the prefix (one varint
// for the IID gap) and structured IIDs (low-byte, EUI-64, DHCP-sequential)
// delta to a byte or two. Full-entropy privacy IIDs stay ~9 bytes — that
// is information-theoretic, not a format defect.
//
// Every byte of the file is covered by a CRC32 (header, per block, index),
// mirroring the corpus snapshot v2 contract: the hostile-input tests flip
// and truncate every offset and expect a throw, never a wrong record.
// Index bounds, checked before any block is read: blocks tile [header,
// index) contiguously, first addresses strictly ascend, and each block
// holds 1 <= record_count <= byte_length / 3 records (a record is at least
// a tag, an address varint and first_seen), so a forged count cannot size
// a decode buffer. Decoding then checks strict ascent: within a block the
// non-zero deltas guarantee it, and each block's last record must sit
// below the next block's first address.
//
// Reading is block-pull: RunReader::Cursor hands over one decoded block at
// a time, and merge_record_blocks folds any number of such block streams
// (plus in-memory arrays) into one ascending, duplicate-free stream.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "hitlist/corpus.h"
#include "net/ipv6.h"

namespace v6::hitlist {

struct RunWriterOptions {
  // Records per block: the delta-chain reset interval and the granularity
  // of point lookups / segment scans. Small values are used by the
  // corruption tests to exercise many blocks on tiny inputs.
  std::uint32_t block_records = 4096;
};

// What RunWriter::finish() reports about the finished file.
struct RunFileStats {
  std::uint64_t records = 0;
  std::uint64_t observations = 0;
  std::uint64_t bytes = 0;  // total file size
  std::uint32_t blocks = 0;
};

// One entry of a run's block index, in file order (ascending addresses).
struct RunBlockInfo {
  net::Ipv6Address first_address;
  std::uint64_t offset = 0;       // absolute byte offset of the block
  std::uint32_t byte_length = 0;  // encoded block size
  std::uint32_t record_count = 0;
  std::uint32_t crc = 0;
};

// Streams strictly-ascending records into `out` (which must be seekable:
// the header's counts and index offset are patched at finish()). Typical
// use: canonicalize a shard corpus, append records(), finish().
class RunWriter {
 public:
  explicit RunWriter(std::ostream& out, RunWriterOptions options = {});
  ~RunWriter();

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  // Appends one record. Throws std::invalid_argument when `rec.address`
  // is not strictly greater than the previous record's, or rec.count is 0
  // (count == 0 cannot round-trip: the tag packing has no encoding for it
  // and the corpus treats such records as impossible).
  void append(const AddressRecord& rec);

  // Flushes the tail block, writes the index, patches the header. Must be
  // called exactly once; append() is invalid afterwards.
  RunFileStats finish();

 private:
  void flush_block();

  std::ostream* out_;
  RunWriterOptions options_;
  std::vector<std::uint8_t> block_;
  std::vector<RunBlockInfo> index_;
  net::Ipv6Address prev_address_;
  net::Ipv6Address block_first_;
  std::uint32_t block_count_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t write_offset_ = 0;
  bool finished_ = false;
};

// Validated view of one run file. Construction reads and CRC-checks the
// header and the block index; record data is checked block-by-block as it
// is streamed. The stream must be seekable and outlive the reader and any
// Cursor obtained from it. Throws std::runtime_error on any malformed
// input (bad magic, truncation, CRC mismatch, non-ascending records,
// trailing bytes).
class RunReader {
 public:
  explicit RunReader(std::istream& in);

  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t observations() const noexcept { return observations_; }
  const std::vector<RunBlockInfo>& blocks() const noexcept { return index_; }

  // Pull-style stream over the run, one decoded block at a time. The
  // cursor owns (and reuses) its byte and record buffers, so a spilled run
  // streams with no allocation per block.
  class Cursor {
   public:
    // Stores the next records in `out` (the rest of one decoded block) and
    // returns true, or returns false at end of run. The span stays valid
    // until the next call on this cursor.
    bool next_block(std::span<const AddressRecord>& out);
    // Per-record convenience over the same buffer; false at end of run.
    bool next(AddressRecord& out);

   private:
    friend class RunReader;
    Cursor(const RunReader* reader, std::size_t block);
    // Decodes the next block once the current one is handed out; false
    // at end of run.
    bool fill();

    const RunReader* reader_ = nullptr;
    std::size_t block_ = 0;  // next block to load
    std::vector<std::uint8_t> bytes_;
    std::vector<AddressRecord> decoded_;
    std::size_t pos_ = 0;  // first record of decoded_ not yet handed out
  };

  // Cursor over the whole run, in ascending address order.
  Cursor cursor() const { return Cursor(this, 0); }

  // Cursor positioned at the first record with address >= lo.
  Cursor cursor_at(const net::Ipv6Address& lo) const;

 private:
  friend class Cursor;
  // Reads, CRC-checks, and delta-decodes block `b` into `out`, reusing
  // `bytes` as the read buffer. Validates strict ascent: within the block
  // it follows from the non-zero deltas, and the block's last record must
  // sit below the next block's first address (the index already orders
  // first addresses).
  void read_block(std::size_t b, std::vector<std::uint8_t>& bytes,
                  std::vector<AddressRecord>& out) const;

  std::istream* in_;
  std::uint64_t records_ = 0;
  std::uint64_t observations_ = 0;
  std::vector<RunBlockInfo> index_;
};

// A pull stream of strictly ascending, pre-aggregated records, handed over
// a span at a time: each call stores the next span in `out` and returns
// true, or returns false once exhausted. A span may be empty; it stays
// valid until the next call. A run cursor yields one decoded block per
// call, an in-memory array (span_stream) itself as one span.
using BlockStream = std::function<bool(std::span<const AddressRecord>&)>;

// `records` as a one-span BlockStream. The array must outlive the stream.
inline BlockStream span_stream(std::span<const AddressRecord> records) {
  return [records, done = false](std::span<const AddressRecord>& out) mutable {
    if (done) return false;
    done = true;
    out = records;
    return true;
  };
}

// `cursor` as a BlockStream. The cursor must outlive the stream.
inline BlockStream cursor_stream(RunReader::Cursor& cursor) {
  return [&cursor](std::span<const AddressRecord>& out) {
    return cursor.next_block(out);
  };
}

// K-way merge: emits the union of `streams` in ascending address order,
// one record per address. Duplicates across streams fold with
// fold_record (min first_seen, max last_seen, sum count with u32 wrap, OR
// vantage_mask) — field-for-field Corpus::add_record, and commutative, so
// the stream order does not matter. Each stream must itself be strictly
// ascending. `emit(const AddressRecord&)` returns false to stop early;
// the record is only valid during the call.
//
// Streams are pulled a span at a time (one type-erased call per block, not
// per record), and each head caches its address as two u64 keys. A head
// that is the unique minimum keeps emitting until it reaches the
// runner-up's key, so one pass over the heads is paid per switch of
// input, not per record.
template <typename Emit>
void merge_record_blocks(std::vector<BlockStream>& streams, Emit&& emit) {
  struct Head {
    std::uint64_t hi = 0;  // cached address of *pos
    std::uint64_t lo = 0;
    const AddressRecord* pos = nullptr;
    const AddressRecord* end = nullptr;
    BlockStream* stream = nullptr;

    // Pulls spans until one is non-empty and caches its head's key;
    // false once the stream is exhausted.
    bool settle() {
      while (pos == end) {
        std::span<const AddressRecord> block;
        if (!(*stream)(block)) return false;
        pos = block.data();
        end = pos + block.size();
      }
      hi = pos->address.hi64();
      lo = pos->address.lo64();
      return true;
    }
    bool before(const Head& other) const noexcept {
      return hi < other.hi || (hi == other.hi && lo < other.lo);
    }
    bool same_key(const Head& other) const noexcept {
      return hi == other.hi && lo == other.lo;
    }
  };

  std::vector<Head> heads;
  heads.reserve(streams.size());
  for (BlockStream& stream : streams) {
    Head head;
    head.stream = &stream;
    if (head.settle()) heads.push_back(head);
  }
  const auto drop = [&heads](std::size_t i) {
    heads[i] = heads.back();
    heads.pop_back();
  };

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  while (!heads.empty()) {
    // The minimum head and the runner-up (equal on a cross-stream tie).
    std::size_t best = 0;
    std::size_t second = kNone;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (heads[i].before(heads[best])) {
        second = best;
        best = i;
      } else if (second == kNone || heads[i].before(heads[second])) {
        second = i;
      }
    }

    if (second != kNone && heads[second].same_key(heads[best])) {
      // The address is in several streams; each holds it at most once.
      const Head key = heads[best];
      AddressRecord agg = *key.pos;
      for (std::size_t i = heads.size(); i-- > 0;) {
        Head& head = heads[i];
        if (!head.same_key(key)) continue;
        if (i != best) fold_record(agg, *head.pos);
        ++head.pos;
        if (!head.settle()) drop(i);
      }
      if (!emit(agg)) return;
      continue;
    }

    // A unique minimum: stream it until it reaches the runner-up's key.
    Head& head = heads[best];
    const Head* const bound = second == kNone ? nullptr : &heads[second];
    for (;;) {
      if (!emit(*head.pos)) return;
      ++head.pos;
      if (!head.settle()) {
        drop(best);
        break;
      }
      if (bound != nullptr && !head.before(*bound)) break;
    }
  }
}

}  // namespace v6::hitlist
