// Corpus serialization: a compact, versioned binary snapshot so studies
// can be collected once and analyzed many times (or shipped between
// machines). Format v2 (written by save_corpus):
//
//   magic "V6CORP02"            8 bytes
//   record count                u64 LE-free (big-endian like the wire)
//   total observations          u64
//   header CRC32                u32 over the two u64 header fields
//   records: address(16) first_seen(4) last_seen(4) count(4) vantages(4)
//   records CRC32               u32 over the whole records section
//
// The per-section CRC32s (IEEE, see proto::crc32) catch bit rot in
// long-lived checkpoint files, where a flipped count would otherwise load
// as a silently wrong corpus. Format v1 ("V6CORP01", no CRCs) is still
// readable.
//
// CorpusSnapshotWriter is the one v2 writer: save_corpus(), the
// checkpoint writer and TieredCorpus::save() all stream through it. The
// loaders read through proto::BufferReader, so byte order and truncation
// handling match the rest of the codebase.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "hitlist/corpus.h"

namespace v6::proto {
class BufferWriter;
}  // namespace v6::proto

namespace v6::hitlist {

// Streams a v2 snapshot record-by-record, so writers that cannot (or must
// not) materialize the whole corpus — the out-of-core engine's save(), the
// chunked save_corpus() — produce bytes identical to the one-shot path.
// The records CRC is chained across flush chunks (proto::crc32's seed
// parameter), which is exactly the whole-section CRC of the v2 format.
//
// The record and observation totals live in the header, which is written
// up front, so they must be known at construction; finish() throws if the
// append count disagrees (a two-pass writer whose passes diverged must
// fail loudly, not write a snapshot that cannot load).
class CorpusSnapshotWriter {
 public:
  CorpusSnapshotWriter(std::ostream& out, std::uint64_t records,
                       std::uint64_t observations);

  CorpusSnapshotWriter(const CorpusSnapshotWriter&) = delete;
  CorpusSnapshotWriter& operator=(const CorpusSnapshotWriter&) = delete;

  // Appends one record (in the order it should appear in the snapshot).
  void append(const AddressRecord& rec);

  // Flushes the tail chunk and writes the records CRC. Must be called
  // exactly once; returns total bytes written.
  std::size_t finish();

 private:
  void flush_chunk();

  std::ostream* out_;
  std::uint64_t expected_records_;
  std::uint64_t appended_ = 0;
  std::vector<std::uint8_t> chunk_;
  std::uint32_t records_crc_ = 0;
  std::size_t bytes_ = 0;
  bool finished_ = false;
};

// Writes a v2 snapshot; returns bytes written. Streams in bounded chunks
// (via CorpusSnapshotWriter) — peak extra memory is one chunk, not one
// serialized corpus.
std::size_t save_corpus(std::ostream& out, const Corpus& corpus);

// Appends a v2 snapshot to an existing writer (the bytes come from the
// stream writer above).
void save_corpus(proto::BufferWriter& out, const Corpus& corpus);

// Loads a snapshot (v1 or v2), reading the stream in bounded chunks —
// peak memory is the corpus itself plus one chunk, whatever the file
// size. Throws std::runtime_error on bad magic, truncation, CRC mismatch,
// an observation total that overflows u64, or trailing garbage. Note the
// streaming tradeoff: the records CRC can only be verified after the
// records were parsed, so a corrupt file may surface as any of those
// errors — but never loads.
Corpus load_corpus(std::istream& in);

// Same, from an in-memory buffer that must contain exactly one snapshot.
Corpus load_corpus(std::span<const std::uint8_t> bytes);

}  // namespace v6::hitlist
