#include "hitlist/checkpoint_io.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hitlist/corpus_io.h"
#include "proto/buffer.h"
#include "proto/checksum.h"

namespace v6::hitlist {

namespace {

constexpr char kMagic[8] = {'V', '6', 'C', 'K', 'P', 'T', '0', '1'};
// The state section's fixed fields (window, resume point, poll counters,
// vantage count) and one vantage entry (five u64 counters).
constexpr std::size_t kFixedStateBytes = 5 * 8 + 4;
constexpr std::size_t kVantageBytes = 5 * 8;

// Reads exactly `buf.size()` bytes or throws "checkpoint: <what>".
void read_exact(std::istream& in, std::span<std::uint8_t> buf,
                const char* what) {
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (static_cast<std::size_t>(in.gcount()) != buf.size()) {
    throw std::runtime_error(std::string("checkpoint: ") + what);
  }
}

}  // namespace

std::size_t save_checkpoint(std::ostream& out, const CheckpointState& state,
                            const Corpus& corpus) {
  proto::BufferWriter writer;
  writer.bytes(
      std::span(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  const std::size_t state_begin = writer.size();
  writer.u64(static_cast<std::uint64_t>(state.window_start));
  writer.u64(static_cast<std::uint64_t>(state.window_end));
  writer.u64(static_cast<std::uint64_t>(state.resume_from));
  writer.u64(state.polls_attempted);
  writer.u64(state.polls_answered);
  writer.u32(static_cast<std::uint32_t>(state.vantage_health.size()));
  for (const VantageHealthStats& vh : state.vantage_health) {
    writer.u64(vh.polls);
    writer.u64(vh.answered);
    writer.u64(vh.lost_to_fault);
    writer.u64(vh.retries);
    writer.u64(vh.steered_polls);
  }
  writer.u32(proto::crc32(
      std::span(writer.data()).subspan(state_begin)));
  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw std::runtime_error("checkpoint write failed");

  // Records go out in ascending address order, so the bytes are a pure
  // function of (state, content): the sink's corpus is in insertion
  // order, which depends on the collector's shard count.
  const Corpus* parts[] = {&corpus};
  const RecordArray records = Corpus::canonical_union(parts);
  CorpusSnapshotWriter snapshot(out, records.size(),
                                corpus.total_observations());
  for (const AddressRecord& rec : records) snapshot.append(rec);
  return writer.size() + snapshot.finish();
}

CollectionCheckpoint load_checkpoint(std::istream& in) {
  std::array<std::uint8_t, 8> magic{};
  read_exact(in, magic, "bad magic");
  if (!std::equal(magic.begin(), magic.end(), std::begin(kMagic))) {
    throw std::runtime_error("checkpoint: bad magic");
  }

  // The state section streams in one vantage entry at a time, so a
  // hostile vantage count sizes no allocation: it fails at the first
  // short read. The CRC chains across the pieces.
  std::array<std::uint8_t, kFixedStateBytes> fixed{};
  read_exact(in, fixed, "truncated state");
  std::uint32_t crc = proto::crc32(fixed);
  proto::BufferReader reader{std::span<const std::uint8_t>(fixed)};
  CheckpointState state;
  state.window_start = static_cast<util::SimTime>(reader.u64());
  state.window_end = static_cast<util::SimTime>(reader.u64());
  state.resume_from = static_cast<util::SimTime>(reader.u64());
  state.polls_attempted = reader.u64();
  state.polls_answered = reader.u64();
  const std::uint32_t vantage_count = reader.u32();
  for (std::uint32_t v = 0; v < vantage_count; ++v) {
    std::array<std::uint8_t, kVantageBytes> entry{};
    read_exact(in, entry, "truncated state");
    crc = proto::crc32(entry, crc);
    proto::BufferReader fields{std::span<const std::uint8_t>(entry)};
    // Braced initializers evaluate left to right: the field order.
    state.vantage_health.push_back(VantageHealthStats{
        fields.u64(), fields.u64(), fields.u64(), fields.u64(),
        fields.u64()});
  }
  std::array<std::uint8_t, 4> crc_bytes{};
  read_exact(in, crc_bytes, "truncated state");
  if (proto::BufferReader{std::span<const std::uint8_t>(crc_bytes)}.u32() !=
      crc) {
    throw std::runtime_error("checkpoint: state CRC mismatch");
  }

  // The embedded corpus is the rest of the stream; corpus_io enforces its
  // own CRCs and rejects trailing garbage.
  return {std::move(state), load_corpus(in)};
}

std::size_t save_checkpoint_file(const std::string& path,
                                 const CheckpointState& state,
                                 const Corpus& corpus) {
  const std::string tmp = path + ".tmp";
  if (const auto parent = std::filesystem::path(path).parent_path();
      !parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best-effort; the
    // open below reports the actionable failure
  }
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open " + tmp);
    }
    written = save_checkpoint(out, state, corpus);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path +
                             " failed: " + ec.message());
  }
  return written;
}

CollectionCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  return load_checkpoint(in);
}

}  // namespace v6::hitlist
