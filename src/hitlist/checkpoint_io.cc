#include "hitlist/checkpoint_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "hitlist/corpus_io.h"
#include "proto/buffer.h"
#include "proto/checksum.h"

namespace v6::hitlist {

namespace {
constexpr char kMagic[8] = {'V', '6', 'C', 'K', 'P', 'T', '0', '1'};
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
  // Records go out in ascending address order, so the bytes are a pure
  // function of (state, content): the sink's corpus is in insertion
  // order, which depends on the collector's shard count.
  const Corpus* parts[] = {&corpus};
  save_records(writer, Corpus::canonical_union(parts),
               corpus.total_observations());

  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw std::runtime_error("checkpoint write failed");
  return writer.size();
}

CollectionCheckpoint load_checkpoint(std::istream& in) {
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  proto::BufferReader reader(bytes);

  std::uint8_t magic[8];
  reader.bytes(magic);
  if (reader.truncated() ||
      !std::equal(std::begin(magic), std::end(magic), kMagic)) {
    throw std::runtime_error("checkpoint: bad magic");
  }

  CheckpointState state;
  state.window_start = static_cast<util::SimTime>(reader.u64());
  state.window_end = static_cast<util::SimTime>(reader.u64());
  state.resume_from = static_cast<util::SimTime>(reader.u64());
  state.polls_attempted = reader.u64();
  state.polls_answered = reader.u64();
  const std::uint32_t vantage_count = reader.u32();
  if (reader.truncated()) {
    throw std::runtime_error("checkpoint: truncated state");
  }
  // Untrusted count sizes the vector below: the section must actually
  // hold 40 bytes per vantage plus the 4-byte CRC.
  constexpr std::uint64_t kVantageBytes = 40;
  if (reader.remaining() < 4 ||
      vantage_count > (reader.remaining() - 4) / kVantageBytes) {
    throw std::runtime_error(
        "checkpoint: vantage count disagrees with payload size");
  }
  state.vantage_health.resize(vantage_count);
  for (VantageHealthStats& vh : state.vantage_health) {
    vh.polls = reader.u64();
    vh.answered = reader.u64();
    vh.lost_to_fault = reader.u64();
    vh.retries = reader.u64();
    vh.steered_polls = reader.u64();
  }
  const std::size_t state_end = bytes.size() - reader.remaining();
  const std::uint32_t state_crc = reader.u32();
  if (reader.truncated()) {
    throw std::runtime_error("checkpoint: truncated state");
  }
  if (state_crc !=
      proto::crc32(std::span(bytes).subspan(8, state_end - 8))) {
    throw std::runtime_error("checkpoint: state CRC mismatch");
  }

  // The embedded corpus is the rest of the file; corpus_io enforces its
  // own CRCs and rejects trailing garbage.
  CollectionCheckpoint checkpoint{
      std::move(state),
      load_corpus(std::span(bytes).subspan(state_end + 4))};
  return checkpoint;
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
