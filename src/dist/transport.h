// File-mailbox transport for the real multi-process mode.
//
// The coordinator and each worker exchange V6DIST02 frames through
// per-recipient mailbox directories under one shared run directory:
//
//   <dir>/to-coordinator/        frames addressed to the coordinator
//   <dir>/to-worker-<id>/        frames addressed to worker <id>
//   <dir>/ckpt/                  durable V6CKPT01 artifacts
//   <dir>/frames.log             concatenated frame log (lint-dist input)
//
// A post is one frame in one file, written to a ".tmp" name and renamed
// into place — the same atomicity discipline as checkpoint files — so a
// reader never observes a half-written frame (rename is atomic on POSIX;
// `kill -9` mid-post leaves only a stale .tmp that drains ignore). File
// names embed (sender, seq) zero-padded so a lexicographic directory scan
// yields per-sender FIFO order. A shared filesystem is the only
// dependency, which is exactly what the CI smoke job (and a rack of lab
// machines with NFS) has.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/protocol.h"

namespace v6::dist {

// Atomic whole-file write (tmp + rename). Throws std::runtime_error.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

// Reads a whole file. Throws std::runtime_error when it cannot be opened.
std::vector<std::uint8_t> read_file(const std::string& path);

// One mailbox directory: post() for senders, drain() for the recipient.
class Mailbox {
 public:
  // Creates the directory (and parents) if needed.
  explicit Mailbox(std::string directory);

  const std::string& directory() const noexcept { return directory_; }

  // Atomically delivers one frame. `seq` is assigned from the frame.
  void post(const Frame& frame);

  // Removes and decodes every complete frame currently in the mailbox,
  // in lexicographic (per-sender FIFO) order. Corrupt frames throw
  // std::runtime_error — a mailbox is a trusted-transport boundary, and
  // garbage means the run directory is damaged, not that we should limp.
  std::vector<Frame> drain();

 private:
  std::string directory_;
};

}  // namespace v6::dist
