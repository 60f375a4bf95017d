// V6DIST02 framing: round-trips, exhaustive hostile-input sweeps
// (corruption and truncation at every byte offset), and the frame-log
// linter's accept/reject behavior.
#include "dist/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace v6::dist {
namespace {

Frame sample_frame() {
  Frame frame;
  frame.type = FrameType::kCheckpointUpload;
  frame.sender = 3;
  frame.lease = 1;
  frame.epoch = 2;
  frame.seq = 7;
  frame.sim_time = 604800;
  Artifact artifact;
  artifact.path = "ckpt/l1-e2-t604800.v6ckpt";
  artifact.bytes = 12345;
  artifact.crc = 0xdeadbeef;
  frame.payload = encode_artifact(artifact);
  return frame;
}

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

TEST(DistProtocol, FrameRoundTrip) {
  const Frame in = sample_frame();
  const std::vector<std::uint8_t> bytes = encode_frame(in);
  ASSERT_GE(bytes.size(), kFrameHeaderBytes + 4);

  std::size_t consumed = 0;
  const Frame out = decode_frame(bytes, &consumed);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.lease, in.lease);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.sim_time, in.sim_time);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(DistProtocol, EmptyPayloadFrameRoundTrip) {
  Frame in;
  in.type = FrameType::kHeartbeat;
  in.sender = 12;
  in.lease = kNoLease;
  in.seq = 0;
  const std::vector<std::uint8_t> bytes = encode_frame(in);
  const Frame out = decode_frame(bytes);
  EXPECT_EQ(out.type, FrameType::kHeartbeat);
  EXPECT_EQ(out.sender, 12u);
  EXPECT_TRUE(out.payload.empty());
}

TEST(DistProtocol, LeaseGrantRoundTrip) {
  LeaseGrant in;
  in.window_start = 100;
  in.window_end = 2000;
  in.chunk_interval = 250;
  in.resume_from = 600;
  in.device_begin = 1500;
  in.device_end = 3000;
  in.checkpoint_path = "ckpt/l2-e1-t600.v6ckpt";
  const LeaseGrant out = decode_lease_grant(encode_lease_grant(in));
  EXPECT_EQ(out.window_start, in.window_start);
  EXPECT_EQ(out.window_end, in.window_end);
  EXPECT_EQ(out.chunk_interval, in.chunk_interval);
  EXPECT_EQ(out.resume_from, in.resume_from);
  EXPECT_EQ(out.device_begin, in.device_begin);
  EXPECT_EQ(out.device_end, in.device_end);
  EXPECT_EQ(out.checkpoint_path, in.checkpoint_path);
}

TEST(DistProtocol, ArtifactRoundTrip) {
  Artifact in;
  in.path = "ckpt/l0-final-e3.v6ckpt";
  in.bytes = 1u << 30;
  in.crc = 0x12345678;
  const Artifact out = decode_artifact(encode_artifact(in));
  EXPECT_EQ(out.path, in.path);
  EXPECT_EQ(out.bytes, in.bytes);
  EXPECT_EQ(out.crc, in.crc);
}

// The exhaustive hostile-input sweep the header promises: flip every
// single byte of an encoded frame and the decoder must throw (bad magic,
// bad CRC, bad length — never a silent misparse, never UB). The
// fault-tolerance story rests on this: a worker dying mid-post can
// truncate, and a hostile peer can say anything.
TEST(DistProtocol, CorruptionAtEveryByteOffsetIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> evil = bytes;
    evil[i] ^= 0x5a;
    EXPECT_THROW(decode_frame(evil), std::runtime_error)
        << "byte " << i << " flipped but the frame still decoded";
  }
}

TEST(DistProtocol, TruncationAtEveryLengthIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode_frame(cut), std::runtime_error)
        << "frame truncated to " << len << " bytes still decoded";
  }
}

TEST(DistProtocol, OversizedPayloadLengthIsRejected) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  // payload_len lives at offset 37..40 (big-endian u32); claim 2 MiB.
  bytes[37] = 0x00;
  bytes[38] = 0x20;
  bytes[39] = 0x00;
  bytes[40] = 0x00;
  EXPECT_THROW(decode_frame(bytes), std::runtime_error);
}

TEST(DistProtocol, LeaseGrantTrailingBytesRejected) {
  std::vector<std::uint8_t> payload = encode_lease_grant(LeaseGrant{});
  payload.push_back(0);
  EXPECT_THROW(decode_lease_grant(payload), std::runtime_error);
}

TEST(DistProtocol, ArtifactCorruptionSweep) {
  Artifact artifact;
  artifact.path = "ckpt/x.v6ckpt";
  artifact.bytes = 99;
  const std::vector<std::uint8_t> payload = encode_artifact(artifact);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::vector<std::uint8_t> cut(payload.begin(),
                                        payload.begin() + len);
    EXPECT_THROW(decode_artifact(cut), std::runtime_error)
        << "artifact truncated to " << len << " bytes still decoded";
  }
}

TEST(DistProtocol, ValidateArtifactPath) {
  EXPECT_FALSE(validate_artifact_path("ckpt/l0-e0-t0.v6ckpt").has_value());
  EXPECT_TRUE(validate_artifact_path("").has_value());
  EXPECT_TRUE(validate_artifact_path("/etc/passwd").has_value());
  EXPECT_TRUE(validate_artifact_path("../secrets").has_value());
  EXPECT_TRUE(validate_artifact_path("ckpt/../../x").has_value());
  EXPECT_TRUE(validate_artifact_path("a\\b").has_value());
  EXPECT_TRUE(validate_artifact_path(std::string("a\0b", 3)).has_value());
  EXPECT_TRUE(validate_artifact_path("a\nb").has_value());
  EXPECT_TRUE(validate_artifact_path(std::string(5000, 'a')).has_value());
  // ".." only as a whole segment; "..x" is a legal (odd) name.
  EXPECT_FALSE(validate_artifact_path("ckpt/..odd").has_value());
}

// --- obs report ------------------------------------------------------------

ObsReport sample_obs_report() {
  ObsReport report;
  obs::MetricSample counter;
  counter.name = "v6_collector_polls_total";
  counter.help = "NTP poll packets attempted by pool clients";
  counter.type = obs::MetricType::kCounter;
  counter.counter_value = 113828;
  report.snapshot.samples.push_back(counter);
  obs::MetricSample gauge;
  gauge.name = "v6_worker_backlog";
  gauge.type = obs::MetricType::kGauge;
  gauge.labels = {{"stage", "collect"}};
  gauge.gauge_value = -2.5;
  report.snapshot.samples.push_back(gauge);
  obs::MetricSample hist;
  hist.name = "v6_serve_latency_us";
  hist.type = obs::MetricType::kHistogram;
  hist.labels = {{"kind", "point"}};
  hist.histogram.bounds = {1.0, 4.0};
  hist.histogram.counts = {1, 2, 1};
  hist.histogram.count = 4;
  hist.histogram.sum = 17.25;
  report.snapshot.samples.push_back(hist);

  obs::WindowRecord window;
  window.begin = 0;
  window.end = 604800;
  window.stage = "collect";
  window.counters.push_back({"v6_collector_records_total", {}, 2189});
  window.gauges.push_back({"depth", {{"kind", "a"}}, 1.5});
  window.vantages.push_back({2, 10, 9, 1, 8});
  window.histograms.push_back({"wall_us", {}, 3, 123.5});
  report.windows.push_back(std::move(window));
  return report;
}

TEST(DistProtocol, ObsReportRoundTrip) {
  const ObsReport in = sample_obs_report();
  const ObsReport out = decode_obs_report(encode_obs_report(in));
  ASSERT_EQ(out.snapshot.samples.size(), 3u);
  EXPECT_EQ(out.snapshot.samples[0].name, "v6_collector_polls_total");
  EXPECT_EQ(out.snapshot.samples[0].help,
            "NTP poll packets attempted by pool clients");
  EXPECT_EQ(out.snapshot.samples[0].counter_value, 113828u);
  EXPECT_EQ(out.snapshot.samples[1].labels, in.snapshot.samples[1].labels);
  EXPECT_EQ(out.snapshot.samples[1].gauge_value, -2.5);
  EXPECT_EQ(out.snapshot.samples[2].histogram.bounds,
            in.snapshot.samples[2].histogram.bounds);
  EXPECT_EQ(out.snapshot.samples[2].histogram.counts,
            in.snapshot.samples[2].histogram.counts);
  EXPECT_EQ(out.snapshot.samples[2].histogram.count, 4u);
  EXPECT_EQ(out.snapshot.samples[2].histogram.sum, 17.25);
  EXPECT_TRUE(out.snapshot.spans.empty());
  ASSERT_EQ(out.windows.size(), 1u);
  EXPECT_EQ(out.windows[0].begin, 0);
  EXPECT_EQ(out.windows[0].end, 604800);
  EXPECT_EQ(out.windows[0].stage, "collect");
  ASSERT_EQ(out.windows[0].counters.size(), 1u);
  EXPECT_EQ(out.windows[0].counters[0].delta, 2189u);
  ASSERT_EQ(out.windows[0].gauges.size(), 1u);
  EXPECT_EQ(out.windows[0].gauges[0].value, 1.5);
  ASSERT_EQ(out.windows[0].vantages.size(), 1u);
  EXPECT_EQ(out.windows[0].vantages[0].polls, 10u);
  ASSERT_EQ(out.windows[0].histograms.size(), 1u);
  EXPECT_EQ(out.windows[0].histograms[0].count_delta, 3u);
  EXPECT_EQ(out.windows[0].histograms[0].sum_delta, 123.5);
}

TEST(DistProtocol, EmptyObsReportRoundTrip) {
  const ObsReport out = decode_obs_report(encode_obs_report(ObsReport{}));
  EXPECT_TRUE(out.snapshot.samples.empty());
  EXPECT_TRUE(out.windows.empty());
}

// The same hostile-input promise the frame codec makes: truncating the
// payload at ANY byte offset must throw, never misparse or allocate from
// an unchecked length (every element count is validated against the bytes
// actually remaining).
TEST(DistProtocol, ObsReportTruncationAtEveryLengthIsRejected) {
  const std::vector<std::uint8_t> payload =
      encode_obs_report(sample_obs_report());
  ASSERT_GT(payload.size(), 8u);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::vector<std::uint8_t> cut(payload.begin(),
                                        payload.begin() + len);
    EXPECT_THROW(decode_obs_report(cut), std::runtime_error)
        << "obs report truncated to " << len << " bytes still decoded";
  }
}

TEST(DistProtocol, ObsReportTrailingBytesRejected) {
  std::vector<std::uint8_t> payload = encode_obs_report(sample_obs_report());
  payload.push_back(0);
  EXPECT_THROW(decode_obs_report(payload), std::runtime_error);
}

TEST(DistProtocol, ObsReportHugeCountClaimsRejected) {
  // A hostile sample_count far beyond the payload must bounce on the
  // bounds check, not reserve gigabytes.
  std::vector<std::uint8_t> payload = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(decode_obs_report(payload), std::runtime_error);
}

// --- linter ----------------------------------------------------------------

std::vector<std::uint8_t> lint_log(std::vector<Frame> frames) {
  std::vector<std::uint8_t> log;
  for (const Frame& frame : frames) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    log.insert(log.end(), bytes.begin(), bytes.end());
  }
  return log;
}

Frame hello(std::uint32_t sender, std::uint64_t seq) {
  Frame frame;
  frame.type = FrameType::kHello;
  frame.sender = sender;
  frame.lease = kNoLease;
  frame.seq = seq;
  return frame;
}

TEST(DistLint, EmptyLogIsClean) {
  EXPECT_FALSE(lint_dist_frames("").has_value());
}

TEST(DistLint, WellFormedLogIsClean) {
  Frame grant;
  grant.type = FrameType::kLeaseGrant;
  grant.sender = kCoordinatorId;
  grant.lease = 0;
  grant.seq = 0;
  LeaseGrant lease;
  lease.window_start = 0;
  lease.window_end = 1000;
  lease.chunk_interval = 100;
  lease.device_end = 50;
  grant.payload = encode_lease_grant(lease);

  Frame upload;
  upload.type = FrameType::kCheckpointUpload;
  upload.sender = 1;
  upload.lease = 0;
  upload.seq = 1;
  Artifact artifact;
  artifact.path = "ckpt/l0-e0-t100.v6ckpt";
  upload.payload = encode_artifact(artifact);

  const auto log = lint_log({hello(1, 0), grant, upload});
  EXPECT_FALSE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, TrailingGarbageIsReported) {
  auto log = lint_log({hello(1, 0)});
  log.push_back(0x56);  // half a magic
  const auto problem = lint_dist_frames(as_view(log));
  ASSERT_TRUE(problem.has_value());
}

TEST(DistLint, SeqMustStartAtZeroPerSender) {
  const auto log = lint_log({hello(1, 5)});
  const auto problem = lint_dist_frames(as_view(log));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("seq"), std::string::npos) << *problem;
}

TEST(DistLint, SeqMustStrictlyIncrease) {
  const auto log = lint_log({hello(1, 0), hello(1, 0)});
  EXPECT_TRUE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, IndependentSendersHaveIndependentSeqs) {
  const auto log = lint_log({hello(1, 0), hello(2, 0), hello(1, 1)});
  EXPECT_FALSE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, GrantsMustComeFromCoordinator) {
  Frame grant;
  grant.type = FrameType::kLeaseGrant;
  grant.sender = 3;  // a worker impersonating the coordinator
  grant.lease = 0;
  grant.seq = 0;
  LeaseGrant lease;
  lease.window_end = 10;
  lease.chunk_interval = 1;
  grant.payload = encode_lease_grant(lease);
  const auto log = lint_log({grant});
  const auto problem = lint_dist_frames(as_view(log));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("coordinator"), std::string::npos) << *problem;
}

TEST(DistLint, InvertedDeviceRangeIsReported) {
  Frame grant;
  grant.type = FrameType::kLeaseGrant;
  grant.sender = kCoordinatorId;
  grant.lease = 0;
  grant.seq = 0;
  LeaseGrant lease;
  lease.window_end = 10;
  lease.chunk_interval = 1;
  lease.device_begin = 8;
  lease.device_end = 4;
  grant.payload = encode_lease_grant(lease);
  const auto problem = lint_dist_frames(as_view(lint_log({grant})));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("device range"), std::string::npos) << *problem;
}

// A study resumed under distribution replays every range to the
// checkpoint without a per-range artifact: resume_from > window_start
// with no checkpoint path is a valid grant.
TEST(DistLint, ResumedGrantWithoutCheckpointPathIsClean) {
  Frame grant;
  grant.type = FrameType::kLeaseGrant;
  grant.sender = kCoordinatorId;
  grant.lease = 1;
  grant.seq = 0;
  LeaseGrant lease;
  lease.window_end = 1000;
  lease.chunk_interval = 100;
  lease.resume_from = 400;
  lease.device_begin = 10;
  lease.device_end = 20;
  grant.payload = encode_lease_grant(lease);
  EXPECT_FALSE(lint_dist_frames(as_view(lint_log({grant}))).has_value());
}

// A recovery grant resumes from an artifact a worker uploaded; naming one
// never uploaded for that lease (here: the right lease at the wrong epoch)
// is reported.
TEST(DistLint, GrantNamingAnArtifactNeverUploadedIsReported) {
  Frame upload;
  upload.type = FrameType::kCheckpointUpload;
  upload.sender = 1;
  upload.lease = 0;
  upload.seq = 0;
  Artifact artifact;
  artifact.path = "ckpt/l0-e0-t200.v6ckpt";
  upload.payload = encode_artifact(artifact);

  Frame grant;
  grant.type = FrameType::kLeaseGrant;
  grant.sender = kCoordinatorId;
  grant.lease = 0;
  grant.epoch = 1;
  grant.seq = 0;
  LeaseGrant lease;
  lease.window_end = 1000;
  lease.chunk_interval = 100;
  lease.resume_from = 200;
  lease.device_end = 50;
  lease.checkpoint_path = "ckpt/l0-e1-t200.v6ckpt";
  grant.payload = encode_lease_grant(lease);
  const auto problem = lint_dist_frames(as_view(lint_log({upload, grant})));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("never uploaded"), std::string::npos) << *problem;

  lease.checkpoint_path = artifact.path;
  grant.payload = encode_lease_grant(lease);
  EXPECT_FALSE(
      lint_dist_frames(as_view(lint_log({upload, grant}))).has_value());
  // The same artifact uploaded for another lease does not count.
  grant.lease = 1;
  EXPECT_TRUE(lint_dist_frames(as_view(lint_log({upload, grant}))).has_value());
}

TEST(DistLint, UploadWithHostilePathIsReported) {
  Frame upload;
  upload.type = FrameType::kCheckpointUpload;
  upload.sender = 1;
  upload.lease = 0;
  upload.seq = 0;
  Artifact artifact;
  artifact.path = "../../etc/passwd";
  upload.payload = encode_artifact(artifact);
  const auto log = lint_log({upload});
  EXPECT_TRUE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, HeartbeatWithPayloadIsReported) {
  Frame beat;
  beat.type = FrameType::kHeartbeat;
  beat.sender = 1;
  beat.seq = 0;
  beat.payload = {1, 2, 3};
  const auto log = lint_log({beat});
  EXPECT_TRUE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, WellFormedObsReportIsClean) {
  Frame frame;
  frame.type = FrameType::kObsReport;
  frame.sender = 1;
  frame.lease = 0;
  frame.seq = 0;
  frame.payload = encode_obs_report(sample_obs_report());
  const auto log = lint_log({frame});
  EXPECT_FALSE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, ObsReportFromCoordinatorIsReported) {
  Frame frame;
  frame.type = FrameType::kObsReport;
  frame.sender = kCoordinatorId;
  frame.lease = 0;
  frame.seq = 0;
  frame.payload = encode_obs_report(ObsReport{});
  const auto log = lint_log({frame});
  const auto problem = lint_dist_frames(as_view(log));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("coordinator"), std::string::npos) << *problem;
}

// An observation report must carry the lease naming the device subset it
// covers.
TEST(DistLint, ObsReportWithoutSubsetIsReported) {
  Frame frame;
  frame.type = FrameType::kObsReport;
  frame.sender = 1;
  frame.lease = kNoLease;
  frame.seq = 0;
  frame.payload = encode_obs_report(ObsReport{});
  const auto log = lint_log({frame});
  EXPECT_TRUE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, ObsReportWithMalformedPayloadIsReported) {
  Frame frame;
  frame.type = FrameType::kObsReport;
  frame.sender = 1;
  frame.lease = 0;
  frame.seq = 0;
  frame.payload = {0xff, 0xff, 0xff, 0xff};  // hostile sample_count
  const auto log = lint_log({frame});
  EXPECT_TRUE(lint_dist_frames(as_view(log)).has_value());
}

TEST(DistLint, CorruptFrameMidLogIsLocated) {
  auto log = lint_log({hello(1, 0), hello(1, 1), hello(1, 2)});
  // Flip a byte inside the second frame's header.
  const std::size_t frame_size = encode_frame(hello(1, 0)).size();
  log[frame_size + 9] ^= 0xff;
  const auto problem = lint_dist_frames(as_view(log));
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("frame 1"), std::string::npos) << *problem;
}

}  // namespace
}  // namespace v6::dist
