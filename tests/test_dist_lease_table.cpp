// The LeaseTable on its own, with no clock and no threads: the pairing
// order and its veto, the epoch fence for every worker frame type, the
// capped jittered backoff of a flapping lease under both coordinators'
// policies, and the coordinator frames it emits.
#include "dist/lease_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/sim_cluster.h"

namespace v6::dist {
namespace {

LeaseGrant whole_grant() {
  LeaseGrant whole;
  whole.window_start = 1000;
  whole.window_end = 9000;
  whole.chunk_interval = 500;
  whole.resume_from = 1000;
  whole.device_end = 30;
  return whole;
}

Frame worker_frame(FrameType type, std::uint32_t lease, std::uint32_t epoch,
                   std::vector<std::uint8_t> payload) {
  return Frame{type, 7, lease, epoch, 0, 0, std::move(payload)};
}

std::vector<std::uint8_t> artifact(const std::string& path) {
  Artifact a;
  a.path = path;
  return encode_artifact(a);
}

TEST(DistLeaseTable, RangesPartitionTheDevices) {
  DistReport report;
  const LeaseTable table(whole_grant(), 3, {}, report);
  EXPECT_EQ(report.ranges, 3u);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.lease(0).devices.begin, 0u);
  EXPECT_EQ(table.lease(0).devices.end, 10u);
  EXPECT_EQ(table.lease(2).devices.end, 30u);
  EXPECT_EQ(table.lease(1).resume_from, 1000u);
  EXPECT_FALSE(table.all_done());
}

// Earliest start wins; ties go to the lower lease id, then the lower
// worker id; the veto drops single pairs; held leases are not offered.
TEST(DistLeaseTable, PairingIsEarliestStartThenLeaseThenWorker) {
  DistReport report;
  LeaseTable table(whole_grant(), 3, {100, 1200, 3}, report);
  std::vector<IdleWorker> workers{{5, 10}, {2, 10}, {7, 0}};

  std::optional<Pairing> next = table.pair(workers);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lease, 0u);
  EXPECT_EQ(next->worker, 7u);
  EXPECT_EQ(next->at, 0u);
  (void)table.grant(next->lease, next->worker, next->at);
  EXPECT_EQ(table.held_by(7), 0u);
  workers.pop_back();

  next = table.pair(workers);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lease, 1u);  // lease 0 is held
  EXPECT_EQ(next->worker, 2u);
  EXPECT_EQ(next->at, 10u);

  // The sim vetoes workers fated to die before the start.
  next = table.pair(workers, [](std::uint32_t worker, std::uint64_t) {
    return worker == 2;
  });
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lease, 1u);
  EXPECT_EQ(next->worker, 5u);
  EXPECT_FALSE(
      table.pair(workers, [](std::uint32_t, std::uint64_t) { return true; })
          .has_value());

  // A reassigned lease opens after its backoff, so a lease open now wins.
  table.reassign(0, 20, 20);
  EXPECT_EQ(table.held_by(7), kNoLease);
  EXPECT_GE(table.lease(0).available_at, 120u);
  workers = {{7, 30}};
  next = table.pair(workers);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lease, 1u);
  EXPECT_EQ(next->at, 30u);
  EXPECT_FALSE(table.pair({}).has_value());
}

// Every worker frame type goes through one fence: an out-of-range lease,
// a stale epoch, a finished lease, a malformed payload and a hostile
// path are rejected, counted, and change nothing.
TEST(DistLeaseTable, FenceRejectsEveryBadFrameOfEveryType) {
  DistReport report;
  LeaseTable table(whole_grant(), 2, {100, 1200, 3}, report);
  (void)table.grant(0, 7, 0);
  table.reassign(0, 5, 5);  // lease 0 now at epoch 1
  (void)table.grant(0, 7, table.lease(0).available_at);
  (void)table.grant(1, 8, 0);

  const std::vector<std::uint8_t> garbage{0xff, 0xff, 0xff, 0xff};
  const std::vector<std::uint8_t> obs = encode_obs_report(ObsReport{});
  const std::string good = "ckpt/l0-e1-t1500.v6ckpt";
  const auto accept = [&](const Frame& frame) {
    switch (frame.type) {
      case FrameType::kCheckpointUpload:
        return table.upload(frame, 1500);
      case FrameType::kComplete:
        return table.complete(frame);
      default:
        return table.report(frame);
    }
  };

  std::uint64_t rejected = 0;
  for (const FrameType type :
       {FrameType::kCheckpointUpload, FrameType::kComplete,
        FrameType::kObsReport}) {
    const std::vector<std::uint8_t> payload =
        type == FrameType::kObsReport ? obs : artifact(good);
    EXPECT_FALSE(accept(worker_frame(type, 2, 0, payload)));
    EXPECT_FALSE(accept(worker_frame(type, kNoLease, 0, payload)));
    EXPECT_FALSE(accept(worker_frame(type, 0, 0, payload)));  // stale
    EXPECT_FALSE(accept(worker_frame(type, 0, 2, payload)));  // future
    EXPECT_FALSE(accept(worker_frame(type, 0, 1, garbage)));
    rejected += 5;
    if (type != FrameType::kObsReport) {
      EXPECT_FALSE(accept(worker_frame(type, 0, 1, artifact("../escape"))));
      EXPECT_FALSE(accept(worker_frame(type, 0, 1, artifact("/abs"))));
      rejected += 2;
    }
    EXPECT_EQ(report.stale_uploads_rejected, rejected);
  }
  EXPECT_EQ(table.lease(0).checkpoint_path, "");
  EXPECT_EQ(table.lease(0).resume_from, 1000u);
  EXPECT_EQ(report.checkpoints_uploaded, 0u);
  EXPECT_EQ(report.cluster_obs.report_count(), 0u);

  // The live epoch gets through, and an upload becomes the resume point.
  EXPECT_TRUE(accept(worker_frame(FrameType::kCheckpointUpload, 0, 1,
                                  artifact(good))));
  EXPECT_EQ(table.lease(0).checkpoint_path, good);
  EXPECT_EQ(table.lease(0).resume_from, 1500u);
  EXPECT_EQ(report.checkpoints_uploaded, 1u);
  EXPECT_TRUE(accept(worker_frame(FrameType::kObsReport, 0, 1, obs)));
  EXPECT_EQ(report.cluster_obs.report_count(), 1u);
  EXPECT_TRUE(accept(worker_frame(FrameType::kComplete, 0, 1,
                                  artifact("ckpt/l0-e1-t9000.v6ckpt"))));
  EXPECT_TRUE(table.lease(0).done);
  EXPECT_EQ(table.held_by(7), kNoLease);
  EXPECT_EQ(table.lease(0).checkpoint_path, "ckpt/l0-e1-t9000.v6ckpt");
  EXPECT_EQ(table.lease(0).resume_from, 9000u);

  // A finished lease takes nothing more, at its own epoch or any other.
  for (const FrameType type :
       {FrameType::kCheckpointUpload, FrameType::kComplete,
        FrameType::kObsReport}) {
    EXPECT_FALSE(accept(worker_frame(
        type, 0, 1, type == FrameType::kObsReport ? obs : artifact(good))));
  }
  EXPECT_EQ(report.stale_uploads_rejected, rejected + 3);
  EXPECT_EQ(table.lease(0).checkpoint_path, "ckpt/l0-e1-t9000.v6ckpt");
  EXPECT_FALSE(table.all_done());
  EXPECT_TRUE(table.complete(worker_frame(
      FrameType::kComplete, 1, 0, artifact("ckpt/l1-e0-t9000.v6ckpt"))));
  EXPECT_TRUE(table.all_done());
}

// A lease that fails on every grant: each regrant waits the capped,
// jittered backoff from the failure it follows, retry r waiting between
// min(cap, base * 2^(r-1)) and half as much again.
std::vector<std::uint64_t> flapping_waits(const RetryPolicy& policy) {
  DistReport report;
  LeaseTable table(whole_grant(), 1, policy, report);
  std::vector<std::uint64_t> waits;
  std::uint64_t now = 0;
  for (std::uint32_t retry = 1; retry <= 6; ++retry) {
    const std::vector<IdleWorker> worker{{4, now}};
    const std::optional<Pairing> next = table.pair(worker);
    EXPECT_TRUE(next.has_value());
    const Frame grant = table.grant(next->lease, next->worker, next->at);
    EXPECT_EQ(grant.epoch, retry - 1);
    now = next->at + 10;
    const Frame revoke = table.revoke(0, now);
    EXPECT_EQ(revoke.type, FrameType::kRevoke);
    EXPECT_EQ(revoke.epoch, retry - 1);  // names the revoked epoch
    EXPECT_EQ(table.lease(0).epoch, retry);
    const std::uint64_t wait = table.lease(0).available_at - now;
    EXPECT_EQ(wait, policy.wait(0, retry));
    const std::uint64_t floor =
        std::min(policy.cap, policy.base << (retry - 1));
    EXPECT_GE(wait, floor) << "retry " << retry;
    EXPECT_LT(wait, floor + floor / 2) << "retry " << retry;
    waits.push_back(wait);
  }
  EXPECT_EQ(report.leases_granted, 6u);
  EXPECT_EQ(report.reassignments, 6u);
  // Every regrant is a recovery: its latency is the wait before it.
  std::uint64_t recovery = 0;
  for (std::size_t i = 0; i + 1 < waits.size(); ++i) recovery += waits[i];
  EXPECT_EQ(report.recovery_latency_total, recovery);
  return waits;
}

TEST(DistLeaseTable, FlappingLeaseBacksOffCappedAndJittered) {
  // The simulated cluster: one hour doubling to twelve, DistConfig's seed.
  EXPECT_EQ(flapping_waits({util::kHour, 12 * util::kHour, DistConfig{}.seed}),
            (std::vector<std::uint64_t>{4681, 8862, 21313, 39130, 48957,
                                        51216}));
  // The real coordinator: 200 ms doubling to 2.4 s.
  EXPECT_EQ(flapping_waits(kCoordinatorRetry),
            (std::vector<std::uint64_t>{260, 492, 1184, 2173, 2719, 2845}));
}

// Grants are encode_lease_grant of the expected payload, stamped with the
// coordinator's seq; a regrant resumes from the accepted upload and names
// its artifact, whatever epoch uploaded it.
TEST(DistLeaseTable, FramesAreTheCoordinatorsEncodedFrames) {
  DistReport report;
  LeaseTable table(whole_grant(), 3, {100, 1200, 3}, report);

  LeaseGrant expected = whole_grant();
  expected.device_begin = 10;
  expected.device_end = 20;
  const Frame first = table.grant(1, 4, 42);
  EXPECT_EQ(first.type, FrameType::kLeaseGrant);
  EXPECT_EQ(first.sender, kCoordinatorId);
  EXPECT_EQ(first.lease, 1u);
  EXPECT_EQ(first.epoch, 0u);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.sim_time, 42u);
  EXPECT_EQ(first.payload, encode_lease_grant(expected));

  ASSERT_TRUE(table.upload(worker_frame(FrameType::kCheckpointUpload, 1, 0,
                                        artifact("ckpt/l1-e0-t1500.v6ckpt")),
                           1500));
  const Frame revoke = table.revoke(1, 60);
  EXPECT_EQ(revoke.seq, 1u);
  EXPECT_EQ(revoke.sim_time, 60u);
  EXPECT_TRUE(revoke.payload.empty());

  const std::uint64_t open = table.lease(1).available_at;
  const Frame regrant = table.grant(1, 5, open);
  expected.resume_from = 1500;
  expected.checkpoint_path = "ckpt/l1-e0-t1500.v6ckpt";
  EXPECT_EQ(regrant.epoch, 1u);
  EXPECT_EQ(regrant.seq, 2u);
  EXPECT_EQ(regrant.payload, encode_lease_grant(expected));
  EXPECT_EQ(report.recovery_latency_total, open - 60);

  const Frame shutdown = table.shutdown(99);
  EXPECT_EQ(shutdown.type, FrameType::kShutdown);
  EXPECT_EQ(shutdown.lease, kNoLease);
  EXPECT_EQ(shutdown.seq, 3u);
  EXPECT_EQ(shutdown.sim_time, 99u);
  EXPECT_EQ(report.leases_granted, 2u);
}

}  // namespace
}  // namespace v6::dist
