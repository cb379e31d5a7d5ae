// Tests for the request lifecycle both jukebox engines share: settlement of
// fault-displaced requests and the closed model's reissue.

#include "sim/request_lifecycle.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "layout/placement.h"

namespace tapejuke {
namespace {

// One copy of every block, so masking a replica loses its block.
struct Rig {
  Jukebox jukebox{JukeboxConfig{}};
  Catalog catalog = LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
};

SimulationConfig FaultySim(QueuingModel model) {
  SimulationConfig sim;
  sim.duration_seconds = 10'000;
  sim.warmup_seconds = 0;
  sim.workload.model = model;
  sim.workload.queue_length = 4;
  sim.faults.permanent_media_error_prob = 1e-3;
  return sim;
}

RequestLifecycle MakeLifecycle(Rig* rig, const SimulationConfig& sim) {
  return RequestLifecycle(&rig->catalog, &rig->catalog, sim,
                          /*num_drives=*/1,
                          rig->jukebox.config().block_size_mb,
                          sim.workload.model == QueuingModel::kClosed);
}

// A displaced request whose deadline already passed settles as expired on
// the spot: re-enqueueing it would lose the expiry, because its event
// fired while the request was committed to a sweep.
TEST(RequestLifecycle, FailOverPastDeadlineSettlesAsExpired) {
  Rig rig;
  RequestLifecycle life =
      MakeLifecycle(&rig, FaultySim(QueuingModel::kOpen));
  Request request{/*id=*/0, /*block=*/3, /*arrival_time=*/10.0};
  request.deadline = 50.0;
  ASSERT_TRUE(life.Arrive(request).has_value());

  std::optional<Request> next;
  EXPECT_FALSE(life.FailOver(request, /*now=*/60.0, &next));
  EXPECT_FALSE(next.has_value());  // open model: no reissue
  EXPECT_EQ(life.metrics().expired_total(), 1);
  EXPECT_EQ(life.fault_stats().failovers, 0);
  // The request settled, so its expiry event is stale.
  EXPECT_EQ(life.next_expiry(), 50.0);
  EXPECT_FALSE(life.PopExpiry());
}

TEST(RequestLifecycle, FailOverCountsLiveAndFailsDeadRequests) {
  Rig rig;
  RequestLifecycle life =
      MakeLifecycle(&rig, FaultySim(QueuingModel::kOpen));
  const Request live{0, 3, 10.0};
  const Request dead{1, 4, 10.0};
  ASSERT_TRUE(life.Arrive(live).has_value());
  ASSERT_TRUE(life.Arrive(dead).has_value());

  std::optional<Request> next;
  EXPECT_TRUE(life.FailOver(live, 20.0, &next));
  EXPECT_EQ(life.fault_stats().failovers, 1);

  std::vector<BlockId> newly_masked;
  const TapeId tape = rig.catalog.ReplicasOf(4).front().tape;
  EXPECT_TRUE(life.MaskLostMedia(tape, 4, /*whole_tape=*/false,
                                 &newly_masked));
  EXPECT_EQ(life.fault_stats().blocks_lost, 1);
  EXPECT_FALSE(life.FailOver(dead, 20.0, &next));
  EXPECT_EQ(life.metrics().failed_total(), 1);
  EXPECT_EQ(life.fault_stats().failovers, 1);
}

// Closed model: every settlement hands the engine the process's next
// request, drawn past blocks that are already lost.
TEST(RequestLifecycle, ClosedSettlementReissuesPastDeadBlocks) {
  Rig rig;
  RequestLifecycle life =
      MakeLifecycle(&rig, FaultySim(QueuingModel::kClosed));
  const std::optional<Request> first = life.IssueClosed(0.0);
  ASSERT_TRUE(first.has_value());

  // Lose half the tapes: some of the following draws hit dead blocks.
  for (TapeId tape = 0; tape < rig.jukebox.num_tapes() / 2; ++tape) {
    std::vector<BlockId> newly_masked;
    life.MaskLostMedia(tape, /*block=*/0, /*whole_tape=*/true,
                       &newly_masked);
  }
  std::optional<Request> current = first;
  for (int i = 0; i < 20; ++i) {
    current = life.Complete(*current, 1.0 + i);
    ASSERT_TRUE(current.has_value());
    EXPECT_TRUE(rig.catalog.HasLiveReplica(current->block));
  }
  // Each completion reissued exactly one servable request; every dead
  // draw along the way counted as issued and failed.
  const MetricsCollector& metrics = life.metrics();
  EXPECT_EQ(metrics.completed_total(), 20);
  EXPECT_EQ(metrics.outstanding_now(), 1);
  EXPECT_EQ(metrics.issued_total(),
            metrics.completed_total() + metrics.failed_total() + 1);
  EXPECT_GT(metrics.failed_total(), 0);
}

}  // namespace
}  // namespace tapejuke
