// Unit tests for the tape-selection policies (paper §3.1).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sched/scheduler.h"
#include "test_util.h"

namespace tapejuke {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  TapeCandidate Cand(TapeId tape, int64_t requests,
                     std::vector<Position> positions,
                     bool serves_oldest = false) {
    std::vector<uint32_t> indices(static_cast<size_t>(requests));
    std::iota(indices.begin(), indices.end(), 0u);
    return TapeCandidate{tape, std::move(positions), serves_oldest,
                         std::move(indices)};
  }

  TimingModel model_{TimingParams::Exabyte8505XL()};
  ScheduleCost cost_{&model_, 16};
  static constexpr int32_t kTapes = 4;
};

TEST_F(PolicyTest, NoWorkReturnsInvalid) {
  std::vector<TapeCandidate> tapes = {Cand(0, 0, {}), Cand(1, 0, {})};
  EXPECT_EQ(SelectTape(TapePolicy::kMaxRequests, tapes, 0, 0, kTapes, cost_),
            kInvalidTape);
}

TEST_F(PolicyTest, RoundRobinPicksNextAfterMounted) {
  std::vector<TapeCandidate> tapes = {Cand(0, 1, {0}), Cand(1, 5, {0}),
                                      Cand(2, 0, {}), Cand(3, 2, {0})};
  // Mounted 1: next in order with work is 3 (2 has none), not 0 or 1.
  EXPECT_EQ(SelectTape(TapePolicy::kRoundRobin, tapes, 1, 0, kTapes, cost_),
            3);
}

TEST_F(PolicyTest, RoundRobinWrapsAndVisitsMountedLast) {
  std::vector<TapeCandidate> tapes = {Cand(0, 0, {}), Cand(1, 5, {0}),
                                      Cand(2, 0, {}), Cand(3, 0, {})};
  // Only the mounted tape has work: it is chosen (last resort).
  EXPECT_EQ(SelectTape(TapePolicy::kRoundRobin, tapes, 1, 0, kTapes, cost_),
            1);
}

TEST_F(PolicyTest, MaxRequestsPicksLargestQueue) {
  std::vector<TapeCandidate> tapes = {Cand(0, 2, {0, 16}),
                                      Cand(1, 7, {0, 16, 32}),
                                      Cand(2, 3, {0})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 2, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxRequestsTieBreaksInScanOrderFromMounted) {
  std::vector<TapeCandidate> tapes = {Cand(0, 3, {0}), Cand(1, 0, {}),
                                      Cand(2, 3, {0}), Cand(3, 3, {0})};
  // Mounted 2: scan order 2,3,0,1 -> tape 2 wins the tie.
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 2, 0, kTapes, cost_), 2);
  // Mounted 3: scan order 3,0,1,2 -> tape 3 wins.
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 3, 0, kTapes, cost_), 3);
}

TEST_F(PolicyTest, MaxBandwidthPrefersMountedTapeNoSwitchCost) {
  // Same request sets; the mounted tape avoids the 81 s switch.
  std::vector<TapeCandidate> tapes = {Cand(0, 2, {100, 200}),
                                      Cand(1, 2, {100, 200})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 0);
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 1, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxBandwidthPrefersClusteredRequests) {
  // Tape 1's requests are clustered near the start: higher bandwidth than
  // tape 2's scattered ones, despite equal counts. (Neither is mounted.)
  std::vector<TapeCandidate> tapes = {
      Cand(1, 3, {0, 16, 32}), Cand(2, 3, {0, 3200, 6400})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxBandwidthCanBeatMaxRequests) {
  // Five scattered requests vs three clustered ones.
  std::vector<TapeCandidate> tapes = {
      Cand(1, 5, {0, 1600, 3200, 4800, 6400}), Cand(2, 3, {0, 16, 32})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 0, 0, kTapes, cost_), 1);
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 2);
}

TEST_F(PolicyTest, OldestRestrictsEligibleTapes) {
  std::vector<TapeCandidate> tapes = {
      Cand(0, 9, {0}, false), Cand(1, 2, {0}, true), Cand(2, 1, {0}, true)};
  EXPECT_EQ(SelectTape(TapePolicy::kOldestMaxRequests, tapes, 0, 0, kTapes,
                       cost_),
            1);
}

TEST_F(PolicyTest, OldestMaxBandwidthUsesBandwidthAmongEligible) {
  std::vector<TapeCandidate> tapes = {
      Cand(0, 9, {0}, false),
      Cand(1, 2, {0, 6400}, true),
      Cand(2, 2, {0, 16}, true)};
  EXPECT_EQ(SelectTape(TapePolicy::kOldestMaxBandwidth, tapes, 3, 0, kTapes,
                       cost_),
            2);
}

TEST_F(PolicyTest, PolicyNames) {
  EXPECT_STREQ(TapePolicyName(TapePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kMaxRequests), "max-requests");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kMaxBandwidth), "max-bandwidth");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kOldestMaxRequests),
               "oldest-max-requests");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kOldestMaxBandwidth),
               "oldest-max-bandwidth");
}

// The candidate builder counts every (request, replica) pair but emits
// each tape's distinct positions in ascending order, records the queue
// indices it counted per tape, and a new Begin forgets the previous set.
TEST(CandidateBuilderTest, EmitsAscendingDistinctPositions) {
  TinyRig rig(3, /*capacity_mb=*/16 * 130);  // 130 slots: three bitmap words
  rig.Place(0, 0, 129);
  rig.Place(1, 0, 64);
  rig.Place(2, 0, 3);
  rig.Place(2, 2, 0);
  const Catalog catalog = rig.BuildCatalog();
  const int64_t mb = rig.block_mb();

  CandidateBuilder builder;
  builder.Begin(rig.jukebox());
  const std::vector<BlockId> queue = {0, 2, 1, 0, 2};
  for (size_t i = 0; i < queue.size(); ++i) {
    for (const Replica& replica : catalog.ReplicasOf(queue[i])) {
      builder.Add(replica, /*serves_oldest=*/queue[i] == 1,
                  static_cast<uint32_t>(i));
    }
  }
  const std::vector<TapeCandidate>& candidates = builder.Finish();
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].tape, 0);
  EXPECT_EQ(candidates[0].num_requests(), 5);
  EXPECT_EQ(candidates[0].positions,
            (std::vector<Position>{3 * mb, 64 * mb, 129 * mb}));
  EXPECT_TRUE(candidates[0].serves_oldest);
  EXPECT_EQ(candidates[0].requests, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(candidates[1].num_requests(), 0);
  EXPECT_TRUE(candidates[1].positions.empty());
  EXPECT_EQ(candidates[2].num_requests(), 2);
  EXPECT_EQ(candidates[2].positions, (std::vector<Position>{0}));
  EXPECT_FALSE(candidates[2].serves_oldest);
  EXPECT_EQ(candidates[2].requests, (std::vector<uint32_t>{1, 4}));

  builder.Begin(rig.jukebox());
  builder.Add(*catalog.ReplicaOn(1, 0), /*serves_oldest=*/false, 7);
  const std::vector<TapeCandidate>& again = builder.Finish();
  EXPECT_EQ(again[0].num_requests(), 1);
  EXPECT_EQ(again[0].positions, (std::vector<Position>{64 * mb}));
  EXPECT_FALSE(again[0].serves_oldest);
  EXPECT_EQ(again[0].requests, (std::vector<uint32_t>{7}));
  EXPECT_EQ(again[2].num_requests(), 0);
  EXPECT_TRUE(again[2].requests.empty());
  EXPECT_TRUE(again[2].positions.empty());
}

}  // namespace
}  // namespace tapejuke
