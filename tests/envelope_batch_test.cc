// Batched-arrival and epoch-rescheduling boundary cases for the envelope
// scheduler: exact batch-boundary flushes, fault events forcing a flush
// mid-batch, background piggyback on batched/epoch client sweeps, and a
// scheduler-driven equivalence fuzz with every fast path armed at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sched/envelope_scheduler.h"
#include "sched/validating_scheduler.h"
#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) {
  return Request{id, block, static_cast<double>(id)};
}

// Two tapes, four non-replicated blocks near the tape starts plus one
// replicated block; enough structure for envelopes without being fiddly.
class EnvelopeBatchTest : public ::testing::Test {
 protected:
  EnvelopeBatchTest() : rig_(2) {
    rig_.Place(0, 0, 0);
    rig_.Place(1, 0, 1);
    rig_.Place(2, 1, 0);
    rig_.Place(3, 1, 1);
    rig_.Place(4, 0, 3);  // replicated on both tapes
    rig_.Place(4, 1, 3);
    catalog_ = rig_.BuildCatalog();
    rig_.jukebox().SwitchTo(0);
  }

  EnvelopeScheduler MakeScheduler(const SchedulerOptions& options) {
    return EnvelopeScheduler(&rig_.jukebox(), &*catalog_,
                             TapePolicy::kMaxRequests, options);
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
};

TEST_F(EnvelopeBatchTest, BatchFlushesExactlyWhenFull) {
  SchedulerOptions options;
  options.arrival_batch = 4;
  options.validate_envelope = true;
  EnvelopeScheduler sched = MakeScheduler(options);

  // The first batch_size - 1 arrivals stay staged: visible in
  // pending_size() and HasWork(), but not yet applied to the pending list.
  for (RequestId id = 0; id < 3; ++id) {
    sched.OnArrival(Req(id, static_cast<BlockId>(id)), 0);
  }
  EXPECT_EQ(sched.staged_size(), 3u);
  EXPECT_TRUE(sched.pending().empty());
  EXPECT_EQ(sched.pending_size(), 3u);
  EXPECT_TRUE(sched.HasWork());

  // The arrival that fills the batch flushes all of it through the normal
  // incremental path, in arrival order.
  sched.OnArrival(Req(3, 3), 0);
  EXPECT_EQ(sched.staged_size(), 0u);
  ASSERT_EQ(sched.pending().size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sched.pending()[i].id, static_cast<RequestId>(i));
  }

  // The next arrival starts a new batch.
  sched.OnArrival(Req(4, 4), 0);
  EXPECT_EQ(sched.staged_size(), 1u);
  EXPECT_EQ(sched.pending_size(), 5u);

  // A major reschedule flushes the partial batch before deciding anything;
  // over the two sweeps every request is served exactly once.
  size_t served = 0;
  while (sched.HasWork()) {
    const TapeId tape = sched.MajorReschedule();
    ASSERT_NE(tape, kInvalidTape);
    EXPECT_EQ(sched.staged_size(), 0u);
    rig_.jukebox().SwitchTo(tape);
    while (auto entry = sched.PopNext()) served += entry->requests.size();
  }
  EXPECT_EQ(served, 5u);
}

TEST_F(EnvelopeBatchTest, DrainSweepAbsorbsStagedMidBatch) {
  SchedulerOptions options;
  options.arrival_batch = 8;
  options.validate_envelope = true;
  EnvelopeScheduler sched = MakeScheduler(options);

  for (RequestId id = 0; id < 2; ++id) {
    sched.OnArrival(Req(id, static_cast<BlockId>(id)), 0);
  }
  ASSERT_NE(sched.MajorReschedule(), kInvalidTape);

  // Two more arrivals land mid-sweep; the batch (8) is nowhere near full.
  sched.OnArrival(Req(2, 2), 0);
  sched.OnArrival(Req(3, 3), 0);
  EXPECT_EQ(sched.staged_size(), 2u);

  // A fault abandons the sweep. The staged arrivals must be absorbed into
  // the pending list (not lost, not applied to the dying sweep); the next
  // reschedule builds its extension lists and candidates from that list,
  // and the oracle checks both against the naive walk.
  const std::vector<Request> drained = sched.DrainSweep();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(sched.staged_size(), 0u);
  EXPECT_EQ(sched.pending().size(), 2u);

  // Fail the drained requests back over, then serve everything.
  for (const Request& request : drained) sched.OnArrival(request, 0);
  size_t served = 0;
  while (sched.HasWork()) {
    const TapeId tape = sched.MajorReschedule();
    ASSERT_NE(tape, kInvalidTape);
    rig_.jukebox().SwitchTo(tape);
    while (auto entry = sched.PopNext()) served += entry->requests.size();
  }
  EXPECT_EQ(served, 4u);
}

TEST_F(EnvelopeBatchTest, EvictUnservableSeesStagedRequests) {
  SchedulerOptions options;
  options.arrival_batch = 8;
  options.validate_envelope = true;
  EnvelopeScheduler sched = MakeScheduler(options);

  sched.OnArrival(Req(0, 0), 0);  // survives on tape 0
  sched.OnArrival(Req(1, 2), 0);  // block 2 only lives on tape 1
  EXPECT_EQ(sched.staged_size(), 2u);

  // Block 2 loses its only replica while both requests are still staged.
  // Eviction must flush the batch first and return the now-unservable
  // request; the servable one stays pending.
  ASSERT_TRUE(catalog_->MarkReplicaDead(2, 1));
  const std::vector<Request> evicted = sched.EvictUnservablePending();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 1);
  EXPECT_EQ(sched.staged_size(), 0u);
  ASSERT_EQ(sched.pending().size(), 1u);
  EXPECT_EQ(sched.pending()[0].id, 0);

  // The next reschedule reads only live replicas and still passes the
  // oracle.
  const TapeId tape = sched.MajorReschedule();
  ASSERT_EQ(tape, 0);
  size_t served = 0;
  while (auto entry = sched.PopNext()) served += entry->requests.size();
  EXPECT_EQ(served, 1u);
  EXPECT_FALSE(sched.HasWork());
}

TEST_F(EnvelopeBatchTest, BackgroundPiggybacksOnEpochSweep) {
  SchedulerOptions options;
  options.arrival_batch = 2;
  options.reschedule_epoch = 3;
  options.validate_envelope = true;
  EnvelopeScheduler sched = MakeScheduler(options);

  // Client work on both tapes; a background (repair-source) read of block
  // 3 on tape 1. The background request must ride the *epoch* visit to
  // tape 1 — the one served from the reused envelope without re-running
  // the kernel.
  sched.OnArrival(Req(0, 0), 0);
  sched.OnArrival(Req(1, 1), 0);
  sched.OnArrival(Req(2, 2), 0);
  Request background = Req(kBackgroundIdBase, 3);
  background.cls = RequestClass::kBackground;
  sched.EnqueueBackground(background);
  ASSERT_EQ(sched.background_size(), 1u);

  // First visit: the full kernel runs; tape 0 wins max-requests (2 vs 1).
  const TapeId first = sched.MajorReschedule();
  ASSERT_EQ(first, 0);
  EXPECT_EQ(sched.counters().epoch_reuses, 0);
  EXPECT_EQ(sched.background_size(), 1u);  // no replica of 3 on tape 0
  rig_.jukebox().SwitchTo(first);
  while (sched.PopNext()) {
  }

  // Second visit: served from the persisted envelope (epoch reuse), and
  // the background read piggybacks on it.
  const TapeId second = sched.MajorReschedule();
  ASSERT_EQ(second, 1);
  EXPECT_EQ(sched.counters().epoch_reuses, 1);
  EXPECT_EQ(sched.background_size(), 0u);
  rig_.jukebox().SwitchTo(second);
  std::set<BlockId> blocks;
  while (auto entry = sched.PopNext()) blocks.insert(entry->block);
  EXPECT_TRUE(blocks.count(2));
  EXPECT_TRUE(blocks.count(3));
  EXPECT_FALSE(sched.HasWork());
}

// A catalog mutation mid-epoch (single-replica media error on another
// tape: no sweep is drained, the victim block stays servable via its
// other replica) must not leave the epoch fast path counting the dead
// replica as servable tape-1 work. The oracle pins the epoch visit's
// candidates against the live pending x replica walk.
TEST(EnvelopeEpochFault, ReplicaDeathMidEpochServesLiveCandidates) {
  TinyRig rig(2);
  rig.Place(0, 0, 0);
  rig.Place(1, 0, 1);
  rig.Place(2, 1, 0);
  rig.Place(3, 1, 1);  // block 3 also replicated on tape 0...
  rig.Place(3, 0, 3);  // ...outside the initial envelope
  Catalog catalog = rig.BuildCatalog();
  rig.jukebox().SwitchTo(0);

  SchedulerOptions options;
  options.reschedule_epoch = 3;
  options.validate_envelope = true;
  EnvelopeScheduler sched(&rig.jukebox(), &catalog, TapePolicy::kMaxRequests,
                          options);
  for (RequestId id = 0; id < 4; ++id) {
    sched.OnArrival(Req(id, static_cast<BlockId>(id)), 0);
  }

  // Full kernel: block 3 is assigned its cheap tape-1 replica, the
  // envelope covers two blocks on each tape, and the mounted tape wins
  // the 2-vs-2 tie.
  const TapeId first = sched.MajorReschedule();
  ASSERT_EQ(first, 0);
  rig.jukebox().SwitchTo(first);
  size_t served = 0;
  while (auto entry = sched.PopNext()) served += entry->requests.size();
  EXPECT_EQ(served, 2u);

  // Block 3's tape-1 replica dies mid-epoch. The request keeps its live
  // tape-0 replica, so nothing is evicted, and the envelope still covers
  // the dead copy.
  ASSERT_TRUE(catalog.MarkReplicaDead(3, 1));
  EXPECT_TRUE(sched.EvictUnservablePending().empty());

  // The epoch visit still fires, but tape 1 has one live in-envelope
  // request (block 2), not two.
  const TapeId second = sched.MajorReschedule();
  ASSERT_EQ(second, 1);
  EXPECT_EQ(sched.counters().epoch_reuses, 1);
  EXPECT_EQ(sched.counters().master_rebuilds, 0);
  rig.jukebox().SwitchTo(second);
  while (auto entry = sched.PopNext()) {
    EXPECT_EQ(entry->block, 2);
    served += entry->requests.size();
  }
  EXPECT_EQ(served, 3u);

  // Block 3 remains, reachable only through its out-of-envelope tape-0
  // replica: the epoch path finds no candidates and falls back to the
  // full kernel, which extends tape 0 out to it.
  const TapeId third = sched.MajorReschedule();
  ASSERT_EQ(third, 0);
  rig.jukebox().SwitchTo(third);
  while (auto entry = sched.PopNext()) {
    EXPECT_EQ(entry->block, 3);
    served += entry->requests.size();
  }
  EXPECT_EQ(served, 4u);
  EXPECT_FALSE(sched.HasWork());
}

// The abort flavour of the same staleness (production config, oracle
// off): every in-envelope tape-1 replica dies mid-epoch — the anchor
// block outright (and is evicted), the replicated blocks surviving on
// out-of-envelope tape-0 copies. An epoch visit that chose tape 1 on
// phantom candidates would extract an empty sweep (TJ_CHECK failure);
// instead it must fall back to a full recompute.
TEST(EnvelopeEpochFault, AllPhantomTapeFallsBackToFullReschedule) {
  TinyRig rig(2);
  rig.Place(0, 0, 0);
  rig.Place(1, 0, 1);
  rig.Place(2, 0, 2);
  rig.Place(3, 1, 0);  // tape-1 anchor, non-replicated
  rig.Place(4, 1, 1);  // blocks 4 and 5 replicated on both tapes;
  rig.Place(4, 0, 4);  // the tape-0 copies sit outside the envelope
  rig.Place(5, 1, 2);
  rig.Place(5, 0, 5);
  Catalog catalog = rig.BuildCatalog();
  rig.jukebox().SwitchTo(0);

  SchedulerOptions options;
  options.reschedule_epoch = 3;
  EnvelopeScheduler sched(&rig.jukebox(), &catalog, TapePolicy::kMaxRequests,
                          options);
  for (RequestId id = 0; id < 6; ++id) {
    sched.OnArrival(Req(id, static_cast<BlockId>(id)), 0);
  }
  // Envelope: three blocks per tape; the mounted tape wins the 3-vs-3 tie.
  const TapeId first = sched.MajorReschedule();
  ASSERT_EQ(first, 0);
  rig.jukebox().SwitchTo(first);
  size_t served = 0;
  while (auto entry = sched.PopNext()) served += entry->requests.size();
  EXPECT_EQ(served, 3u);

  // A permanent tape-1 error kills all three in-envelope replicas. The
  // anchor block is lost (evicted); blocks 4 and 5 stay servable through
  // their tape-0 copies — which lie beyond the reused envelope.
  ASSERT_TRUE(catalog.MarkReplicaDead(3, 1));
  ASSERT_TRUE(catalog.MarkReplicaDead(4, 1));
  ASSERT_TRUE(catalog.MarkReplicaDead(5, 1));
  const std::vector<Request> evicted = sched.EvictUnservablePending();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 3);

  // Nothing pending lies inside the reused envelope any more: the visit
  // must recompute (no epoch reuse), extend tape 0, and serve both.
  const TapeId second = sched.MajorReschedule();
  ASSERT_EQ(second, 0);
  EXPECT_EQ(sched.counters().epoch_reuses, 0);
  EXPECT_EQ(sched.counters().major_reschedules, 2);
  rig.jukebox().SwitchTo(second);
  while (auto entry = sched.PopNext()) served += entry->requests.size();
  EXPECT_EQ(served, 5u);
  EXPECT_FALSE(sched.HasWork());
}

// Scheduler-driven equivalence fuzz: every fast path armed at once
// (sole-replica step 2, slot-ordered list and candidate builds, recorded
// extraction lists, arrival batching, epoch rescheduling) under the
// ValidatingScheduler with the envelope oracle on. Arrival ids are
// shuffled within small windows to mimic failover re-deliveries, so
// pending is not always in id order.
class EnvelopeBatchFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvelopeBatchFuzz, BatchedFastPathsMatchOracle) {
  Rng rng(GetParam() * 977);
  TinyRig rig(4, /*capacity_mb=*/400, /*block_size_mb=*/16);
  std::set<std::pair<TapeId, int64_t>> used;
  auto place_random = [&](BlockId block, TapeId tape, int64_t lo,
                          int64_t hi) {
    for (;;) {
      const int64_t slot =
          lo + static_cast<int64_t>(
                   rng.UniformUint64(static_cast<uint64_t>(hi - lo)));
      if (used.insert({tape, slot}).second) {
        rig.Place(block, tape, slot);
        return;
      }
    }
  };
  BlockId next_block = 0;
  const int num_anchors = 1 + static_cast<int>(rng.UniformUint64(3));
  for (int i = 0; i < num_anchors; ++i) {
    place_random(next_block++, static_cast<TapeId>(rng.UniformUint64(4)), 0,
                 5);
  }
  const int num_replicated = 3 + static_cast<int>(rng.UniformUint64(5));
  for (int i = 0; i < num_replicated; ++i) {
    const int copies = 2 + static_cast<int>(rng.UniformUint64(3));
    std::set<TapeId> tapes;
    while (static_cast<int>(tapes.size()) < copies) {
      tapes.insert(static_cast<TapeId>(rng.UniformUint64(4)));
    }
    for (const TapeId t : tapes) place_random(next_block, t, 3, 25);
    ++next_block;
  }
  const Catalog catalog = rig.BuildCatalog();
  rig.jukebox().SwitchTo(static_cast<TapeId>(rng.UniformUint64(4)));

  SchedulerOptions options;
  options.validate_envelope = true;
  options.arrival_batch =
      1 + static_cast<int32_t>(rng.UniformUint64(4));  // 1-4
  options.reschedule_epoch =
      1 + static_cast<int32_t>(rng.UniformUint64(4));  // 1-4
  auto inner = std::make_unique<EnvelopeScheduler>(
      &rig.jukebox(), &catalog, TapePolicy::kMaxRequests, options);
  ValidatingScheduler sched(std::move(inner), &rig.jukebox(), &catalog);

  // 3 bursts of arrivals, each followed by a drain-everything phase.
  RequestId next_id = 0;
  int64_t delivered = 0;
  int64_t served = 0;
  for (int burst = 0; burst < 3; ++burst) {
    std::vector<Request> arrivals;
    const int n = 4 + static_cast<int>(rng.UniformUint64(8));
    for (int i = 0; i < n; ++i) {
      arrivals.push_back(Req(
          next_id++, static_cast<BlockId>(rng.UniformUint64(
                         static_cast<uint64_t>(next_block)))));
    }
    // Shuffle ids within windows of 3: out-of-order deliveries as after a
    // failover, without violating "enters exactly once".
    for (size_t i = 0; i + 2 < arrivals.size(); i += 3) {
      if (rng.UniformUint64(2) == 0) {
        std::swap(arrivals[i], arrivals[i + 2]);
      }
    }
    for (const Request& request : arrivals) sched.OnArrival(request, 0);
    delivered += n;

    while (sched.HasWork()) {
      const TapeId tape = sched.MajorReschedule();
      ASSERT_NE(tape, kInvalidTape);
      rig.jukebox().SwitchTo(tape);
      while (auto entry = sched.PopNext()) {
        served += static_cast<int64_t>(entry->requests.size());
      }
    }
  }
  EXPECT_EQ(sched.arrivals_seen(), delivered);
  EXPECT_EQ(sched.requests_served(), served);
  EXPECT_EQ(served, delivered);
  EXPECT_EQ(sched.outstanding(), 0);

  const auto& counters =
      static_cast<EnvelopeScheduler*>(sched.inner())->counters();
  EXPECT_GT(counters.major_reschedules, 0);
  if (options.reschedule_epoch > 1) {
    // Epoch visits were at least attempted; when they fired, the oracle
    // also checked their candidates.
    EXPECT_GE(counters.epoch_reuses, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EnvelopeBatchFuzz,
                         ::testing::Range<uint64_t>(1, 31));

}  // namespace
}  // namespace tapejuke
