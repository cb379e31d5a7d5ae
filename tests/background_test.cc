// Tests for the pieces every background component shares: the SpareSlots
// ledger and the DriveOps block write.

#include "sim/background.h"

#include <gtest/gtest.h>

#include "sim/drive_ops.h"
#include "test_util.h"

namespace tapejuke {
namespace {

// One tape of ten slots with blocks at slots 1, 4 and 8.
TinyRig OneTape() {
  TinyRig rig(/*num_tapes=*/2);
  rig.Place(0, 0, 1);
  rig.Place(1, 0, 4);
  rig.Place(2, 0, 8);
  return rig;
}

TEST(SpareSlots, HoldsTheEmptySlots) {
  TinyRig rig = OneTape();
  const SpareSlots spare(rig.jukebox());
  EXPECT_EQ(spare.free(0), 7);
  EXPECT_EQ(spare.free(1), 10);
  EXPECT_FALSE(spare.dead(0));
}

TEST(SpareSlots, HighestAndLowestTakeOrder) {
  TinyRig rig = OneTape();
  SpareSlots spare(rig.jukebox());
  EXPECT_EQ(spare.TakeHighest(0), 9);
  EXPECT_EQ(spare.TakeHighest(0), 7);
  EXPECT_EQ(spare.TakeLowest(0), 0);
  EXPECT_EQ(spare.TakeLowest(0), 2);
  EXPECT_EQ(spare.free(0), 3);  // 3, 5 and 6 are left
  EXPECT_EQ(spare.TakeHighest(0), 6);
  EXPECT_EQ(spare.TakeLowest(0), 3);
}

TEST(SpareSlots, ReleasedSlotGoesBackInOrder) {
  TinyRig rig = OneTape();
  SpareSlots spare(rig.jukebox());
  const int64_t low = spare.TakeLowest(0);    // 0
  const int64_t next = spare.TakeLowest(0);   // 2
  const int64_t high = spare.TakeHighest(0);  // 9
  spare.Release(0, next);
  spare.Release(0, high);
  spare.Release(0, low);
  EXPECT_EQ(spare.free(0), 7);
  EXPECT_EQ(spare.TakeLowest(0), 0);
  EXPECT_EQ(spare.TakeLowest(0), 2);
  EXPECT_EQ(spare.TakeLowest(0), 3);
  EXPECT_EQ(spare.TakeHighest(0), 9);
  EXPECT_EQ(spare.TakeHighest(0), 7);
}

TEST(SpareSlots, DeadTapeIsClearedForGood) {
  TinyRig rig = OneTape();
  SpareSlots spare(rig.jukebox());
  const int64_t taken = spare.TakeLowest(0);
  spare.MarkDead(0);
  EXPECT_TRUE(spare.dead(0));
  EXPECT_EQ(spare.free(0), 0);
  spare.Release(0, taken);  // a slot reserved before the loss stays gone
  EXPECT_EQ(spare.free(0), 0);
  EXPECT_EQ(spare.free(1), 10);  // other tapes are untouched
}

TEST(SpareSlotsDeathTest, TakingFromAnEmptyTapeAborts) {
  TinyRig rig = OneTape();
  SpareSlots spare(rig.jukebox());
  spare.MarkDead(0);
  EXPECT_DEATH(spare.TakeHighest(0), "");
  EXPECT_DEATH(spare.TakeLowest(0), "");
}

TEST(DriveOps, WriteCostsALocateAndOneBlock) {
  TinyRig rig = OneTape();
  Jukebox& jukebox = rig.jukebox();
  DriveOps ops(&jukebox, /*faults=*/nullptr, /*fault_stats=*/nullptr);
  EXPECT_GT(ops.Mount(0), 0);
  EXPECT_EQ(ops.Mount(0), 0);  // already mounted
  const Position from = jukebox.head();
  const Position at = jukebox.tape(0).PositionOfSlot(5);
  double seconds = 0;
  ops.Write(at, &seconds);
  EXPECT_DOUBLE_EQ(seconds,
                   rig.model().LocateAndReadTime(from, at, rig.block_mb()));
  EXPECT_LE(seconds, MaxBlockWrite(jukebox));
  // A write is not a read.
  EXPECT_EQ(jukebox.counters().blocks_read, 0);
}

}  // namespace
}  // namespace tapejuke
