// Tests for the shared sweep-construction helper.

#include "sched/sweep_builder.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "test_util.h"

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) {
  return Request{id, block, static_cast<double>(id)};
}

class SweepBuilderTest : public ::testing::Test {
 protected:
  // Tape 0: blocks 0..4 at slots 0..4; block 5 at slot 8.
  // Tape 1: block 6 at slot 0; block 5 replicated at slot 2.
  SweepBuilderTest() : rig_(2) {
    for (BlockId b = 0; b < 5; ++b) rig_.Place(b, 0, b);
    rig_.Place(5, 0, 8);
    rig_.Place(6, 1, 0);
    rig_.Place(5, 1, 2);
    catalog_ = rig_.BuildCatalog();
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
  SweepScratch scratch_;
};

TEST_F(SweepBuilderTest, ExtractsOnlyChosenTape) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 6), Req(3, 3)};
  Sweep sweep;
  ExtractSweepForTape(*catalog_, /*tape=*/0, /*start_head=*/0,
                      rig_.block_mb(), nullptr, &pending, &sweep, &scratch_);
  EXPECT_EQ(sweep.size(), 2u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().block, 6);
}

TEST_F(SweepBuilderTest, SplitsAroundStartHead) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 4), Req(3, 2)};
  Sweep sweep;
  // Head at position 48 (slot 3): slot 4 forward; slots 0 and 2 reverse.
  ExtractSweepForTape(*catalog_, 0, /*start_head=*/48, rig_.block_mb(),
                      nullptr, &pending, &sweep, &scratch_);
  EXPECT_EQ(sweep.Pop()->position, 64);  // forward phase
  EXPECT_EQ(sweep.Pop()->position, 32);  // reverse, descending
  EXPECT_EQ(sweep.Pop()->position, 0);
}

TEST_F(SweepBuilderTest, EnvelopeLimitFilters) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 5)};
  Sweep sweep;
  const Position limit = 64;  // covers slots 0..3 only
  ExtractSweepForTape(*catalog_, 0, 0, rig_.block_mb(), &limit, &pending,
                      &sweep, &scratch_);
  EXPECT_EQ(sweep.size(), 1u);   // block 0 only
  EXPECT_EQ(pending.size(), 1u);  // block 5 at slot 8 is outside
}

TEST_F(SweepBuilderTest, GroupsDuplicateBlocks) {
  std::deque<Request> pending = {Req(1, 2), Req(2, 2), Req(3, 2)};
  Sweep sweep;
  ExtractSweepForTape(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending,
                      &sweep, &scratch_);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->requests.size(), 3u);
}

TEST_F(SweepBuilderTest, EmptyPendingYieldsEmptySweep) {
  std::deque<Request> pending;
  Sweep sweep;
  ExtractSweepForTape(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending,
                      &sweep, &scratch_);
  EXPECT_TRUE(sweep.empty());
}

TEST_F(SweepBuilderTest, ReplicatedBlockUsesChosenTapePosition) {
  std::deque<Request> pending = {Req(1, 5)};
  Sweep sweep;
  ExtractSweepForTape(*catalog_, 1, 0, rig_.block_mb(), nullptr, &pending,
                      &sweep, &scratch_);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->position, 32);  // tape 1 copy at slot 2
}

TEST_F(SweepBuilderTest, PreservesPendingOrderOfLeftovers) {
  std::deque<Request> pending = {Req(3, 6), Req(1, 0), Req(2, 6)};
  Sweep sweep;
  ExtractSweepForTape(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending,
                      &sweep, &scratch_);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 3);
  EXPECT_EQ(pending[1].id, 2);
}

// In-place compaction of the pending list: the requests left behind keep
// their arrival order, and each entry's requests keep pending order, across
// duplicate requests for one block, reverse-phase positions and an
// envelope limit. The same scratch serves consecutive extractions.
TEST(SweepBuilderCompactionTest, KeepsArrivalAndPendingOrder) {
  TinyRig rig(2, /*capacity_mb=*/320);
  for (BlockId b = 0; b < 12; ++b) rig.Place(b, 0, b);  // tape 0 slots 0..11
  for (BlockId b = 12; b < 15; ++b) rig.Place(b, 1, b - 12);
  rig.Place(3, 1, 5);  // block 3 also on tape 1
  const Catalog catalog = rig.BuildCatalog();
  const int64_t mb = rig.block_mb();

  // Interleaved: duplicates of block 7 (forward) and block 2 (reverse,
  // below the head at slot 5), a block beyond the limit (slot 11), and
  // tape-1-only requests that must stay behind in order.
  std::deque<Request> pending = {
      Req(0, 7),  Req(1, 12), Req(2, 2),  Req(3, 11), Req(4, 7),
      Req(5, 13), Req(6, 2),  Req(7, 5),  Req(8, 3),  Req(9, 7),
      Req(10, 0), Req(11, 14), Req(12, 11), Req(13, 2)};
  const Position limit = 10 * mb;  // slots 0..9 only
  SweepScratch scratch;
  Sweep sweep;
  ExtractSweepForTape(catalog, 0, /*start_head=*/5 * mb, mb, &limit,
                      &pending, &sweep, &scratch);

  std::vector<RequestId> left;
  for (const Request& r : pending) left.push_back(r.id);
  EXPECT_EQ(left, (std::vector<RequestId>{1, 3, 5, 11, 12}));

  // Forward from slot 5: 5, 7; then reverse: 3, 2, 0.
  std::vector<std::pair<Position, std::vector<RequestId>>> got;
  while (auto entry = sweep.Pop()) {
    std::vector<RequestId> ids;
    for (const Request& r : entry->requests) ids.push_back(r.id);
    got.emplace_back(entry->position, ids);
  }
  const std::vector<std::pair<Position, std::vector<RequestId>>> want = {
      {5 * mb, {7}},
      {7 * mb, {0, 4, 9}},
      {3 * mb, {8}},
      {2 * mb, {2, 6, 13}},
      {0 * mb, {10}}};
  EXPECT_EQ(got, want);

  // Reuse the scratch on the other tape: the tape-1-only requests leave
  // (block 3 went with tape 0 above); the limit-excluded ones stay.
  ExtractSweepForTape(catalog, 1, /*start_head=*/0, mb, nullptr, &pending,
                      &sweep, &scratch);
  left.clear();
  for (const Request& r : pending) left.push_back(r.id);
  EXPECT_EQ(left, (std::vector<RequestId>{3, 12}));
  std::vector<Position> positions;
  while (auto entry = sweep.Pop()) positions.push_back(entry->position);
  EXPECT_EQ(positions, (std::vector<Position>{0, mb, 2 * mb}));
}

// Items with equal slots keep their input order within each group, and a
// reused sort starts from zeroed buckets.
TEST(SlotCountingSortTest, StableWithinGroupsAndReusable) {
  const int64_t mb = 16;
  const std::vector<Replica> items = {
      {0, 3, 3 * mb}, {1, 0, 0}, {0, 1, mb}, {0, 3, 3 * mb},
      {1, 2, 2 * mb}, {0, 1, mb}, {1, 0, 0}};
  SlotCountingSort sort;
  for (int pass = 0; pass < 2; ++pass) {
    sort.Reset(2, /*slots=*/4, mb);
    for (const Replica& r : items) sort.Count(static_cast<size_t>(r.tape), r);
    std::vector<std::vector<size_t>> out(2);
    for (size_t g = 0; g < 2; ++g) out[g].resize(sort.Offsets(g));
    for (size_t i = 0; i < items.size(); ++i) {
      const size_t g = static_cast<size_t>(items[i].tape);
      out[g][sort.Place(g, items[i])] = i;
    }
    EXPECT_EQ(out[0], (std::vector<size_t>{2, 5, 0, 3}));
    EXPECT_EQ(out[1], (std::vector<size_t>{1, 6, 4}));
  }
}

TEST(SweepBuilderDeathTest, RequiresEmptySweep) {
  TinyRig rig(1);
  rig.Place(0, 0, 0);
  const Catalog catalog = rig.BuildCatalog();
  std::deque<Request> pending = {Req(1, 0)};
  Sweep sweep;
  SweepScratch scratch;
  ExtractSweepForTape(catalog, 0, 0, rig.block_mb(), nullptr, &pending,
                      &sweep, &scratch);
  std::deque<Request> more = {Req(2, 0)};
  EXPECT_DEATH(ExtractSweepForTape(catalog, 0, 0, rig.block_mb(), nullptr,
                                   &more, &sweep, &scratch),
               "drained");
}

}  // namespace
}  // namespace tapejuke
