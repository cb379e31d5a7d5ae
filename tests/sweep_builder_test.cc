// Tests for the shared sweep-construction helper.

#include "sched/sweep_builder.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) {
  return Request{id, block, static_cast<double>(id)};
}

// Extracts `tape`'s requests from the index list the pending walk names
// (the list CandidateBuilder records in production).
void WalkAndExtract(const Catalog& catalog, TapeId tape, Position start_head,
                    int64_t block_mb, const Position* limit,
                    std::vector<Request>* pending, Sweep* sweep,
                    SweepScratch* scratch) {
  const std::vector<uint32_t> indices =
      PendingOnTape(catalog, tape, block_mb, limit, *pending);
  ExtractSweepForTape(catalog, tape, start_head, block_mb, indices, pending,
                      sweep, scratch);
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
  std::vector<Request> pending = {Req(1, 0), Req(2, 6), Req(3, 3)};
  Sweep sweep;
  WalkAndExtract(*catalog_, /*tape=*/0, /*start_head=*/0, rig_.block_mb(),
                 nullptr, &pending, &sweep, &scratch_);
  EXPECT_EQ(sweep.size(), 2u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().block, 6);
}

TEST_F(SweepBuilderTest, SplitsAroundStartHead) {
  std::vector<Request> pending = {Req(1, 0), Req(2, 4), Req(3, 2)};
  Sweep sweep;
  // Head at position 48 (slot 3): slot 4 forward; slots 0 and 2 reverse.
  WalkAndExtract(*catalog_, 0, /*start_head=*/48, rig_.block_mb(), nullptr,
                 &pending, &sweep, &scratch_);
  EXPECT_EQ(sweep.Pop()->position, 64);  // forward phase
  EXPECT_EQ(sweep.Pop()->position, 32);  // reverse, descending
  EXPECT_EQ(sweep.Pop()->position, 0);
}

TEST_F(SweepBuilderTest, EnvelopeLimitFilters) {
  std::vector<Request> pending = {Req(1, 0), Req(2, 5)};
  Sweep sweep;
  const Position limit = 64;  // covers slots 0..3 only
  WalkAndExtract(*catalog_, 0, 0, rig_.block_mb(), &limit, &pending, &sweep,
                 &scratch_);
  EXPECT_EQ(sweep.size(), 1u);   // block 0 only
  EXPECT_EQ(pending.size(), 1u);  // block 5 at slot 8 is outside
}

TEST_F(SweepBuilderTest, GroupsDuplicateBlocks) {
  std::vector<Request> pending = {Req(1, 2), Req(2, 2), Req(3, 2)};
  Sweep sweep;
  WalkAndExtract(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending, &sweep,
                 &scratch_);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->requests.size(), 3u);
}

TEST_F(SweepBuilderTest, EmptyPendingYieldsEmptySweep) {
  std::vector<Request> pending;
  Sweep sweep;
  WalkAndExtract(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending, &sweep,
                 &scratch_);
  EXPECT_TRUE(sweep.empty());
}

TEST_F(SweepBuilderTest, ReplicatedBlockUsesChosenTapePosition) {
  std::vector<Request> pending = {Req(1, 5)};
  Sweep sweep;
  WalkAndExtract(*catalog_, 1, 0, rig_.block_mb(), nullptr, &pending, &sweep,
                 &scratch_);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->position, 32);  // tape 1 copy at slot 2
}

TEST_F(SweepBuilderTest, PreservesPendingOrderOfLeftovers) {
  std::vector<Request> pending = {Req(3, 6), Req(1, 0), Req(2, 6)};
  Sweep sweep;
  WalkAndExtract(*catalog_, 0, 0, rig_.block_mb(), nullptr, &pending, &sweep,
                 &scratch_);
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
  std::vector<Request> pending = {
      Req(0, 7),  Req(1, 12), Req(2, 2),  Req(3, 11), Req(4, 7),
      Req(5, 13), Req(6, 2),  Req(7, 5),  Req(8, 3),  Req(9, 7),
      Req(10, 0), Req(11, 14), Req(12, 11), Req(13, 2)};
  const Position limit = 10 * mb;  // slots 0..9 only
  SweepScratch scratch;
  Sweep sweep;
  WalkAndExtract(catalog, 0, /*start_head=*/5 * mb, mb, &limit, &pending,
                 &sweep, &scratch);

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
  WalkAndExtract(catalog, 1, /*start_head=*/0, mb, nullptr, &pending, &sweep,
                 &scratch);
  left.clear();
  for (const Request& r : pending) left.push_back(r.id);
  EXPECT_EQ(left, (std::vector<RequestId>{3, 12}));
  std::vector<Position> positions;
  while (auto entry = sweep.Pop()) positions.push_back(entry->position);
  EXPECT_EQ(positions, (std::vector<Position>{0, mb, 2 * mb}));
}

std::vector<int64_t> SlotsOf(const SlotBitmap& bitmap, size_t group) {
  std::vector<int64_t> out;
  bitmap.ForEach(group, [&](int64_t slot) { out.push_back(slot); });
  return out;
}

// ForEach visits each inserted slot once, ascending, across 64-slot word
// boundaries, and each group sees only its own slots.
TEST(SlotBitmapTest, ForEachVisitsEachSlotOnceAscendingPerGroup) {
  SlotBitmap bitmap;
  bitmap.Reset(3, /*slots=*/300);
  const std::vector<int64_t> slots = {299, 128, 0, 63, 64, 127, 0, 64, 128};
  for (int64_t slot : slots) bitmap.Insert(1, slot);
  bitmap.Insert(2, 5);
  EXPECT_EQ(SlotsOf(bitmap, 0), std::vector<int64_t>{});
  EXPECT_EQ(SlotsOf(bitmap, 1),
            (std::vector<int64_t>{0, 63, 64, 127, 128, 299}));
  EXPECT_EQ(SlotsOf(bitmap, 2), std::vector<int64_t>{5});
}

// A bitmap reused with a different group count and slot range starts
// empty, so bits the previous layout set never show up at the live
// positions of the next.
TEST(SlotBitmapTest, ResetAcrossLayoutsStartsEmpty) {
  struct Pass {
    size_t groups;
    int64_t slots;
  };
  const Pass passes[] = {{4, 500}, {2, 70}, {6, 300}, {1, 900}, {4, 500}};
  Rng rng(11);
  SlotBitmap bitmap;
  for (const Pass& pass : passes) {
    bitmap.Reset(pass.groups, pass.slots);
    for (size_t g = 0; g < pass.groups; ++g) {
      EXPECT_EQ(SlotsOf(bitmap, g), std::vector<int64_t>{})
          << "group " << g << " of a " << pass.groups << " x " << pass.slots
          << " bitmap";
    }
    std::vector<std::set<int64_t>> want(pass.groups);
    for (int i = 0; i < 60; ++i) {
      const size_t g = static_cast<size_t>(rng.UniformUint64(pass.groups));
      const int64_t slot = static_cast<int64_t>(
          rng.UniformUint64(static_cast<uint64_t>(pass.slots)));
      bitmap.Insert(g, slot);
      want[g].insert(slot);
    }
    for (size_t g = 0; g < pass.groups; ++g) {
      EXPECT_EQ(SlotsOf(bitmap, g),
                std::vector<int64_t>(want[g].begin(), want[g].end()))
          << "group " << g << " of a " << pass.groups << " x " << pass.slots
          << " bitmap";
    }
  }
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

// A sort reused with a different group count and slot range must start
// from zeroed buckets: the sparse Reset clears exactly the buckets the
// previous sort counted, under the previous layout. The layouts below put
// stale buckets of one pass at live indices of the next.
TEST(SlotCountingSortTest, SparseResetAcrossLayoutsLeavesNoStaleBuckets) {
  const int64_t mb = 16;
  struct Pass {
    size_t groups;
    int64_t slots;
  };
  const Pass passes[] = {{3, 50}, {2, 200}, {1, 7}, {3, 50}, {4, 130}};
  Rng rng(7);
  SlotCountingSort sort;
  for (const Pass& pass : passes) {
    std::vector<std::pair<size_t, Replica>> items;
    for (int i = 0; i < 40; ++i) {
      const size_t g = static_cast<size_t>(rng.UniformUint64(pass.groups));
      const int64_t slot = static_cast<int64_t>(
          rng.UniformUint64(static_cast<uint64_t>(pass.slots)));
      items.push_back({g, Replica{static_cast<TapeId>(g), slot, slot * mb}});
    }
    sort.Reset(pass.groups, pass.slots, mb);
    for (const auto& [g, r] : items) sort.Count(g, r);
    std::vector<std::vector<size_t>> out(pass.groups);
    for (size_t g = 0; g < pass.groups; ++g) out[g].resize(sort.Offsets(g));
    for (size_t i = 0; i < items.size(); ++i) {
      const size_t g = items[i].first;
      const uint32_t at = sort.Place(g, items[i].second);
      ASSERT_LT(at, out[g].size());
      out[g][at] = i;
    }
    for (size_t g = 0; g < pass.groups; ++g) {
      std::vector<size_t> want;
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].first == g) want.push_back(i);
      }
      std::stable_sort(want.begin(), want.end(), [&](size_t a, size_t b) {
        return items[a].second.slot < items[b].second.slot;
      });
      EXPECT_EQ(out[g], want) << "group " << g << " of a " << pass.groups
                              << " x " << pass.slots << " sort";
    }
  }
}

// The per-tape lists CandidateBuilder records while counting equal the
// pending walk, and extracting from them gives the sweep and leftover
// queue a direct construction gives, on random queues with dead replicas,
// duplicate blocks and envelope limits.
TEST(SweepBuilderRandomTest, RecordedListsMatchThePendingWalk) {
  constexpr int32_t kTapes = 4;
  constexpr int64_t kSlots = 64;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TinyRig rig(kTapes, /*capacity_mb=*/16 * kSlots);
    const int64_t mb = rig.block_mb();
    // 40 blocks, 1-3 replicas each on distinct tapes and free slots (a
    // tape holds at most one copy per block, so it never fills up).
    std::vector<std::vector<bool>> used(kTapes,
                                        std::vector<bool>(kSlots, false));
    const BlockId kBlocks = 40;
    for (BlockId b = 0; b < kBlocks; ++b) {
      const int copies = 1 + static_cast<int>(rng.UniformUint64(3));
      std::vector<bool> tape_taken(kTapes, false);
      for (int c = 0; c < copies; ++c) {
        const auto t = static_cast<TapeId>(rng.UniformUint64(kTapes));
        if (tape_taken[static_cast<size_t>(t)]) continue;
        int64_t slot;
        do {
          slot = static_cast<int64_t>(rng.UniformUint64(kSlots));
        } while (used[static_cast<size_t>(t)][static_cast<size_t>(slot)]);
        used[static_cast<size_t>(t)][static_cast<size_t>(slot)] = true;
        tape_taken[static_cast<size_t>(t)] = true;
        rig.Place(b, t, slot);
      }
    }
    Catalog catalog = rig.BuildCatalog();
    for (BlockId b = 0; b < kBlocks; ++b) {
      for (const Replica& r : catalog.ReplicasOf(b)) {
        if (rng.Bernoulli(0.15)) catalog.MarkReplicaDead(b, r.tape);
      }
    }
    // Duplicates come from drawing 50 requests over 20 blocks.
    std::vector<Request> pending;
    for (RequestId id = 0; id < 50; ++id) {
      pending.push_back(
          Req(id, static_cast<BlockId>(rng.UniformUint64(20))));
    }
    std::vector<Position> envelope(kTapes);
    for (Position& edge : envelope) {
      edge = static_cast<Position>(rng.UniformUint64(kSlots + 1)) * mb;
    }
    const bool limited = rng.Bernoulli(0.5);

    CandidateBuilder builder;
    builder.Begin(rig.jukebox());
    for (size_t i = 0; i < pending.size(); ++i) {
      for (const Replica& r : catalog.ReplicasOf(pending[i].block)) {
        if (!catalog.IsAlive(r)) continue;
        if (limited &&
            r.position + mb > envelope[static_cast<size_t>(r.tape)]) {
          continue;
        }
        builder.Add(r, i == 0, static_cast<uint32_t>(i));
      }
    }
    const std::vector<TapeCandidate>& candidates = builder.Finish();
    for (TapeId t = 0; t < kTapes; ++t) {
      const Position* limit =
          limited ? &envelope[static_cast<size_t>(t)] : nullptr;
      EXPECT_EQ(candidates[static_cast<size_t>(t)].requests,
                PendingOnTape(catalog, t, mb, limit, pending))
          << "seed " << seed << " tape " << t;
    }

    const auto tape = static_cast<TapeId>(rng.UniformUint64(kTapes));
    const Position* limit =
        limited ? &envelope[static_cast<size_t>(tape)] : nullptr;
    const Position start_head =
        static_cast<Position>(rng.UniformUint64(kSlots)) * mb;
    // Direct construction: the taken requests in pending order, stably
    // grouped by position; forward from the head, then reverse.
    std::vector<Request> want_left;
    std::map<Position, std::vector<RequestId>> taken;
    for (const Request& r : pending) {
      const Replica* replica = catalog.LiveReplicaOn(r.block, tape);
      if (replica != nullptr &&
          (limit == nullptr || replica->position + mb <= *limit)) {
        taken[replica->position].push_back(r.id);
      } else {
        want_left.push_back(r);
      }
    }
    std::vector<std::pair<Position, std::vector<RequestId>>> want;
    for (const auto& entry : taken) {
      if (entry.first >= start_head) want.push_back(entry);
    }
    for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
      if (it->first < start_head) want.push_back(*it);
    }

    Sweep sweep;
    SweepScratch scratch;
    ExtractSweepForTape(catalog, tape, start_head, mb,
                        candidates[static_cast<size_t>(tape)].requests,
                        &pending, &sweep, &scratch);
    std::vector<std::pair<Position, std::vector<RequestId>>> got;
    while (auto entry = sweep.Pop()) {
      std::vector<RequestId> ids;
      for (const Request& r : entry->requests) ids.push_back(r.id);
      got.emplace_back(entry->position, ids);
    }
    EXPECT_EQ(got, want) << "seed " << seed;
    ASSERT_EQ(pending.size(), want_left.size()) << "seed " << seed;
    for (size_t i = 0; i < pending.size(); ++i) {
      EXPECT_EQ(pending[i].id, want_left[i].id) << "seed " << seed;
    }
  }
}

TEST(SweepBuilderDeathTest, RequiresEmptySweep) {
  TinyRig rig(1);
  rig.Place(0, 0, 0);
  const Catalog catalog = rig.BuildCatalog();
  std::vector<Request> pending = {Req(1, 0)};
  Sweep sweep;
  SweepScratch scratch;
  WalkAndExtract(catalog, 0, 0, rig.block_mb(), nullptr, &pending, &sweep,
                 &scratch);
  std::vector<Request> more = {Req(2, 0)};
  EXPECT_DEATH(WalkAndExtract(catalog, 0, 0, rig.block_mb(), nullptr, &more,
                              &sweep, &scratch),
               "drained");
}

}  // namespace
}  // namespace tapejuke
