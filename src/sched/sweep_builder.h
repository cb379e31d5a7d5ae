// Shared sweep-construction helper: extract the requests a tape visit will
// serve from a pending list and arrange them into a single sweep.
//
// Used by the single-drive Scheduler subclasses and by the multi-drive
// simulator extension.

#ifndef TAPEJUKE_SCHED_SWEEP_BUILDER_H_
#define TAPEJUKE_SCHED_SWEEP_BUILDER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "sched/request.h"
#include "sched/sweep.h"
#include "tape/types.h"
#include "util/check.h"

namespace tapejuke {

/// Per-group sets of slots as bitmaps, one bit per slot: a group's slots
/// come out in ascending order without sorting.
class SlotBitmap {
 public:
  /// Empties the set and sizes it for `groups` groups of slots [0, slots).
  void Reset(size_t groups, int64_t slots);

  void Insert(size_t group, int64_t slot) {
    TJ_DCHECK(group < groups_ && slot >= 0 && slot < slots_);
    bits_[group * words_ + static_cast<size_t>(slot) / 64] |= uint64_t{1}
                                                              << (slot % 64);
  }

  /// Calls fn(slot) for every slot of `group`, in ascending order.
  template <typename Fn>
  void ForEach(size_t group, Fn fn) const {
    const uint64_t* bits = bits_.data() + group * words_;
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t b = bits[w]; b != 0; b &= b - 1) {
        fn(static_cast<int64_t>(w * 64) + std::countr_zero(b));
      }
    }
  }

 private:
  std::vector<uint64_t> bits_;  ///< per group, one bit per slot
  size_t groups_ = 0;
  int64_t slots_ = 0;
  size_t words_ = 0;  ///< bit words per group
};

/// Stable counting sort of replicas by Replica::slot. A replica's position
/// is slot * block size, so this orders replicas by position without
/// comparisons, and items with equal slots keep their input order. Items
/// are keyed (group, slot); the group is a tape index when several
/// per-tape lists are sorted at once. Use: Reset, Count every item,
/// Offsets once per group, then Place the same items in the same order.
/// Offsets and the next Reset (which zeroes them) visit only the buckets
/// of counted slots, found through a slot bitmap, so a warm sort does not
/// allocate and touches no bucket it did not count.
class SlotCountingSort {
 public:
  /// Starts a sort of `groups` groups with slots in [0, slots).
  void Reset(size_t groups, int64_t slots, int64_t block_size_mb);

  void Count(size_t group, const Replica& replica) {
    TJ_DCHECK(replica.position == replica.slot * block_size_mb_);
    used_.Insert(group, replica.slot);
    ++bucket_[Index(group, replica.slot)];
  }

  /// Turns `group`'s counts into output offsets; returns its item count.
  uint32_t Offsets(size_t group);

  /// The next item's index within its group's sorted output.
  uint32_t Place(size_t group, const Replica& replica) {
    return bucket_[Index(group, replica.slot)]++;
  }

 private:
  size_t Index(size_t group, int64_t slot) const {
    return group * static_cast<size_t>(slots_) + static_cast<size_t>(slot);
  }

  std::vector<uint32_t> bucket_;  ///< zero outside the slots in used_
  SlotBitmap used_;               ///< the slots counted since Reset
  size_t groups_ = 0;
  int64_t slots_ = 0;
  int64_t block_size_mb_ = 0;
};

/// Reusable buffers for ExtractSweepForTape. Each scheduler or simulator
/// owns its own, so a warm extraction does not allocate and concurrent
/// boxes never share state.
struct SweepScratch {
  struct Tagged {
    const Replica* replica;
    Request request;
  };
  std::vector<Tagged> extracted;  ///< in pending order
  std::vector<uint32_t> order;    ///< `extracted` indices, by slot
  SlotCountingSort sort;
};

/// The pending walk: the indices, ascending, of the requests in `pending`
/// with a live replica on `tape` (when `envelope_limit` is non-null, only
/// replicas whose block end is within it). CandidateBuilder records these
/// lists while it counts candidates; this walk is their oracle.
std::vector<uint32_t> PendingOnTape(const Catalog& catalog, TapeId tape,
                                    int64_t block_size_mb,
                                    const Position* envelope_limit,
                                    const std::vector<Request>& pending);

/// Removes the requests `pending[i]` for every i in `indices` (ascending,
/// each with a live replica on `tape`: a PendingOnTape list) and appends
/// them to `sweep` as a single forward+reverse pass starting from
/// `start_head`. Requests for the same block share one entry, in pending
/// order; the requests left behind keep their order. `sweep` must be empty
/// on entry.
void ExtractSweepForTape(const Catalog& catalog, TapeId tape,
                         Position start_head, int64_t block_size_mb,
                         const std::vector<uint32_t>& indices,
                         std::vector<Request>* pending, Sweep* sweep,
                         SweepScratch* scratch);

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_BUILDER_H_
