// Shared sweep-construction helper: extract the requests a tape visit will
// serve from a pending list and arrange them into a single sweep.
//
// Used by the single-drive Scheduler subclasses and by the multi-drive
// simulator extension.

#ifndef TAPEJUKE_SCHED_SWEEP_BUILDER_H_
#define TAPEJUKE_SCHED_SWEEP_BUILDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "layout/catalog.h"
#include "sched/request.h"
#include "sched/sweep.h"
#include "tape/types.h"
#include "util/check.h"

namespace tapejuke {

/// Stable counting sort of replicas by Replica::slot. A replica's position
/// is slot * block size, so this orders replicas by position without
/// comparisons, and items with equal slots keep their input order. Items
/// are keyed (group, slot); the group is a tape index when several
/// per-tape lists are sorted at once. Use: Reset, Count every item,
/// Offsets once per group, then Place the same items in the same order.
/// The buckets are kept (and zeroed by the next Reset), so a warm sort
/// does not allocate.
class SlotCountingSort {
 public:
  /// Starts a sort of `groups` groups with slots in [0, slots).
  void Reset(size_t groups, int64_t slots, int64_t block_size_mb);

  void Count(size_t group, const Replica& replica) {
    TJ_DCHECK(replica.position == replica.slot * block_size_mb_);
    TJ_DCHECK(replica.slot >= 0 && replica.slot < slots_);
    ++bucket_[Index(group, replica.slot)];
    lo_[group] = std::min(lo_[group], replica.slot);
    hi_[group] = std::max(hi_[group], replica.slot + 1);
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

  std::vector<uint32_t> bucket_;  ///< zero outside each group's [lo, hi)
  std::vector<int64_t> lo_;       ///< per group: lowest slot counted
  std::vector<int64_t> hi_;       ///< per group: one past the highest
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

/// Removes from `pending` every request with a replica on `tape` (when
/// `envelope_limit` is non-null, only replicas whose block end is within
/// it) and appends them to `sweep` as a single forward+reverse pass
/// starting from `start_head`. Requests for the same block share one
/// entry, in pending order; the requests left behind keep their order.
/// `sweep` must be empty on entry.
void ExtractSweepForTape(const Catalog& catalog, TapeId tape,
                         Position start_head, int64_t block_size_mb,
                         const Position* envelope_limit,
                         std::deque<Request>* pending, Sweep* sweep,
                         SweepScratch* scratch);

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_BUILDER_H_
