// Background work of the single-drive Simulator. Scrub/repair
// (RepairManager), the write path's flushes (WritePath) and the §4.8
// replica fill (ReplicaFill) implement one interface; the Simulator's loop
// calls its hooks without knowing which kinds are engaged (one loop that
// picks one operation kind, the LTFS-DM shape). A hook that moves the
// drive does so through the shared DriveOps and returns the seconds; the
// Simulator advances the clock by them, delivering the arrivals they
// overlap. Idle work comes in quanta of at most one block, so a client
// arrival preempts it at the next block boundary; piggybacked batches and
// the forced flush stay whole, as policies.

#ifndef TAPEJUKE_SIM_BACKGROUND_H_
#define TAPEJUKE_SIM_BACKGROUND_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/sweep.h"
#include "tape/jukebox.h"
#include "util/check.h"

namespace tapejuke {

struct SimulationResult;

class BackgroundWork {
 public:
  /// One step of background drive time: an optional mount, then the work
  /// on the mounted tape, spent in that order.
  struct Quantum {
    double mount_seconds = 0;
    double seconds = 0;
    /// The step's read hit a permanent media error: the replica of
    /// `lost_block` on `lost_tape`, or the whole tape. The Simulator masks
    /// it as it does for a client read.
    TapeId lost_tape = kInvalidTape;
    BlockId lost_block = kInvalidBlock;
    bool lost_whole_tape = false;

    bool ran() const { return mount_seconds > 0 || seconds > 0; }
  };

  /// The sweep boundaries work may piggyback on the mounted tape at: after
  /// a client sweep's last read, and before the major reschedule.
  enum class Boundary { kSweepDrained, kBeforeReschedule };

  virtual ~BackgroundWork() = default;

  /// Media was masked dead: the replica of `block` on `tape`, or the whole
  /// tape (`newly_masked` then lists every block it took down).
  virtual void OnMediaLost(TapeId /*tape*/, BlockId /*block*/,
                           bool /*whole_tape*/,
                           const std::vector<BlockId>& /*newly_masked*/,
                           double /*now*/) {}
  /// A client read of `entry` that started at `start` completed at `now`.
  virtual void AfterRead(const ServiceEntry& /*entry*/, double /*start*/,
                         double /*now*/) {}
  /// Work that must run first once the sweep is empty (the write path's
  /// forced flush); a quantum that did not run() when none is due.
  virtual Quantum ForcedWork(double /*now*/) { return {}; }
  /// Piggybacks on the mounted tape at `boundary`; returns the seconds.
  virtual double Piggyback(Boundary boundary, double now) = 0;
  /// Earliest time >= `now` at which the idle drive has work here
  /// (+infinity when it has none).
  virtual double NextIdleWorkTime(double now) const = 0;
  /// One idle quantum: a mount, or at most one block of work.
  virtual Quantum IdleQuantum(double now) = 0;
  /// The run ended at `end`: closes this component's series and reports
  /// its counters in `result`.
  virtual void Finish(double /*end*/, SimulationResult* /*result*/) {}
};

/// The spare-slot ledger fill and repair share: each tape's empty slots,
/// ascending. The fill takes the highest (replicas go to the tape end,
/// §4.5), repair the lowest. A dead tape's slots are gone for good.
class SpareSlots {
 public:
  explicit SpareSlots(const Jukebox& jukebox)
      : slots_(static_cast<size_t>(jukebox.num_tapes())),
        dead_(static_cast<size_t>(jukebox.num_tapes()), 0) {
    for (TapeId t = 0; t < jukebox.num_tapes(); ++t) {
      const Tape& tape = jukebox.tape(t);
      for (int64_t slot = 0; slot < tape.num_slots(); ++slot) {
        if (tape.BlockAtSlot(slot) == kInvalidBlock) Of(t).push_back(slot);
      }
    }
  }

  int64_t free(TapeId tape) const {
    return static_cast<int64_t>(slots_[static_cast<size_t>(tape)].size());
  }
  bool dead(TapeId tape) const { return dead_[static_cast<size_t>(tape)]; }

  /// Take a free slot of `tape`, which must have one.
  int64_t TakeHighest(TapeId tape) {
    TJ_CHECK_GT(free(tape), 0);
    const int64_t slot = Of(tape).back();
    Of(tape).pop_back();
    return slot;
  }
  int64_t TakeLowest(TapeId tape) {
    TJ_CHECK_GT(free(tape), 0);
    const int64_t slot = Of(tape).front();
    Of(tape).erase(Of(tape).begin());
    return slot;
  }

  /// Returns an unused slot to `tape` (dropped when the tape is dead).
  void Release(TapeId tape, int64_t slot) {
    if (dead(tape)) return;
    Of(tape).insert(std::lower_bound(Of(tape).begin(), Of(tape).end(), slot),
                    slot);
  }

  /// `tape` was lost whole.
  void MarkDead(TapeId tape) {
    dead_[static_cast<size_t>(tape)] = 1;
    Of(tape).clear();
  }

 private:
  std::vector<int64_t>& Of(TapeId tape) {
    return slots_[static_cast<size_t>(tape)];
  }

  std::vector<std::vector<int64_t>> slots_;
  std::vector<uint8_t> dead_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_BACKGROUND_H_
