// Drive primitives shared by both jukebox engines and every background
// component: a mount whose robot handoffs may slip, a block read through
// the FaultModel (transient retries with their backoff) and a block write.
// Each returns the drive seconds it took and leaves the clock to its
// caller. The fault draws happen here and nowhere else, so every read and
// mount in a run draws from the fault stream the same way.

#ifndef TAPEJUKE_SIM_DRIVE_OPS_H_
#define TAPEJUKE_SIM_DRIVE_OPS_H_

#include <utility>
#include <vector>

#include "obs/time_in_state.h"
#include "sim/fault_model.h"
#include "tape/jukebox.h"

namespace tapejuke {

/// Time-in-state segments of drive work in temporal order, as (activity,
/// absolute end time).
using DriveSegments = std::vector<std::pair<obs::DriveActivity, double>>;

class DriveOps {
 public:
  /// Acts on `jukebox`'s drive. Null `faults` (fault injection off) make
  /// no draws; otherwise `fault_stats` counts what they find.
  DriveOps(Jukebox* jukebox, FaultModel* faults, FaultStats* fault_stats);

  /// Draws and counts the robot handoff slips of one tape switch (0
  /// without faults); each repeats the robot move.
  int DrawRobotSlips();

  /// Switches the jukebox drive to `tape`, charging each robot slip as one
  /// more robot move (in `breakdown->robot` too). 0 when already mounted.
  double Mount(TapeId tape, SwitchBreakdown* breakdown = nullptr);

  struct BlockRead {
    double seconds = 0;
    ReadOutcome outcome;
  };

  /// Reads the block at `position` on `drive` from `start`: a locate and a
  /// read, the fault draw, then per transient retry its backoff wait
  /// (charged as locating), a locate back and a re-read. Each attempt is
  /// added to `counters` and each segment to `segments` when non-null.
  BlockRead Read(Drive& drive, Position position, double start,
                 JukeboxCounters* counters, DriveSegments* segments);

  /// Writes one block at `position` on the jukebox drive, adding the locate
  /// and then the block (priced like a read) to `*seconds`. Writes draw no
  /// faults and count as no read.
  void Write(Position position, double* seconds);

 private:
  Jukebox* jukebox_;
  FaultModel* faults_;
  FaultStats* fault_stats_;
  int64_t block_mb_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_DRIVE_OPS_H_
