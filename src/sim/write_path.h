// Write path: disk-resident delta staging with piggybacked tape writeback
// (extension; paper §4 assumes "writes would be directed to disk-resident
// delta files, occasionally written to tape during idle time or piggybacked
// on the read schedule" — this module implements that machinery and lets
// the bench quantify its interference with reads).
//
// Writes complete instantly from the client's view: they land in a bounded
// disk buffer and dirty every tape position holding a live replica of the
// written block. Dirty data reaches tape three ways, each background work
// of the Simulator's one event loop:
//
//   * piggyback flush — when a read sweep on tape t finishes, the drive is
//     already positioned there: append a write pass over t's dirty
//     positions before the next reschedule;
//   * idle flush — with piggybacking on, when no reads are pending, mount
//     the dirtiest tape and clean it one block per quantum, so a read
//     arriving mid-flush waits for at most one block write;
//   * forced flush — when the buffer exceeds its capacity, reads wait
//     while the dirtiest tapes are cleaned (the interference the buffer is
//     meant to avoid).
//
// Tape writes draw no faults.

#ifndef TAPEJUKE_SIM_WRITE_PATH_H_
#define TAPEJUKE_SIM_WRITE_PATH_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "layout/catalog.h"
#include "sim/background.h"
#include "sim/drive_ops.h"
#include "tape/jukebox.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapejuke {

/// Write-path parameters (SimulationConfig::writes).
struct WritePathConfig {
  /// Mean interarrival time of write operations (Poisson, independent of
  /// the read stream). <= 0, the default, disables the write path.
  double mean_write_interarrival_seconds = 0.0;
  /// Fraction of writes directed to hot blocks (usually matches RH).
  double hot_write_fraction = 0.40;
  /// Disk staging capacity, in dirty tape-block updates. Exceeding it
  /// triggers forced flushes.
  int64_t buffer_capacity_blocks = 256;
  /// Append a write pass to the end of read sweeps, and clean the dirtiest
  /// tape whenever the drive is idle. Off leaves forced flushes only.
  bool piggyback = true;
  /// Piggyback only when the mounted tape has at least this many dirty
  /// updates — smaller batches are not worth the extra locates; they wait
  /// for more dirt or for an idle/forced flush.
  int64_t piggyback_min_blocks = 8;

  bool enabled() const { return mean_write_interarrival_seconds > 0; }

  Status Validate() const;
};

/// Observability for the write path.
struct WritePathStats {
  int64_t writes_accepted = 0;
  int64_t dirty_updates_created = 0;  ///< replica positions dirtied
  int64_t blocks_flushed = 0;
  int64_t piggyback_flushes = 0;  ///< flush passes appended to read sweeps
  int64_t idle_flushes = 0;  ///< idle flushes begun (one tape each)
  int64_t forced_flushes = 0;
  int64_t max_buffer_occupancy = 0;
  double write_seconds = 0;  ///< drive time spent locating + writing
};

/// The write path's policy and state: the write-arrival stream, the dirty
/// map and the staging buffer. One of the Simulator's background
/// components; it moves the drive only through the shared DriveOps.
class WritePath : public BackgroundWork {
 public:
  /// All pointers must outlive the write path. `seed` is the run's
  /// workload seed; the write stream draws from its own RNG derived from
  /// it, so reads are unaffected by the write rate.
  WritePath(const WritePathConfig& config, Jukebox* jukebox,
            const Catalog* catalog, DriveOps* ops, uint64_t seed);

  /// Stages every write arriving at or before `now`, in arrival order.
  void DeliverUpTo(double now);

  /// Tape with the most dirty updates, or kInvalidTape.
  TapeId DirtiestTape() const;

  /// Writes out all dirty positions of `tape`, which must be mounted when
  /// it has any, in one sweep from the head; returns the drive seconds.
  double FlushTape(TapeId tape);

  /// The lost media's dirt can never be written: dropped.
  void OnMediaLost(TapeId tape, BlockId block, bool whole_tape,
                   const std::vector<BlockId>& newly_masked,
                   double now) override;
  /// Stages the writes that arrived by the read's start.
  void AfterRead(const ServiceEntry& entry, double start,
                 double now) override;
  /// Over capacity: mounts the dirtiest tape and cleans it while reads wait.
  Quantum ForcedWork(double now) override;
  /// A sweep just drained: cleans the mounted tape when it holds at least
  /// piggyback_min_blocks dirty updates.
  double Piggyback(Boundary boundary, double now) override;
  /// `now` when an idle flush is due, else the next write arrival (which
  /// may overfill the buffer).
  double NextIdleWorkTime(double now) const override;
  /// The idle flush: mounts the dirtiest tape, then cleans it one block per
  /// quantum.
  Quantum IdleQuantum(double now) override;

  const WritePathStats& stats() const { return stats_; }

  /// Dirty updates currently staged.
  int64_t buffer_occupancy() const { return buffer_occupancy_; }

 private:
  /// Stages a write to `block`: dirties each of its live replicas.
  void AcceptWrite(BlockId block);

  /// Writes the next dirty position of the mounted `tape` in sweep order
  /// from the head (the first at or past it, else the highest below it)
  /// and adds its seconds to `*seconds`.
  void WriteNext(TapeId tape, double* seconds);

  WritePathConfig config_;
  Jukebox* jukebox_;
  const Catalog* catalog_;
  DriveOps* ops_;
  Rng rng_;
  double next_arrival_;

  std::map<TapeId, std::set<Position>> dirty_;
  int64_t buffer_occupancy_ = 0;
  /// The tape the idle flush in progress is cleaning.
  TapeId idle_tape_ = kInvalidTape;
  WritePathStats stats_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_WRITE_PATH_H_
