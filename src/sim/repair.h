// Self-healing replication: background scrub and repair with a bounded
// foreground impact (the TALICS-style scrub/rebuild loop applied to the
// paper's NR-replica layouts).
//
// The RepairManager closes the loop that fault injection opened. Permanent
// media errors mask catalog replicas dead; without repair that redundancy
// is lost for the rest of the run and latent errors are only discovered
// when a client read trips over them. With repair enabled the manager
//
//  * runs background **scrub** passes: sequential scans of one tape at a
//    time on the idle drive, reading every slot that still holds a live
//    replica. Scrub reads draw from the same fault-model stream as client
//    reads, so latent permanent errors surface before clients hit them —
//    and runs stay bit-identical at any --threads value;
//  * maintains a **repair queue**: each dead replica becomes a task that
//    re-replicates its block onto a tape with spare capacity. The block is
//    first read back from a surviving copy (a *background request* the
//    schedulers order strictly behind client work), then written
//    writeback-style — piggybacked on a mount the schedule already paid
//    for, or on the idle drive — and finally resurrected in the catalog
//    via Catalog::RepairReplica, which clears the dead mask in place;
//  * enforces a **foreground-impact budget**: a token bucket meters repair
//    and scrub I/O (MB tokens refilled at repair_bandwidth_mb_per_s), and
//    scrub/repair quanta are one block long, so any client arrival
//    preempts background work at the next block boundary.
//
// The manager only exists when RepairConfig::enabled(); repair requires
// fault injection, so fault-free runs carry zero repair code and stay
// byte-identical to pre-repair output.

#ifndef TAPEJUKE_SIM_REPAIR_H_
#define TAPEJUKE_SIM_REPAIR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "layout/catalog.h"
#include "obs/recorder.h"
#include "sched/scheduler.h"
#include "sim/background.h"
#include "sim/drive_ops.h"
#include "tape/jukebox.h"
#include "util/status.h"

namespace tapejuke {

/// Scrub/repair knobs. Defaults disable everything.
struct RepairConfig {
  /// Re-replicate dead replicas onto tapes with spare capacity. When
  /// false (with scrub on), scrub is detection-only: latent errors are
  /// surfaced and masked but nothing is rebuilt.
  bool enable_repair = false;
  /// Seconds between background scrub passes (one pass = one full scan of
  /// one tape). 0 disables scrubbing.
  double scrub_interval_seconds = 0.0;
  /// Token-bucket refill rate for scrub reads and repair writes, MB/s.
  /// 0 = unmetered.
  double repair_bandwidth_mb_per_s = 0.0;
  /// Token-bucket capacity, MB. Must cover at least one block when the
  /// rate is nonzero.
  double repair_burst_mb = 64.0;

  /// True when the manager has anything to do.
  bool enabled() const {
    return enable_repair || scrub_interval_seconds > 0.0;
  }

  Status Validate() const;
};

/// Counters for the scrub/repair machinery. Serialized by results_io only
/// for runs that had repair enabled.
struct RepairStats {
  int64_t scrub_passes = 0;        ///< completed full-tape scans
  int64_t scrub_mounts = 0;        ///< tape switches made for scrubbing
  int64_t scrub_blocks_read = 0;
  int64_t scrub_errors_detected = 0;  ///< permanent errors found by scrub
  double scrub_seconds = 0.0;      ///< drive time spent on scrub reads

  int64_t repairs_enqueued = 0;    ///< dead replicas that got a repair task
  int64_t repairs_completed = 0;   ///< replicas re-replicated + resurrected
  int64_t repairs_abandoned = 0;   ///< enqueued tasks dropped (source lost
                                   ///< or no target tape left)
  int64_t repairs_impossible = 0;  ///< dead replicas never enqueued (no
                                   ///< source or no spare capacity)
  int64_t source_reads = 0;        ///< background source reads completed
  int64_t repair_mounts = 0;       ///< tape switches made to flush writes
  double repair_write_seconds = 0.0;

  int64_t backlog_peak = 0;        ///< max outstanding repair tasks
  int64_t backlog_final = 0;       ///< outstanding tasks at end of run

  /// Time-to-re-protection: completion time minus replica death time,
  /// summed / maxed over completed repairs (mean = sum / completed).
  double reprotect_seconds_sum = 0.0;
  double reprotect_seconds_max = 0.0;
};

/// Drives scrub passes and replica re-replication for one single-drive
/// simulation run. One of the Simulator's background components; all hooks
/// are called from the simulation loop with the current simulated clock.
class RepairManager : public BackgroundWork {
 public:
  /// All pointers must outlive the manager. `catalog` is the mutable
  /// catalog faults mask into; `scheduler` receives background source
  /// reads; `ops` draws scrub reads from the run's fault stream; repair
  /// targets come from the shared `spare` ledger.
  RepairManager(const RepairConfig& config, Jukebox* jukebox,
                Catalog* catalog, Scheduler* scheduler, DriveOps* ops,
                SpareSlots* spare);

  /// Enqueues repair work for the masked replicas (by a client read or by
  /// scrub). A dead tape's reserved target slots are re-targeted first.
  void OnMediaLost(TapeId tape, BlockId block, bool whole_tape,
                   const std::vector<BlockId>& newly_masked,
                   double now) override;

  /// A background source read for `block` completed: its payload is now
  /// buffered and the block's staged writes may flush.
  void OnSourceReadComplete(BlockId block);

  /// A background request was displaced from a sweep by a fault. Re-issues
  /// the source read against a surviving replica, or abandons the block's
  /// tasks when none is left.
  void OnBackgroundDisplaced(const Request& request, double now);

  /// A background request was evicted: its block has no live replica.
  void OnBackgroundEvicted(BlockId block);

  /// At the tape-switch boundary, right before every major reschedule:
  /// flushes staged repair writes targeting the mounted tape while the
  /// token budget allows (piggybacked on a mount the client schedule
  /// already paid for). Returns drive seconds charged.
  double Piggyback(Boundary boundary, double now) override;

  /// Earliest time >= `now` at which IdleQuantum would have work to do
  /// (+infinity when it has none). The simulator only burns idle time on
  /// repair when this is at hand before the next arrival.
  double NextIdleWorkTime(double now) const override;

  /// One idle-drive work quantum: a single mount, scrub read, or repair
  /// write.
  Quantum IdleQuantum(double now) override;

  /// Fills backlog_final and reports the run's counters in `result`.
  void Finish(double end, SimulationResult* result) override;

  /// Repair tasks discovered but not yet completed (timeline backlog
  /// gauge).
  int64_t outstanding_tasks() const { return outstanding_tasks_; }

  /// Observability: attaches the run's trace recorder. The manager emits
  /// scheduler-track instants for scrub-pass completions and finished
  /// repairs, and opens lifecycle spans for its background source reads.
  /// Null (the default) disables all of it.
  void set_recorder(obs::TraceRecorder* recorder) { recorder_ = recorder; }

 private:
  /// One pending re-replication: the dead copy it replaces and the
  /// reserved target slot the new copy will be written to.
  struct RepairTask {
    TapeId dead_tape = kInvalidTape;
    double dead_at = 0.0;
    TapeId target_tape = kInvalidTape;
    int64_t target_slot = -1;
  };
  /// All repair state for one block. The source payload is read once and
  /// shared by every task of the block.
  struct BlockState {
    std::vector<RepairTask> tasks;
    bool source_outstanding = false;  ///< background read in the scheduler
    bool payload_buffered = false;    ///< source read done; writes may go
  };

  /// A replica of `block` on `tape` was newly masked dead. Enqueues a
  /// repair task when possible.
  void OnReplicaDead(BlockId block, TapeId tape, double now);

  /// Picks the target tape (most free slots; ties lowest id) and reserves
  /// its lowest free slot. Excludes dead tapes, tapes already holding a
  /// copy of the block, and tapes another task of this block already
  /// targets.
  bool ChooseTarget(BlockId block, RepairTask* task);

  /// Drops every task of `block` (its source is gone or no target fits).
  void AbandonBlock(BlockId block);

  /// Mints a background request for `block` and hands it to the scheduler.
  void RequestSourceRead(BlockId block, double now);

  /// Executes task `idx` of `block`: locates to the reserved slot, writes
  /// the block (charged like a read, the writeback idiom), resurrects the
  /// catalog entry, and retires the task. Returns drive seconds.
  double CompleteTask(BlockId block, size_t idx, double now);

  /// First staged task targeting `tape` (map order), if any.
  bool FindStaged(TapeId tape, BlockId* block, size_t* idx) const;
  /// Target tape with the most staged blocks (ties lowest id), or
  /// kInvalidTape when nothing is staged.
  TapeId BestStagedTarget() const;

  /// One scrub step on the mounted scrub tape: reads the next live slot
  /// (reporting a permanent error in the quantum), or completes the pass.
  Quantum ScrubStep(double now);
  /// The first slot at or after `from` holding a live replica on tape `t`
  /// (its slot count when none does).
  int64_t NextLiveSlot(TapeId t, int64_t from) const;
  /// Starts a pass on the next round-robin tape with live data, if due.
  void MaybeStartScrubPass(double now);

  // Token bucket over MB of background I/O.
  double TokensAt(double now) const;
  void SpendTokens(double now, double mb);
  double TokenReadyTime(double now, double mb) const;

  RepairConfig config_;
  Jukebox* jukebox_;
  Catalog* catalog_;
  Scheduler* scheduler_;
  DriveOps* ops_;
  SpareSlots* spare_;
  obs::TraceRecorder* recorder_ = nullptr;
  RepairStats stats_;

  int64_t block_mb_;
  RequestId next_background_id_ = kBackgroundIdBase;
  int64_t outstanding_tasks_ = 0;

  /// Per-block repair state, deterministic iteration order.
  std::map<BlockId, BlockState> tasks_;

  // Scrub state.
  double next_scrub_due_ = 0.0;
  TapeId scrub_cursor_ = 0;             ///< next tape to consider
  TapeId scrub_tape_ = kInvalidTape;    ///< pass in progress
  int64_t scrub_slot_ = 0;              ///< next slot of the pass

  // Token bucket.
  double tokens_ = 0.0;
  double token_time_ = 0.0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_REPAIR_H_
