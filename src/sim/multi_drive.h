// Multi-drive jukebox simulation (extension; paper §2 names multi-drive
// scheduling as future work).
//
// One cabinet holds D drives, one robotic arm, and the shared tape pool.
// Drives serve a common pending list: when a drive's service list empties,
// a per-drive major reschedule picks a tape *not claimed by any other
// drive* with the usual tape-selection policies and extracts that tape's
// requests into the drive's sweep. Drive-local mechanics (rewind, eject,
// locate, read, load) proceed in parallel across drives, but the robot arm
// is a serialized resource: concurrent tape swaps queue on it. The dynamic
// incremental scheduler inserts arrivals into whichever drive's running
// sweep can still satisfy them.
//
// Scaling is sub-linear for three reasons the bench quantifies: robot
// contention, tape-claim conflicts (two drives cannot mount one tape), and
// the fragmentation of each tape's batch across more frequent visits.
//
// The engine-independent half of each request's life (arrival accounting,
// settlement, closed-model reissue, fault bookkeeping, telemetry setup and
// finalisation) lives in RequestLifecycle, shared with Simulator. This
// class keeps the drives, the robot arm, the event loop, the shared
// pending list and the dispatcher.

#ifndef TAPEJUKE_SIM_MULTI_DRIVE_H_
#define TAPEJUKE_SIM_MULTI_DRIVE_H_

#include <optional>
#include <utility>
#include <vector>

#include "layout/catalog.h"
#include "obs/time_in_state.h"
#include "sched/schedule_cost.h"
#include "sched/scheduler.h"
#include "sched/sweep.h"
#include "sched/sweep_builder.h"
#include "sim/drive_ops.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "sim/metrics.h"
#include "sim/request_lifecycle.h"
#include "tape/drive.h"
#include "tape/jukebox.h"
#include "util/status.h"

namespace tapejuke {

/// Multi-drive extension parameters.
struct MultiDriveConfig {
  int32_t num_drives = 2;
  TapePolicy policy = TapePolicy::kMaxBandwidth;
  /// Insert arrivals into running sweeps (the dynamic incremental rule).
  bool dynamic_insertion = true;
  SchedulerOptions options;

  /// Checks these parameters and the inputs of `sim` this engine cannot
  /// honour: scrub/repair, the write path, replica fill and closed-model
  /// think time are single-drive only. The constructors, the farm and the
  /// command-line tools all reject through this one check.
  Status Validate(const SimulationConfig& sim) const;
};

/// Extra observability for the multi-drive run.
struct MultiDriveStats {
  /// Seconds tape swaps spent queued waiting for the robot arm.
  double robot_wait_seconds = 0;
  /// Reschedule attempts that found work only on tapes claimed by other
  /// drives (the drive idled despite a non-empty pending list).
  int64_t claim_conflicts = 0;
};

/// Simulates D drives over one jukebox's tape pool.
class MultiDriveSimulator {
 public:
  /// `jukebox` supplies the tape pool, timing model, and layout geometry
  /// (its built-in single drive is unused). All pointers must outlive the
  /// simulator; `drives.Validate(sim)` must pass (TJ_CHECK). This overload
  /// is fault-free only: sim.faults must be disabled (permanent media
  /// errors mask catalog replicas, which needs the mutable-catalog
  /// overload below).
  MultiDriveSimulator(Jukebox* jukebox, const Catalog* catalog,
                      const MultiDriveConfig& drives,
                      const SimulationConfig& sim);

  /// Mutable-catalog overload: enables fault injection per sim.faults.
  /// Drive failures reroute queued and in-flight requests to surviving
  /// drives; permanent media errors mask replicas in `catalog`.
  MultiDriveSimulator(Jukebox* jukebox, Catalog* catalog,
                      const MultiDriveConfig& drives,
                      const SimulationConfig& sim);

  /// Runs to completion; call once.
  SimulationResult Run();

  const MultiDriveStats& stats() const { return stats_; }

  /// Raw metrics collector and cumulative activity counters, for callers
  /// that aggregate several runs into one result (the farm merges per-box
  /// collectors). Valid after Run.
  const MetricsCollector& metrics() const { return life_.metrics(); }
  const JukeboxCounters& counters() const { return counters_; }

  /// Buffered timeline rows/summary, for callers that merge per-box
  /// timelines (the farm). Null unless sim.timeline is enabled; valid
  /// after Run.
  const obs::TimelineSampler* timeline() const { return life_.timeline(); }

 private:
  /// Constructor body shared by both overloads (`mutable_catalog` is
  /// `catalog` or null).
  MultiDriveSimulator(Jukebox* jukebox, const Catalog* catalog,
                      Catalog* mutable_catalog,
                      const MultiDriveConfig& drives,
                      const SimulationConfig& sim);

  struct DriveState {
    explicit DriveState(const TimingModel* model) : unit(model) {}
    Drive unit;
    Sweep sweep;
    /// Tape this drive has claimed (mounted or switching to).
    TapeId claim = kInvalidTape;
    /// Head position after the in-flight operation completes.
    Position committed_head = 0;
    /// In-flight service entry (completions fire when the op ends).
    std::optional<ServiceEntry> in_flight;
    /// Fault draw for the in-flight read, processed at completion.
    ReadOutcome in_flight_outcome;
    /// Next failure epoch for this drive (meaningful only with drive
    /// faults enabled; processed lazily when the drive next acts).
    double next_failure = 0;
    bool busy = false;
    /// Time-in-state segments of the in-flight operation, in temporal
    /// order as (activity, absolute end time). Charged to the accounting
    /// when the operation's completion event fires — never before — so
    /// drive cursors never outrun the simulation clock and a run that
    /// ends mid-operation clips the charge at the final clock.
    DriveSegments pending_charge;
  };

  /// True if `tape` is claimed by any drive other than `self`.
  bool ClaimedElsewhere(TapeId tape, int self) const;

  /// Attempts to give idle drive `d` work at time `now`; schedules its
  /// next completion event if successful.
  void Dispatch(int d, double now);

  /// Starts the next sweep entry on drive `d` (sweep must be non-empty).
  void BeginNextRead(int d, double now);

  /// Routes a request the lifecycle admitted or reissued through the
  /// incremental rule; no-op for nullopt.
  void Route(const std::optional<Request>& request);

  /// Hands requests back to the shared pending list (a failover) or lets
  /// the lifecycle settle those it cannot serve.
  void Requeue(const std::vector<Request>& requests, double now);

  /// Fails every pending request whose last live replica is gone.
  void EvictUnservablePending(double now);

  /// Evicts every pending request whose deadline has passed (requests
  /// already extracted into a drive's sweep are committed and complete
  /// normally) and settles each as expired.
  void ExpirePendingPastDeadline(double now);

  /// Masks the media under drive `d`'s failed read and fails the affected
  /// requests over to surviving replicas.
  void HandlePermanentError(int d, const ServiceEntry& entry,
                            bool whole_tape, double now);

  /// Takes drive `d` down for an Exponential(MTTR) repair: voids its
  /// in-flight read, hands its sweep back to the pending list, and
  /// schedules the repair-complete event (payload num_drives + d).
  void FailDrive(int d, double now);

  /// Wakes every idle drive (called after arrivals and completions).
  void WakeIdleDrives(double now);

  /// Charges drive `d`'s pending time-in-state segments, each clipped at
  /// `limit`, and clears them.
  void FlushCharges(int d, double limit);

  Jukebox* jukebox_;
  const Catalog* catalog_;
  MultiDriveConfig drives_config_;
  /// The shared request lifecycle: metrics, recorder, timeline, faults,
  /// admission, deadlines and the closed model's processes.
  RequestLifecycle life_;
  DriveOps ops_;
  ScheduleCost cost_;
  CandidateBuilder candidate_builder_;
  SweepScratch sweep_scratch_;

  std::vector<DriveState> drives_;
  std::vector<Request> pending_;
  EventQueue<int> events_;  ///< payload: drive index
  double robot_free_at_ = 0;
  double clock_ = 0;
  double next_arrival_ = 0;
  bool ran_ = false;
  bool drive_faults_ = false;

  JukeboxCounters counters_;
  MultiDriveStats stats_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_MULTI_DRIVE_H_
