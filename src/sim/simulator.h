// The jukebox simulator: drives a Scheduler through the paper's four-step
// service model (§2.2) under a closed- or open-queuing workload.
//
//   1. When the service list is empty, invoke the major rescheduler, which
//      picks a tape and builds the retrieval sweep from the pending list.
//   2. Switch to the selected tape if it is not already mounted.
//   3. Execute the service list entry by entry; requests arriving during
//      execution go to the incremental scheduler, which may insert them
//      into the running sweep or defer them. The head stays where the last
//      block finished; the next major reschedule decides about rewinds.
//   4. When nothing is pending, wait for an arrival (open model).
//
// Background work shares the drive through the same loop: scrub/repair
// quanta, the write path's flushes (WritePath) and the §4.8 replica fill
// (ReplicaFill). Each background operation delivers the arrivals it
// overlaps, is charged as background time and may cross the warm-up
// boundary, exactly like a read. Piggybacked flushes and fills run right
// after the completions of a sweep's last entry, idle ones in step 4, and
// a forced flush (the write buffer is over capacity) before anything else
// once the sweep is empty.
//
// Arrivals that occur while a locate/read/switch is in flight are delivered
// at their exact timestamps with the *committed head* — the head position
// the drive will have when the in-flight operation completes — so the
// incremental scheduler can only insert work that is still genuinely ahead.
//
// The engine-independent half of each request's life (arrival accounting,
// settlement, closed-model reissue, fault bookkeeping, telemetry setup and
// finalisation) lives in RequestLifecycle, shared with MultiDriveSimulator.
// This class keeps the drive mechanics, the run loop, routing through the
// Scheduler, trace replay and the background work.

#ifndef TAPEJUKE_SIM_SIMULATOR_H_
#define TAPEJUKE_SIM_SIMULATOR_H_

#include <optional>
#include <vector>

#include "layout/catalog.h"
#include "sched/scheduler.h"
#include "sim/lifecycle.h"
#include "sim/metrics.h"
#include "sim/repair.h"
#include "sim/request_lifecycle.h"
#include "sim/write_path.h"
#include "tape/jukebox.h"

namespace tapejuke {

/// Single-jukebox, single-drive discrete-event simulator.
class Simulator {
 public:
  /// All pointers must outlive the simulator. The jukebox must already hold
  /// the layout the catalog describes. This overload cannot mutate the
  /// catalog, so `config.faults` and `config.fill` must be disabled
  /// (TJ_CHECK).
  Simulator(Jukebox* jukebox, const Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config);

  /// Mutable-catalog overload: required when `config.faults` or
  /// `config.fill` is enabled (permanent media errors mask replicas dead in
  /// the catalog; the fill adds replicas to it).
  Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config);

  /// Trace-replay constructor: arrivals come verbatim from `trace`
  /// (ascending arrival times; request ids are reassigned sequentially)
  /// instead of the configured arrival process. The workload model is
  /// treated as open queuing.
  Simulator(Jukebox* jukebox, const Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config, std::vector<Request> trace);

  /// Runs the simulation to completion and returns steady-state metrics.
  /// Call at most once per Simulator instance.
  SimulationResult Run();

  /// Raw metrics collector, for callers that aggregate several runs into
  /// one result (the farm merges per-box collectors). Valid after Run.
  const MetricsCollector& metrics() const { return life_.metrics(); }

  /// Buffered timeline rows/summary, for callers that merge per-box
  /// timelines (the farm). Null unless config.timeline is enabled; valid
  /// after Run.
  const obs::TimelineSampler* timeline() const { return life_.timeline(); }

  /// The write path; null unless config.writes is enabled.
  const WritePath* writes() const {
    return writes_.has_value() ? &*writes_ : nullptr;
  }

  /// The replica fill and its per-epoch series (complete after Run); null
  /// unless config.fill is enabled.
  const ReplicaFill* fill() const {
    return fill_.has_value() ? &*fill_ : nullptr;
  }

 private:
  /// The shared body of the public constructors. `mutable_catalog` is
  /// `catalog` or null; `trace` is engaged for trace replay.
  Simulator(Jukebox* jukebox, const Catalog* catalog,
            Catalog* mutable_catalog, Scheduler* scheduler,
            const SimulationConfig& config,
            std::optional<std::vector<Request>> trace);

  /// Hands a request the lifecycle admitted or reissued to the scheduler.
  void Route(const std::optional<Request>& request, Position committed_head);

  /// Delivers every arrival with timestamp <= `until` to the incremental
  /// scheduler, interleaved in time order with deadline-expiry events so
  /// the outstanding-population integral stays exact.
  void DeliverArrivalsUpTo(double until, Position committed_head);

  /// Pops every expiry event with timestamp <= `until` and evicts the
  /// queued requests whose deadline has passed.
  void ProcessExpiriesUpTo(double until, Position committed_head);

  /// Re-enqueues a request displaced by a fault onto a surviving replica,
  /// or settles it. Background requests route back to the repair manager
  /// instead.
  void Requeue(const Request& request);

  /// Evicts now-unservable queued requests: client requests fail, repair
  /// source reads are handed back to the repair manager.
  void EvictUnservable();

  /// Masks the media lost by a permanent error during the read of `entry`
  /// on the mounted tape and fails over every displaced request.
  void HandlePermanentError(const ServiceEntry& entry, bool whole_tape);

  /// Spends `seconds` of drive time from the clock in `activity`: delivers
  /// the arrivals it overlaps, charges it and marks warm-up. Background
  /// work and drive repairs use it.
  void AdvanceDrive(double seconds, obs::DriveActivity activity);

  /// Switches the drive to `tape`; with fault injection each robot slip
  /// repeats the robot move (added to the seconds and `breakdown->robot`).
  double SwitchTo(TapeId tape, SwitchBreakdown* breakdown);

  /// Mounts `tape` for background work (a switch, run as background).
  void MountForBackground(TapeId tape);

  /// Mounts the dirtiest tape and cleans it.
  void FlushDirtiest(WritePath::Flush reason);

  /// Earliest time >= clock_ at which the idle drive has background work.
  double NextIdleWorkTime() const;

  /// Runs one idle background operation: a scrub/repair quantum, an idle
  /// flush or an idle fill.
  void RunIdleWork();

  /// After a client read that started at `read_start`: stages the writes
  /// that arrived by then, feeds the fill's epoch series, and piggybacks a
  /// flush or fill when the sweep just drained.
  void AfterRead(double read_start, const ServiceEntry& entry);

  /// Lazily processes drive-failure epochs that the clock has passed: each
  /// charges an Exponential(MTTR) repair during which the drive is down
  /// (arrivals are still delivered). Called before the drive starts work.
  void AdvancePastDriveRepairs();

  Jukebox* jukebox_;
  Scheduler* scheduler_;
  /// The shared request lifecycle: metrics, recorder, timeline, faults,
  /// admission, deadlines and the closed model's processes.
  RequestLifecycle life_;
  /// Engaged iff the config enables repair (which implies fault injection).
  std::optional<RepairManager> repair_;
  /// Engaged iff config.writes / config.fill is enabled (at most one of
  /// the three background components is).
  std::optional<WritePath> writes_;
  std::optional<ReplicaFill> fill_;
  /// Any background component is engaged (step 4 consults it).
  bool background_ = false;
  /// Writes or fill is engaged: AfterRead runs after every client read.
  bool after_read_ = false;
  double next_drive_failure_ = 0;  ///< absolute time; only with MTBF > 0
  bool drive_faults_ = false;

  double clock_ = 0;
  double next_arrival_ = 0;  ///< open model and trace replay
  bool ran_ = false;

  bool trace_mode_ = false;
  std::vector<Request> trace_;
  size_t trace_pos_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_SIMULATOR_H_
