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
// (RepairManager), the write path's flushes (WritePath) and the §4.8
// replica fill (ReplicaFill) are BackgroundWork components the loop calls
// in a fixed order without knowing which kinds are engaged. Each
// background step delivers the arrivals it overlaps, is charged as
// background time and may cross the warm-up boundary, exactly like a
// read. Forced work (the write buffer is over capacity) runs before
// anything else once the sweep is empty; piggybacked work runs at the
// sweep boundaries (after a sweep's last read, before a major
// reschedule); idle work runs in step 4, one quantum at a time.
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
#include "sim/background.h"
#include "sim/drive_ops.h"
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

  /// Masks the media a permanent error destroyed (the replica of `block`
  /// on `tape`, or the whole tape), fails the rest of the sweep over when
  /// the tape died, and tells every background component at `now`.
  void LoseMedia(TapeId tape, BlockId block, bool whole_tape, double now);

  /// Spends `seconds` of drive time from the clock in `activity`: delivers
  /// the arrivals it overlaps, charges it and marks warm-up. Background
  /// work and drive repairs use it.
  void AdvanceDrive(double seconds, obs::DriveActivity activity);

  /// Idles the drive until `time` and delivers the arrivals up to it.
  void IdleUntil(double time);

  /// Spends a background quantum's mount, then its work; media its read
  /// lost is masked and the requests left unservable are evicted.
  void RunQuantum(const BackgroundWork::Quantum& quantum);

  /// Runs forced background work if any component has some due (the
  /// drive repaired first); returns whether it ran.
  bool RunForcedWork();

  /// Lets every component piggyback on the mounted tape at `boundary`.
  void Piggyback(BackgroundWork::Boundary boundary);

  /// The next arrival, or the next closed-model process wake-up.
  double NextClientEvent();

  /// Step 4 with background work: runs one idle quantum, or wakes for work
  /// due before `next_event`, the next client event. False when neither
  /// applies.
  bool RunIdleWork(double next_event);

  /// Lazily processes drive-failure epochs that the clock has passed: each
  /// charges an Exponential(MTTR) repair during which the drive is down
  /// (arrivals are still delivered). Called before the drive starts work.
  void AdvancePastDriveRepairs();

  Jukebox* jukebox_;
  Scheduler* scheduler_;
  /// The shared request lifecycle: metrics, recorder, timeline, faults,
  /// admission, deadlines and the closed model's processes.
  RequestLifecycle life_;
  /// The drive primitives every read, mount and background write uses.
  DriveOps ops_;
  /// The spare-slot ledger; engaged iff repair or the fill is.
  std::optional<SpareSlots> spare_;
  /// Engaged iff the config enables repair (which implies fault injection),
  /// writes or the fill (at most one of the three is).
  std::optional<RepairManager> repair_;
  std::optional<WritePath> writes_;
  std::optional<ReplicaFill> fill_;
  /// The engaged components, in the fixed order repair, writes, fill.
  std::vector<BackgroundWork*> background_;
  /// Time-in-state segments of the client read in flight.
  DriveSegments read_segments_;
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
