// The engine-independent half of a client request's life, shared by both
// jukebox engines: Simulator (the paper's one-drive box, §2.2) and
// MultiDriveSimulator (D drives over one tape pool). It covers
//
//   - arrival accounting: admission and shed, dead-on-arrival failure and
//     deadline tracking;
//   - settlement as completed, failed or expired, and the closed model's
//     reissue (think time, redrawing past dead blocks);
//   - the catalog bookkeeping after a permanent media error;
//   - run setup and finalisation: recorder, timeline, fault model,
//     admission, metrics and time-in-state accounting.
//
// Each engine keeps what differs: drive mechanics, its run loop, routing a
// request into its queues, pending-list eviction and repair. A call that
// admits or reissues a request returns it and the engine routes it, so the
// per-request path has no callback and no virtual call.

#ifndef TAPEJUKE_SIM_REQUEST_LIFECYCLE_H_
#define TAPEJUKE_SIM_REQUEST_LIFECYCLE_H_

#include <limits>
#include <optional>
#include <vector>

#include "layout/catalog.h"
#include "obs/recorder.h"
#include "obs/time_in_state.h"
#include "obs/timeline.h"
#include "sched/request.h"
#include "sched/sweep.h"
#include "sim/admission.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "sim/lifecycle.h"
#include "sim/metrics.h"
#include "sim/repair.h"
#include "sim/workload.h"
#include "sim/write_path.h"
#include "tape/jukebox.h"
#include "util/flat_hash.h"
#include "util/status.h"

namespace tapejuke {

/// Run-level simulation parameters.
struct SimulationConfig {
  /// Simulated wall-clock length of the run, seconds. (The paper uses 10M
  /// seconds; 2M gives the same curve shapes with tight enough confidence.)
  double duration_seconds = 2'000'000;
  /// Leading window excluded from all statistics.
  double warmup_seconds = 100'000;
  WorkloadConfig workload;
  /// Fault injection (all rates zero by default: nothing is injected and
  /// the run is bit-identical to a fault-free build). Enabling any rate
  /// requires constructing the Simulator with a mutable Catalog.
  FaultConfig faults;
  /// Background scrub and repair (disabled by default). Requires fault
  /// injection — without faults there is nothing to scrub for or repair.
  RepairConfig repair;
  /// Admission control / load shedding (disabled by default: every arrival
  /// is admitted and output is byte-identical to a build without the
  /// overload subsystem). Open model only.
  AdmissionConfig admission;
  /// Delta-staged writes with piggybacked, idle and forced flushing
  /// (disabled by default). Single-drive only.
  WritePathConfig writes;
  /// The §4.8 gradual replica fill and its per-epoch report (disabled by
  /// default). Single-drive only; requires the mutable-catalog
  /// constructor and no fault injection. At most one of writes, fill and
  /// repair may be enabled: each is background work for the same idle
  /// drive, and fill and repair would take the same spare slots.
  LifecycleConfig fill;
  /// Observability (disabled by default; never serialized into results
  /// JSON). When enabled the simulator owns a TraceRecorder, feeds it
  /// drive state slices / request lifecycles / scheduler decisions, and
  /// writes the configured files at the end of Run.
  obs::TraceConfig obs;
  /// Time-series telemetry (disabled by default; never serialized into
  /// results JSON). When enabled the simulator owns a TimelineSampler,
  /// samples every registered stat on a fixed simulated-time cadence, and
  /// writes one JSONL timeline at the end of Run. Results JSON stays
  /// byte-identical with the timeline on or off.
  obs::TimelineConfig timeline;

  Status Validate() const;
};

/// The shared request lifecycle. One per engine; it holds pointers into
/// itself (recorder, timeline probes), so it is neither copied nor moved.
class RequestLifecycle {
 public:
  /// `mutable_catalog` is `catalog` itself or null; fault injection needs
  /// it, because permanent media errors mask catalog replicas (TJ_CHECK).
  /// `closed` selects the closed model's reissue on settlement.
  RequestLifecycle(const Catalog* catalog, Catalog* mutable_catalog,
                   const SimulationConfig& config, int num_drives,
                   int64_t block_size_mb, bool closed);
  RequestLifecycle(const RequestLifecycle&) = delete;
  RequestLifecycle& operator=(const RequestLifecycle&) = delete;

  /// Engages the timeline and registers every probe, with the engine's own
  /// queue_depth, sweep_depth and repair_backlog gauges. No-op unless the
  /// timeline is enabled.
  void SetupTimeline(obs::StatRegistry::GaugeFn queue_depth,
                     obs::StatRegistry::GaugeFn sweep_depth,
                     obs::StatRegistry::GaugeFn repair_backlog);

  // Arrivals. Each returns the request the engine must route, or nullopt.

  /// An arrival at request.arrival_time: shed by admission control, or
  /// counted and delivered. A delivered request whose every replica is
  /// dead fails at once; otherwise its deadline is tracked.
  std::optional<Request> Arrive(const Request& request);

  /// Closed model: a process issues its next request at `now`, redrawing
  /// past blocks whose every replica is dead (each such draw counts as
  /// issued + failed, so conservation holds). Nullopt once the whole
  /// archive is lost.
  std::optional<Request> IssueClosed(double now);

  // Settlement of a client request at `now`. Each returns the closed
  // model's reissue for the engine to route: nullopt in the open model, or
  // while the issuing process thinks.

  /// Served: also counts a degraded read, feeds admission control and
  /// clears the deadline.
  std::optional<Request> Complete(const Request& request, double now);
  /// Completed with an error: every replica of its block is dead.
  std::optional<Request> Fail(const Request& request, double now);
  /// Its deadline passed before service.
  std::optional<Request> Expire(const Request& request, double now);

  /// A fault displaced `request` from its queue or read. Returns true when
  /// it still has a live replica: the failover is counted and the engine
  /// re-enqueues it. Otherwise it settles here — expired if its deadline
  /// already passed (its expiry event fired while it was committed, so
  /// re-enqueueing it would lose the expiry forever), else failed — and
  /// `*next` receives the reissue.
  bool FailOver(const Request& request, double now,
                std::optional<Request>* next);

  /// Masks the media a permanent error destroyed on `tape` — the whole
  /// tape, or the replica of `block` on it — and counts the error, the
  /// masked replicas and the blocks lost. A whole tape's newly masked
  /// blocks go to `*newly_masked`. Returns whether anything was masked.
  bool MaskLostMedia(TapeId tape, BlockId block, bool whole_tape,
                     std::vector<BlockId>* newly_masked);

  /// Time of the earliest expiry event; +infinity when there is none (as
  /// in every deadline-free run).
  double next_expiry() const {
    return expiries_.empty() ? std::numeric_limits<double>::infinity()
                             : expiries_.NextTime();
  }
  /// Pops the earliest expiry event. Returns false when its request has
  /// already settled (the calendar queue has no random deletion, so stale
  /// events are filtered here).
  bool PopExpiry();

  /// Marks the metrics warm-up boundary with `counters` the first time
  /// `now` reaches it.
  void MaybeMarkWarmup(double now, const JukeboxCounters& counters);

  /// Emits a "scheduled" trace instant for every request in `sweep`, just
  /// built for `tape`; no-op unless tracing.
  void TraceSweepContents(const Sweep& sweep, TapeId tape, double now);

  /// Closes the run at `end` with the final jukebox counters: finishes the
  /// time-in-state accounting, the metrics, the fault block, the timeline
  /// and the recorder. Telemetry output never fails the run.
  SimulationResult Finish(double end, const JukeboxCounters& counters);

  const SimulationConfig& config() const { return config_; }
  bool closed() const { return closed_; }
  WorkloadGenerator& workload() { return workload_; }
  const MetricsCollector& metrics() const { return metrics_; }
  obs::TimeInStateAccounting& accounting() { return accounting_; }
  /// Null unless config.obs is enabled.
  obs::TraceRecorder* recorder() {
    return recorder_.has_value() ? &*recorder_ : nullptr;
  }
  /// Null unless config.timeline is enabled.
  obs::TimelineSampler* timeline() {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }
  const obs::TimelineSampler* timeline() const {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }
  /// Null unless config.faults is enabled.
  FaultModel* faults() { return faults_.has_value() ? &*faults_ : nullptr; }
  FaultStats& fault_stats() { return fault_stats_; }
  /// Closed model with think time: wake-up instants of thinking processes.
  EventQueue<char>& thinking() { return thinking_; }

 private:
  /// Delivers a counted arrival: fails it when every replica of its block
  /// is dead, else tracks its deadline and returns it.
  std::optional<Request> DeliverOrFail(const Request& request);
  /// The settled request's process issues its next request: now, or after
  /// a think period (then nullopt). Nullopt in the open model.
  std::optional<Request> Reissue(double now);
  /// Live replicas / total replicas (1.0 for an empty catalog).
  double LiveReplicaFraction() const;

  const Catalog* catalog_;
  /// Non-null only when the engine was given a mutable catalog; required
  /// (and used) only when fault injection is enabled.
  Catalog* mutable_catalog_;
  SimulationConfig config_;
  bool closed_;
  WorkloadGenerator workload_;
  MetricsCollector metrics_;
  /// Always-on per-drive activity accounting; feeds
  /// SimulationResult::time_in_state/drive_utilization.
  obs::TimeInStateAccounting accounting_;
  /// Engaged iff config_.obs.enabled().
  std::optional<obs::TraceRecorder> recorder_;
  /// Engaged by SetupTimeline iff config_.timeline.enabled().
  std::optional<obs::TimelineSampler> timeline_;
  /// Engaged iff config_.faults.enabled().
  std::optional<FaultModel> faults_;
  FaultStats fault_stats_;
  /// Engaged iff config_.admission.enabled().
  std::optional<AdmissionController> admission_;
  /// Expiry events carry the request id; deadline_live_ holds the ids of
  /// requests with a deadline that have not settled yet. Deadline-free
  /// requests touch neither, so deadline-free runs make no extra queue or
  /// set operations.
  EventQueue<RequestId> expiries_;
  FlatSet<RequestId> deadline_live_;
  EventQueue<char> thinking_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_REQUEST_LIFECYCLE_H_
