#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace tapejuke {
namespace {
constexpr obs::DriveActivity kBackground = obs::DriveActivity::kBackground;
}  // namespace

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& config)
    : Simulator(jukebox, catalog, nullptr, scheduler, config, std::nullopt) {
}

Simulator::Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
                     const SimulationConfig& config)
    : Simulator(jukebox, catalog, catalog, scheduler, config, std::nullopt) {
}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& config,
                     std::vector<Request> trace)
    : Simulator(jukebox, catalog, nullptr, scheduler, config,
                std::move(trace)) {}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Catalog* mutable_catalog, Scheduler* scheduler,
                     const SimulationConfig& config,
                     std::optional<std::vector<Request>> trace)
    : jukebox_(jukebox),
      scheduler_(scheduler),
      life_(catalog, mutable_catalog, config, /*num_drives=*/1,
            jukebox->config().block_size_mb,
            /*closed=*/!trace.has_value() &&
                config.workload.model == QueuingModel::kClosed) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(scheduler != nullptr);
  obs::TraceRecorder* recorder = life_.recorder();
  if (recorder != nullptr) scheduler_->set_decision_sink(recorder);
  if (FaultModel* faults = life_.faults()) {
    if (config.faults.drive_mtbf_seconds > 0) {
      drive_faults_ = true;
      next_drive_failure_ = faults->NextFailureGap();
    }
    if (config.repair.enabled()) {
      repair_.emplace(config.repair, jukebox_, mutable_catalog, scheduler_,
                      faults, &life_.fault_stats());
      if (recorder != nullptr) repair_->set_recorder(recorder);
    }
  }
  if (config.writes.enabled()) {
    writes_.emplace(config.writes, jukebox_, catalog, config.workload.seed);
  }
  if (config.fill.enabled()) {
    fill_.emplace(config.fill, config.duration_seconds, jukebox_,
                  mutable_catalog);
  }
  after_read_ = writes_.has_value() || fill_.has_value();
  background_ = after_read_ || repair_.has_value();
  if (trace.has_value()) {
    trace_mode_ = true;
    trace_ = std::move(*trace);
    RequestId next_id = 0;
    double previous = 0;
    for (Request& request : trace_) {
      TJ_CHECK_GE(request.arrival_time, previous)
          << "trace arrivals must be time-ordered";
      previous = request.arrival_time;
      TJ_CHECK(request.block >= 0 && request.block < catalog->num_blocks())
          << "trace references unknown block" << request.block;
      request.id = next_id++;
    }
  }
  life_.SetupTimeline(
      [this] { return static_cast<double>(scheduler_->pending_size()); },
      [this] { return static_cast<double>(scheduler_->sweep_size()); },
      [this] {
        return repair_.has_value()
                   ? static_cast<double>(repair_->outstanding_tasks())
                   : 0.0;
      });
}

void Simulator::Route(const std::optional<Request>& request,
                      Position committed_head) {
  if (request.has_value()) scheduler_->OnArrival(*request, committed_head);
}

void Simulator::ProcessExpiriesUpTo(double until, Position committed_head) {
  obs::TimelineSampler* timeline = life_.timeline();
  while (life_.next_expiry() <= until) {
    const double time = life_.next_expiry();
    // Timeline samples due before this expiry read the queue state as it
    // was at their sample time, keeping rows in strict time order.
    if (timeline != nullptr) timeline->SampleUpTo(time);
    // Stale events (the request completed, failed, or was evicted by an
    // earlier sweep) are skipped; requests currently inside the active
    // sweep are left to finish and their event simply expires unused.
    if (!life_.PopExpiry()) continue;
    for (const Request& request : scheduler_->EvictExpired(time)) {
      Route(life_.Expire(request, time), committed_head);
    }
  }
  // This runs before every clock advance (each run-loop path delivers
  // arrivals up to its end time first), so sampling here covers the whole
  // run; a sample due exactly at `until` fires before that event settles.
  if (timeline != nullptr) timeline->SampleUpTo(until);
}

void Simulator::Requeue(const Request& request) {
  if (request.cls == RequestClass::kBackground) {
    // A displaced repair source read goes back to the repair manager,
    // which re-issues or abandons it; it never counts as a failover.
    if (repair_.has_value()) repair_->OnBackgroundDisplaced(request, clock_);
    return;
  }
  std::optional<Request> next;
  if (life_.FailOver(request, clock_, &next)) next = request;
  Route(next, jukebox_->head());
}

void Simulator::HandlePermanentError(const ServiceEntry& entry,
                                     bool whole_tape) {
  const TapeId tape = jukebox_->mounted_tape();
  std::vector<BlockId> newly_masked;
  const bool masked =
      life_.MaskLostMedia(tape, entry.block, whole_tape, &newly_masked);
  if (masked && writes_.has_value()) {
    writes_->OnMediaLost(tape, entry.block, whole_tape);
  }
  if (whole_tape) {
    // Every remaining sweep entry read this tape; drain them and fail each
    // request over to a surviving replica.
    for (const Request& request : scheduler_->DrainSweep()) {
      Requeue(request);
    }
    if (repair_.has_value()) repair_->OnTapeDead(tape, newly_masked, clock_);
  } else if (masked && repair_.has_value()) {
    repair_->OnReplicaDead(entry.block, tape, clock_);
  }
  // The requests this read was serving fail over (or fail outright).
  for (const Request& request : entry.requests) Requeue(request);
  // Pending requests whose last replica just died can never be served.
  EvictUnservable();
}

void Simulator::EvictUnservable() {
  for (const Request& request : scheduler_->EvictUnservablePending()) {
    if (request.cls == RequestClass::kBackground) {
      if (repair_.has_value()) repair_->OnBackgroundEvicted(request.block);
    } else {
      Route(life_.Fail(request, clock_), jukebox_->head());
    }
  }
}

void Simulator::AdvanceDrive(double seconds, obs::DriveActivity activity) {
  const double end = clock_ + seconds;
  DeliverArrivalsUpTo(end, jukebox_->head());
  clock_ = end;
  life_.accounting().ChargeTo(0, activity, clock_);
  life_.MaybeMarkWarmup(clock_, jukebox_->counters());
}

double Simulator::SwitchTo(TapeId tape, SwitchBreakdown* breakdown) {
  double seconds = jukebox_->SwitchTo(tape, breakdown);
  FaultModel* const faults = life_.faults();
  if (faults != nullptr && seconds > 0) {
    // Robot handoff faults: each slip repeats the robot move.
    const int slips = faults->NextRobotFaults();
    if (slips > 0) {
      const double extra = jukebox_->ChargeRobotRetries(slips);
      life_.fault_stats().robot_faults += slips;
      life_.fault_stats().robot_retry_seconds += extra;
      seconds += extra;
      breakdown->robot += extra;
    }
  }
  return seconds;
}

void Simulator::MountForBackground(TapeId tape) {
  SwitchBreakdown breakdown;
  AdvanceDrive(SwitchTo(tape, &breakdown), kBackground);
}

void Simulator::FlushDirtiest(WritePath::Flush reason) {
  const TapeId tape = writes_->DirtiestTape();
  MountForBackground(tape);
  AdvanceDrive(writes_->FlushTape(tape, reason), kBackground);
}

double Simulator::NextIdleWorkTime() const {
  if (repair_.has_value()) return repair_->NextIdleWorkTime(clock_);
  if (writes_.has_value()) return writes_->NextIdleWorkTime(clock_);
  return fill_->wants_more() && fill_->NeediestTape() != kInvalidTape
             ? clock_
             : std::numeric_limits<double>::infinity();
}

void Simulator::RunIdleWork() {
  if (repair_.has_value()) {
    // Each quantum is at most one block, so arrivals preempt scrub/repair
    // at block granularity.
    const RepairManager::Quantum quantum = repair_->IdleQuantum(clock_);
    AdvanceDrive(quantum.seconds, kBackground);
    if (quantum.masked_replicas) EvictUnservable();
  } else if (writes_.has_value()) {
    FlushDirtiest(WritePath::Flush::kIdle);
  } else {
    MountForBackground(fill_->NeediestTape());
    AdvanceDrive(fill_->FillMountedTape(clock_), kBackground);
  }
}

void Simulator::AfterRead(double read_start, const ServiceEntry& entry) {
  if (fill_.has_value()) {
    for (const Request& request : entry.requests) {
      fill_->OnCompletion(request.arrival_time, clock_);
    }
  } else {
    writes_->DeliverUpTo(read_start);
  }
  if (!scheduler_->sweep_empty()) return;
  // The sweep just drained and the drive is already on its tape: a
  // piggybacked flush or fill runs before the next reschedule.
  AdvancePastDriveRepairs();
  const double seconds =
      writes_.has_value()
          ? writes_->PiggybackFlush()
          : (fill_->wants_more() ? fill_->FillMountedTape(clock_) : 0.0);
  if (seconds > 0) AdvanceDrive(seconds, kBackground);
}

void Simulator::AdvancePastDriveRepairs() {
  if (!drive_faults_) return;
  // Failure epochs are processed lazily, when the drive next starts work:
  // each one the clock has passed charges a repair interval during which
  // the drive is down. Arrivals keep flowing while it is repaired.
  while (next_drive_failure_ <= clock_) {
    const double repair = life_.faults()->NextRepairTime();
    ++life_.fault_stats().drive_failures;
    life_.fault_stats().drive_repair_seconds += repair;
    AdvanceDrive(repair, obs::DriveActivity::kDown);
    next_drive_failure_ = clock_ + life_.faults()->NextFailureGap();
  }
}

void Simulator::DeliverArrivalsUpTo(double until, Position committed_head) {
  // Closed-model think-time expirations: the process issues its next
  // request when its think period ends.
  while (auto woken = life_.thinking().PopUntil(until)) {
    ProcessExpiriesUpTo(woken->first, committed_head);
    Route(life_.IssueClosed(woken->first), committed_head);
  }
  if (trace_mode_) {
    while (trace_pos_ < trace_.size() &&
           trace_[trace_pos_].arrival_time <= until) {
      const Request& request = trace_[trace_pos_++];
      ProcessExpiriesUpTo(request.arrival_time, committed_head);
      Route(life_.Arrive(request), committed_head);
    }
    next_arrival_ = trace_pos_ < trace_.size()
                        ? trace_[trace_pos_].arrival_time
                        : life_.config().duration_seconds + 1;
  } else if (life_.config().workload.model == QueuingModel::kOpen) {
    WorkloadGenerator& workload = life_.workload();
    while (next_arrival_ <= until) {
      ProcessExpiriesUpTo(next_arrival_, committed_head);
      Route(life_.Arrive(workload.NextRequest(next_arrival_)),
            committed_head);
      next_arrival_ += workload.NextArrivalGap(next_arrival_);
    }
  }
  ProcessExpiriesUpTo(until, committed_head);
}

SimulationResult Simulator::Run() {
  TJ_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;
  const SimulationConfig& config = life_.config();
  obs::TimeInStateAccounting& accounting = life_.accounting();
  EventQueue<char>& thinking = life_.thinking();
  FaultModel* const faults = life_.faults();
  FaultStats& fault_stats = life_.fault_stats();
  obs::TraceRecorder* const recorder = life_.recorder();
  const auto mark_warmup = [this] {
    life_.MaybeMarkWarmup(clock_, jukebox_->counters());
  };

  const bool closed = life_.closed();
  if (trace_mode_) {
    next_arrival_ = trace_.empty() ? config.duration_seconds + 1
                                   : trace_.front().arrival_time;
  } else if (closed) {
    // A fixed population of I/O-bound processes, all requesting at t = 0.
    for (int64_t i = 0; i < config.workload.queue_length; ++i) {
      Route(life_.IssueClosed(0.0), jukebox_->head());
    }
  } else {
    next_arrival_ = life_.workload().NextArrivalGap(0.0);
  }
  mark_warmup();

  while (clock_ < config.duration_seconds) {
    if (scheduler_->sweep_empty()) {
      if (writes_.has_value()) {
        // Forced flush: the staging buffer is over capacity; reads wait.
        writes_->DeliverUpTo(clock_);
        if (writes_->over_capacity()) {
          AdvancePastDriveRepairs();
          FlushDirtiest(WritePath::Flush::kForced);
          continue;
        }
      }
      if (!scheduler_->HasWork()) {
        // Step 4: the drive is idle. Background work uses it until the
        // next client event.
        if (background_) {
          AdvancePastDriveRepairs();
          const double next_event =
              closed ? (thinking.empty()
                            ? std::numeric_limits<double>::infinity()
                            : thinking.NextTime())
                     : next_arrival_;
          const double next_work = NextIdleWorkTime();
          if (next_work <= clock_ && clock_ < config.duration_seconds) {
            RunIdleWork();
            continue;
          }
          if (next_work < next_event &&
              next_work <= config.duration_seconds) {
            // Background work is due before the next client event: wake
            // for it (e.g. a scrub pass, a refilled token bucket or a
            // write arrival).
            clock_ = next_work;
            accounting.ChargeTo(0, obs::DriveActivity::kIdle, clock_);
            DeliverArrivalsUpTo(clock_, jukebox_->head());
            mark_warmup();
            continue;
          }
        }
        // Wait for an arrival (or a thinking process to wake).
        if (closed) {
          if (thinking.empty() ||
              thinking.NextTime() > config.duration_seconds) {
            break;
          }
          clock_ = thinking.NextTime();
          accounting.ChargeTo(0, obs::DriveActivity::kIdle, clock_);
          DeliverArrivalsUpTo(clock_, jukebox_->head());
          mark_warmup();
          continue;
        }
        if (next_arrival_ > config.duration_seconds) break;
        clock_ = next_arrival_;
        accounting.ChargeTo(0, obs::DriveActivity::kIdle, clock_);
        DeliverArrivalsUpTo(clock_, jukebox_->head());
        mark_warmup();
        continue;
      }
      // Step 1: major reschedule; step 2: switch if needed. A failed drive
      // must be repaired before it can work again.
      AdvancePastDriveRepairs();
      if (repair_.has_value()) {
        // Tape-switch boundary: flush staged repair writes targeting the
        // mounted tape before the schedule switches away from it.
        const double flush = repair_->AtSweepBoundary(clock_);
        if (flush > 0) AdvanceDrive(flush, kBackground);
      }
      if (recorder != nullptr) recorder->SetNow(clock_);
      const TapeId tape = scheduler_->MajorReschedule();
      TJ_CHECK_NE(tape, kInvalidTape)
          << "scheduler reported work but produced no schedule";
      life_.TraceSweepContents(scheduler_->sweep(), tape, clock_);
      SwitchBreakdown breakdown;
      const double switch_seconds = SwitchTo(tape, &breakdown);
      const double end = clock_ + switch_seconds;
      // During the switch the committed head is the post-load position.
      DeliverArrivalsUpTo(end, jukebox_->head());
      // Charge the switch components in temporal order (rewind, eject,
      // robot + retries, load); the final segment is charged to the
      // absolute end so the cursor tracks the clock exactly.
      double t = clock_ + breakdown.rewind;
      accounting.ChargeTo(0, obs::DriveActivity::kRewinding, t);
      t += breakdown.eject;
      accounting.ChargeTo(0, obs::DriveActivity::kSwitching, t);
      t += breakdown.robot;
      accounting.ChargeTo(0, obs::DriveActivity::kRobot, t);
      accounting.ChargeTo(0, obs::DriveActivity::kSwitching, end);
      clock_ = end;
      mark_warmup();
      continue;
    }

    // Step 3: execute the next service-list entry.
    AdvancePastDriveRepairs();
    const double read_start = clock_;
    const std::optional<ServiceEntry> entry = scheduler_->PopNext();
    TJ_CHECK(entry.has_value());
    ReadBreakdown read_breakdown;
    double op_seconds = jukebox_->ReadBlockAt(entry->position,
                                              &read_breakdown);
    // Locate/read segments of every attempt, in temporal order.
    double op_t = clock_ + read_breakdown.locate;
    accounting.ChargeTo(0, obs::DriveActivity::kLocating, op_t);
    op_t += read_breakdown.read;
    accounting.ChargeTo(0, obs::DriveActivity::kReading, op_t);
    ReadOutcome outcome;
    if (faults != nullptr) {
      outcome = faults->NextReadOutcome();
      // Each transient retry waits out its (jittered, exponentially
      // growing) backoff, then locates back to the block start and
      // re-reads. Backoff waits are charged as locating time.
      for (int r = 0; r < outcome.retries; ++r) {
        const double backoff = faults->NextRetryBackoff(r);
        if (backoff > 0) {
          op_seconds += backoff;
          op_t += backoff;
          accounting.ChargeTo(0, obs::DriveActivity::kLocating, op_t);
        }
        op_seconds += jukebox_->ReadBlockAt(entry->position,
                                            &read_breakdown);
        op_t += read_breakdown.locate;
        accounting.ChargeTo(0, obs::DriveActivity::kLocating, op_t);
        op_t += read_breakdown.read;
        accounting.ChargeTo(0, obs::DriveActivity::kReading, op_t);
      }
      fault_stats.transient_read_errors +=
          outcome.retries + (outcome.escalated ? 1 : 0);
      fault_stats.read_retries += outcome.retries;
      if (outcome.escalated) ++fault_stats.reads_escalated;
    }
    const double end = clock_ + op_seconds;
    // Arrivals during the operation see the head the drive is committed to.
    DeliverArrivalsUpTo(end, jukebox_->head());
    // Absorb any accumulation drift between the per-segment charges and
    // op_seconds into the final reading segment.
    accounting.ChargeTo(0, obs::DriveActivity::kReading, end);
    clock_ = end;
    mark_warmup();
    if (recorder != nullptr && outcome.retries > 0) {
      for (const Request& request : entry->requests) {
        recorder->RequestRetry(request.id, outcome.retries, clock_);
      }
    }

    if (outcome.permanent_error) {
      // The media under this read is gone: mask it and fail the requests
      // over to surviving replicas (or fail them outright).
      HandlePermanentError(*entry, outcome.whole_tape);
      continue;
    }

    for (const Request& request : entry->requests) {
      if (request.cls == RequestClass::kBackground) {
        // A repair source read finished: its payload is buffered. Not a
        // client completion — no metrics, no closed-model reissue.
        if (recorder != nullptr) {
          recorder->RequestDone(request.id, obs::RequestOutcome::kCompleted,
                                clock_);
        }
        repair_->OnSourceReadComplete(request.block, clock_);
        continue;
      }
      Route(life_.Complete(request, clock_), jukebox_->head());
    }
    if (after_read_) AfterRead(read_start, *entry);
  }
  // A run that ends before the warm-up boundary marks it at the final
  // counters, as MultiDriveSimulator does: nothing is measured.
  life_.MaybeMarkWarmup(std::numeric_limits<double>::infinity(),
                        jukebox_->counters());
  if (fill_.has_value()) fill_->FinishAt(clock_);
  SimulationResult result = life_.Finish(clock_, jukebox_->counters());
  if (repair_.has_value()) {
    result.repair_enabled = true;
    result.repair = repair_->Finalize();
  }
  return result;
}

}  // namespace tapejuke
