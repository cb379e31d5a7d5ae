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
                config.workload.model == QueuingModel::kClosed),
      ops_(jukebox, life_.faults(), &life_.fault_stats()) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(scheduler != nullptr);
  obs::TraceRecorder* recorder = life_.recorder();
  if (recorder != nullptr) scheduler_->set_decision_sink(recorder);
  if (config.faults.drive_mtbf_seconds > 0 && life_.faults() != nullptr) {
    drive_faults_ = true;
    next_drive_failure_ = life_.faults()->NextFailureGap();
  }
  if (config.repair.enabled() || config.fill.enabled()) {
    spare_.emplace(*jukebox_);
  }
  if (config.repair.enabled()) {  // Validate: repair implies faults
    repair_.emplace(config.repair, jukebox_, mutable_catalog, scheduler_,
                    &ops_, &*spare_);
    if (recorder != nullptr) repair_->set_recorder(recorder);
    background_.push_back(&*repair_);
  }
  if (config.writes.enabled()) {
    writes_.emplace(config.writes, jukebox_, catalog, &ops_,
                    config.workload.seed);
    background_.push_back(&*writes_);
  }
  if (config.fill.enabled()) {
    fill_.emplace(config.fill, config.duration_seconds, jukebox_,
                  mutable_catalog, &ops_, &*spare_);
    background_.push_back(&*fill_);
  }
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

void Simulator::LoseMedia(TapeId tape, BlockId block, bool whole_tape,
                          double now) {
  std::vector<BlockId> newly_masked;
  const bool masked =
      life_.MaskLostMedia(tape, block, whole_tape, &newly_masked);
  if (whole_tape) {
    // Every remaining sweep entry read this tape; drain them and fail each
    // request over to a surviving replica.
    for (const Request& request : scheduler_->DrainSweep()) {
      Requeue(request);
    }
  }
  if (masked || whole_tape) {
    for (BackgroundWork* work : background_) {
      work->OnMediaLost(tape, block, whole_tape, newly_masked, now);
    }
  }
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

void Simulator::IdleUntil(double time) {
  clock_ = time;
  life_.accounting().ChargeTo(0, obs::DriveActivity::kIdle, clock_);
  DeliverArrivalsUpTo(clock_, jukebox_->head());
  life_.MaybeMarkWarmup(clock_, jukebox_->counters());
}

void Simulator::RunQuantum(const BackgroundWork::Quantum& quantum) {
  if (quantum.mount_seconds > 0) {
    AdvanceDrive(quantum.mount_seconds, kBackground);
  }
  const bool lost = quantum.lost_tape != kInvalidTape;
  if (lost) {
    // Masked as of the read's end, before the arrivals it overlaps.
    LoseMedia(quantum.lost_tape, quantum.lost_block, quantum.lost_whole_tape,
              clock_ + quantum.seconds);
  }
  AdvanceDrive(quantum.seconds, kBackground);
  if (lost) EvictUnservable();
}

bool Simulator::RunForcedWork() {
  if (background_.empty()) return false;
  // A failed drive is repaired before it does anything else.
  AdvancePastDriveRepairs();
  for (BackgroundWork* work : background_) {
    const BackgroundWork::Quantum quantum = work->ForcedWork(clock_);
    if (quantum.ran()) {
      RunQuantum(quantum);
      return true;
    }
  }
  return false;
}

void Simulator::Piggyback(BackgroundWork::Boundary boundary) {
  for (BackgroundWork* work : background_) {
    const double seconds = work->Piggyback(boundary, clock_);
    if (seconds > 0) AdvanceDrive(seconds, kBackground);
  }
}

double Simulator::NextClientEvent() {
  if (!life_.closed()) return next_arrival_;
  const EventQueue<char>& thinking = life_.thinking();
  return thinking.empty() ? std::numeric_limits<double>::infinity()
                          : thinking.NextTime();
}

bool Simulator::RunIdleWork(double next_event) {
  BackgroundWork* due = nullptr;
  double next_work = std::numeric_limits<double>::infinity();
  for (BackgroundWork* work : background_) {
    const double time = work->NextIdleWorkTime(clock_);
    if (time < next_work) {
      next_work = time;
      due = work;
    }
  }
  const double duration = life_.config().duration_seconds;
  if (next_work <= clock_ && clock_ < duration) {
    RunQuantum(due->IdleQuantum(clock_));
    return true;
  }
  if (next_work < next_event && next_work <= duration) {
    // Background work is due before the next client event: wake for it
    // (e.g. a scrub pass, a refilled token bucket or a write arrival).
    IdleUntil(next_work);
    return true;
  }
  return false;
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
      if (RunForcedWork()) continue;
      if (!scheduler_->HasWork()) {
        // Step 4: the drive is idle. Background work uses it until the
        // next client event.
        const double next_event = NextClientEvent();
        if (RunIdleWork(next_event)) continue;
        // Wait for an arrival (or a thinking process to wake).
        if (next_event > config.duration_seconds) break;
        IdleUntil(next_event);
        continue;
      }
      // Step 1: major reschedule; step 2: switch if needed. A failed drive
      // must be repaired before it can work again, and staged background
      // writes for the mounted tape go before the schedule switches away.
      AdvancePastDriveRepairs();
      Piggyback(BackgroundWork::Boundary::kBeforeReschedule);
      if (recorder != nullptr) recorder->SetNow(clock_);
      const TapeId tape = scheduler_->MajorReschedule();
      TJ_CHECK_NE(tape, kInvalidTape)
          << "scheduler reported work but produced no schedule";
      life_.TraceSweepContents(scheduler_->sweep(), tape, clock_);
      SwitchBreakdown breakdown;
      const double switch_seconds = ops_.Mount(tape, &breakdown);
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
    read_segments_.clear();
    const DriveOps::BlockRead read =
        ops_.Read(jukebox_->drive(), entry->position, clock_,
                  jukebox_->mutable_counters(), &read_segments_);
    // Locate/read segments of every attempt, in temporal order.
    for (const auto& [activity, until] : read_segments_) {
      accounting.ChargeTo(0, activity, until);
    }
    const ReadOutcome& outcome = read.outcome;
    const double end = clock_ + read.seconds;
    // Arrivals during the operation see the head the drive is committed to.
    DeliverArrivalsUpTo(end, jukebox_->head());
    // Absorb any accumulation drift between the per-segment charges and
    // the read's seconds into the final reading segment.
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
      // over to surviving replicas (or fail them outright), then fail the
      // pending requests whose last replica just died.
      LoseMedia(jukebox_->mounted_tape(), entry->block, outcome.whole_tape,
                clock_);
      for (const Request& request : entry->requests) Requeue(request);
      EvictUnservable();
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
        repair_->OnSourceReadComplete(request.block);
        continue;
      }
      Route(life_.Complete(request, clock_), jukebox_->head());
    }
    for (BackgroundWork* work : background_) {
      work->AfterRead(*entry, read_start, clock_);
    }
    if (!background_.empty() && scheduler_->sweep_empty()) {
      // The sweep just drained and the drive is still on its tape: a
      // failed drive is repaired, then background work piggybacks.
      AdvancePastDriveRepairs();
      Piggyback(BackgroundWork::Boundary::kSweepDrained);
    }
  }
  // A run that ends before the warm-up boundary marks it at the final
  // counters, as MultiDriveSimulator does: nothing is measured.
  life_.MaybeMarkWarmup(std::numeric_limits<double>::infinity(),
                        jukebox_->counters());
  SimulationResult result = life_.Finish(clock_, jukebox_->counters());
  for (BackgroundWork* work : background_) work->Finish(clock_, &result);
  return result;
}

}  // namespace tapejuke
