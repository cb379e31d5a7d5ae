#include "sim/multi_drive.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/check.h"

namespace tapejuke {

namespace {

// Removes from `pending` and returns, both in their original order, the
// requests that match `pred`.
template <typename Pred>
std::vector<Request> TakeIf(std::vector<Request>* pending, Pred pred) {
  std::vector<Request> taken;
  std::vector<Request> keep;
  for (const Request& request : *pending) {
    (pred(request) ? taken : keep).push_back(request);
  }
  pending->swap(keep);
  return taken;
}

}  // namespace

Status MultiDriveConfig::Validate(const SimulationConfig& sim) const {
  if (num_drives < 1) {
    return Status::InvalidArgument("need at least one drive");
  }
  if (sim.repair.enabled()) {
    return Status::InvalidArgument(
        "scrub/repair is single-drive only; use one drive");
  }
  if (sim.writes.enabled() || sim.fill.enabled()) {
    return Status::InvalidArgument(
        "the write path and replica fill are single-drive only; use one "
        "drive");
  }
  if (sim.workload.think_time_seconds > 0) {
    return Status::InvalidArgument(
        "closed-model think time is single-drive only; use one drive");
  }
  return Status::Ok();
}

MultiDriveSimulator::MultiDriveSimulator(Jukebox* jukebox,
                                         const Catalog* catalog,
                                         const MultiDriveConfig& drives,
                                         const SimulationConfig& sim)
    : MultiDriveSimulator(jukebox, catalog, nullptr, drives, sim) {}

MultiDriveSimulator::MultiDriveSimulator(Jukebox* jukebox, Catalog* catalog,
                                         const MultiDriveConfig& drives,
                                         const SimulationConfig& sim)
    : MultiDriveSimulator(jukebox, catalog, catalog, drives, sim) {}

MultiDriveSimulator::MultiDriveSimulator(Jukebox* jukebox,
                                         const Catalog* catalog,
                                         Catalog* mutable_catalog,
                                         const MultiDriveConfig& drives,
                                         const SimulationConfig& sim)
    : jukebox_(jukebox),
      catalog_(catalog),
      drives_config_(drives),
      life_(catalog, mutable_catalog, sim, drives.num_drives,
            jukebox->config().block_size_mb,
            /*closed=*/sim.workload.model == QueuingModel::kClosed),
      ops_(jukebox, life_.faults(), &life_.fault_stats()),
      cost_(&jukebox->model(), jukebox->config().block_size_mb) {
  TJ_CHECK(jukebox != nullptr);
  const Status status = drives.Validate(sim);
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK_LE(drives.num_drives, jukebox->num_tapes())
      << "more drives than tapes is pointless";
  drives_.reserve(static_cast<size_t>(drives.num_drives));
  for (int32_t d = 0; d < drives.num_drives; ++d) {
    drives_.emplace_back(&jukebox->model());
  }
  if (FaultModel* faults = life_.faults();
      faults != nullptr && sim.faults.drive_mtbf_seconds > 0) {
    drive_faults_ = true;
    // Epochs drawn in drive order so the fault stream is deterministic.
    for (DriveState& ds : drives_) {
      ds.next_failure = faults->NextFailureGap();
    }
  }
  life_.SetupTimeline(
      [this] { return static_cast<double>(pending_.size()); },
      [this] {
        size_t depth = 0;
        for (const DriveState& ds : drives_) depth += ds.sweep.size();
        return static_cast<double>(depth);
      },
      // Scrub/repair is single-drive only; the gauge stays so the schema
      // is uniform across engines.
      [] { return 0.0; });
}

bool MultiDriveSimulator::ClaimedElsewhere(TapeId tape, int self) const {
  for (size_t d = 0; d < drives_.size(); ++d) {
    if (static_cast<int>(d) != self && drives_[d].claim == tape) {
      return true;
    }
  }
  return false;
}

void MultiDriveSimulator::BeginNextRead(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  std::optional<ServiceEntry> entry = ds.sweep.Pop();
  TJ_CHECK(entry.has_value());
  const DriveOps::BlockRead read = ops_.Read(
      ds.unit, entry->position, now, &counters_, &ds.pending_charge);
  const ReadOutcome& outcome = read.outcome;
  const double end = now + read.seconds;
  // Absorb accumulation drift between the per-segment sums and the read's
  // seconds into the final reading segment, so the flush lands exactly on
  // the completion event's timestamp.
  ds.pending_charge.back().second = end;
  obs::TraceRecorder* const recorder = life_.recorder();
  if (recorder != nullptr && outcome.retries > 0) {
    for (const Request& request : entry->requests) {
      recorder->RequestRetry(request.id, outcome.retries, end);
    }
  }
  ds.committed_head = ds.unit.head();
  ds.in_flight = std::move(entry);
  ds.in_flight_outcome = outcome;
  ds.busy = true;
  events_.Schedule(end, d);
}

void MultiDriveSimulator::Dispatch(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  if (ds.busy) return;
  // The gap since the drive's last charged activity was spent idle.
  life_.accounting().ChargeTo(d, obs::DriveActivity::kIdle, now);
  if (drive_faults_ && ds.next_failure <= now) {
    // A failure epoch the clock has passed is charged lazily, when the
    // drive next acts (mirrors the single-drive simulator).
    FailDrive(d, now);
    return;
  }
  if (!ds.sweep.empty()) {
    BeginNextRead(d, now);
    return;
  }
  if (pending_.empty()) return;

  // Candidates over unclaimed tapes only.
  const int32_t num_tapes = jukebox_->num_tapes();
  candidate_builder_.Begin(*jukebox_);
  bool saw_claimed_work = false;
  const RequestId oldest = pending_.front().id;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Request& request = pending_[i];
    for (const Replica& replica : catalog_->ReplicasOf(request.block)) {
      if (!catalog_->IsAlive(replica)) continue;
      if (ClaimedElsewhere(replica.tape, d)) {
        saw_claimed_work = true;
        continue;
      }
      candidate_builder_.Add(replica, request.id == oldest,
                             static_cast<uint32_t>(i));
    }
  }
  const std::vector<TapeCandidate>& candidates = candidate_builder_.Finish();
  const TapeId mounted = ds.unit.loaded_tape();
  const TapeId tape = SelectTape(drives_config_.policy, candidates, mounted,
                                 ds.unit.head(), num_tapes, cost_);
  if (tape == kInvalidTape) {
    // Work exists but only on tapes other drives hold: idle until a claim
    // releases (WakeIdleDrives retries after every event).
    if (saw_claimed_work) ++stats_.claim_conflicts;
    return;
  }

  if (obs::TraceRecorder* const recorder = life_.recorder()) {
    // The dispatcher selects tapes itself, so it builds the decision
    // record itself instead of going through a Scheduler.
    obs::DecisionRecord record;
    record.scheduler =
        std::string("multi-drive ") + TapePolicyName(drives_config_.policy);
    record.drive = d;
    record.chosen = tape;
    record.mounted = mounted;
    record.pending = static_cast<int64_t>(pending_.size());
    ScoreCandidates(candidates, mounted, ds.unit.head(), cost_, &record);
    recorder->SetNow(now);
    recorder->RecordDecision(record);
  }

  const Position start_head = (tape == mounted) ? ds.unit.head() : 0;
  const std::vector<uint32_t>& chosen =
      candidates[static_cast<size_t>(tape)].requests;
  TJ_DCHECK(chosen == PendingOnTape(*catalog_, tape,
                                    jukebox_->config().block_size_mb,
                                    /*envelope_limit=*/nullptr, pending_));
  ExtractSweepForTape(*catalog_, tape, start_head,
                      jukebox_->config().block_size_mb, chosen, &pending_,
                      &ds.sweep, &sweep_scratch_);
  TJ_CHECK(!ds.sweep.empty());
  ds.claim = tape;
  life_.TraceSweepContents(ds.sweep, tape, now);

  if (tape == mounted) {
    ds.committed_head = ds.unit.head();
    BeginNextRead(d, now);
    return;
  }

  // Tape switch: drive-local rewind + eject run in parallel with other
  // drives; the robot arm swap is serialized; the load is drive-local.
  double local_done = now;
  if (ds.unit.has_tape()) {
    const double rewind = ds.unit.Rewind();
    counters_.rewind_seconds += rewind;
    const double eject = ds.unit.Eject();
    counters_.switch_seconds += eject;
    ds.pending_charge.emplace_back(obs::DriveActivity::kRewinding,
                                   now + rewind);
    local_done += rewind + eject;
    ds.pending_charge.emplace_back(obs::DriveActivity::kSwitching,
                                   local_done);
  }
  const double robot_start = std::max(local_done, robot_free_at_);
  stats_.robot_wait_seconds += robot_start - local_done;
  const double robot_seconds = jukebox_->model().params().robot_seconds;
  double robot_busy = robot_seconds;
  // Robot handoff faults: each slip repeats the robot move, extending the
  // serialized arm occupancy other drives queue behind.
  if (const int slips = ops_.DrawRobotSlips(); slips > 0) {
    const double extra = slips * robot_seconds;
    counters_.switch_seconds += extra;
    robot_busy += extra;
  }
  robot_free_at_ = robot_start + robot_busy;
  counters_.switch_seconds += robot_seconds;
  const double load = ds.unit.Load(tape);
  counters_.switch_seconds += load;
  ++counters_.tape_switches;
  // The robot state covers both the queue wait and the (possibly
  // fault-extended) serialized arm occupancy; the drive-local load is a
  // switching segment ending exactly on the completion event.
  ds.pending_charge.emplace_back(obs::DriveActivity::kRobot, robot_free_at_);
  ds.pending_charge.emplace_back(obs::DriveActivity::kSwitching,
                                 robot_free_at_ + load);
  ds.committed_head = 0;
  ds.busy = true;
  events_.Schedule(robot_free_at_ + load, d);
}

void MultiDriveSimulator::Route(const std::optional<Request>& request) {
  if (!request.has_value()) return;
  if (drives_config_.dynamic_insertion) {
    for (DriveState& ds : drives_) {
      if (ds.sweep.empty() || ds.claim == kInvalidTape) continue;
      const Replica* replica =
          catalog_->LiveReplicaOn(request->block, ds.claim);
      if (replica != nullptr &&
          ds.sweep.InsertRequest(*request, replica->position,
                                 ds.committed_head,
                                 drives_config_.options
                                     .allow_reverse_phase)) {
        return;
      }
    }
  }
  pending_.push_back(*request);
}

void MultiDriveSimulator::Requeue(const std::vector<Request>& requests,
                                  double now) {
  for (const Request& request : requests) {
    std::optional<Request> next;
    if (life_.FailOver(request, now, &next)) {
      pending_.push_back(request);
    } else {
      Route(next);
    }
  }
}

// Both settle after the removal: closed-model regeneration pushes into
// pending_.
void MultiDriveSimulator::EvictUnservablePending(double now) {
  for (const Request& request : TakeIf(&pending_, [this](const Request& r) {
         return !catalog_->HasLiveReplica(r.block);
       })) {
    Route(life_.Fail(request, now));
  }
}

void MultiDriveSimulator::ExpirePendingPastDeadline(double now) {
  for (const Request& request : TakeIf(&pending_, [now](const Request& r) {
         return r.deadline > 0 && r.deadline <= now;
       })) {
    Route(life_.Expire(request, now));
  }
}

void MultiDriveSimulator::HandlePermanentError(int d,
                                               const ServiceEntry& entry,
                                               bool whole_tape, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  const TapeId tape = ds.claim;
  TJ_CHECK_NE(tape, kInvalidTape);
  std::vector<BlockId> newly_masked;
  life_.MaskLostMedia(tape, entry.block, whole_tape, &newly_masked);
  if (whole_tape) {
    // The rest of this drive's sweep read the dead tape (claims are
    // exclusive, so no other drive's sweep does); fail each request over
    // to a surviving replica.
    while (!ds.sweep.empty()) {
      Requeue(ds.sweep.Pop()->requests, now);
    }
  }
  Requeue(entry.requests, now);
  EvictUnservablePending(now);
}

void MultiDriveSimulator::FailDrive(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  FaultModel* const faults = life_.faults();
  ++life_.fault_stats().drive_failures;
  const double repair = faults->NextRepairTime();
  life_.fault_stats().drive_repair_seconds += repair;
  // Void in-flight work and hand everything back to the shared pending
  // list so surviving drives pick it up. The tape stays jammed in this
  // drive — the claim is kept, so requests living only on it wait out the
  // repair (claim conflicts, not deadlock: the repair event is scheduled).
  if (ds.in_flight.has_value()) {
    const ServiceEntry entry = std::move(*ds.in_flight);
    ds.in_flight.reset();
    ds.in_flight_outcome = ReadOutcome{};
    Requeue(entry.requests, now);
  }
  while (!ds.sweep.empty()) {
    Requeue(ds.sweep.Pop()->requests, now);
  }
  ds.busy = true;
  // The repair interval is down time, charged when its event fires.
  ds.pending_charge.emplace_back(obs::DriveActivity::kDown, now + repair);
  ds.next_failure = now + repair + faults->NextFailureGap();
  events_.Schedule(now + repair, drives_config_.num_drives + d);
}

void MultiDriveSimulator::WakeIdleDrives(double now) {
  for (size_t d = 0; d < drives_.size(); ++d) {
    if (!drives_[d].busy) Dispatch(static_cast<int>(d), now);
  }
}

void MultiDriveSimulator::FlushCharges(int d, double limit) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  for (const auto& [activity, end] : ds.pending_charge) {
    life_.accounting().ChargeTo(d, activity, std::min(end, limit));
  }
  ds.pending_charge.clear();
}

SimulationResult MultiDriveSimulator::Run() {
  TJ_CHECK(!ran_) << "Run may be called once";
  ran_ = true;
  const SimulationConfig& sim = life_.config();
  const bool closed = life_.closed();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (closed) {
    for (int64_t i = 0; i < sim.workload.queue_length; ++i) {
      Route(life_.IssueClosed(0.0));
    }
  } else {
    next_arrival_ = life_.workload().NextArrivalGap(0.0);
  }
  WakeIdleDrives(0.0);
  life_.MaybeMarkWarmup(0.0, counters_);

  while (clock_ < sim.duration_seconds) {
    const double event_time = events_.empty() ? kInf : events_.NextTime();
    const double arrival_time = closed ? kInf : next_arrival_;
    const double expiry_time = life_.next_expiry();
    const double next = std::min({event_time, arrival_time, expiry_time});
    if (next == kInf || next > sim.duration_seconds) break;
    // Timeline samples due before the next event read the state as of
    // their sample time. Pure observation: the sampler never advances
    // clock_, wakes a drive, or marks warm-up, so results are unchanged.
    if (obs::TimelineSampler* timeline = life_.timeline()) {
      timeline->SampleUpTo(next);
    }
    clock_ = next;

    if (expiry_time <= event_time && expiry_time <= arrival_time) {
      // Stale events (the request completed, failed, or was evicted by an
      // earlier scan) are skipped; requests already extracted into a
      // drive's sweep are committed and left to complete normally.
      if (life_.PopExpiry()) ExpirePendingPastDeadline(clock_);
    } else if (arrival_time <= event_time) {
      Route(life_.Arrive(life_.workload().NextRequest(clock_)));
      next_arrival_ = clock_ + life_.workload().NextArrivalGap(clock_);
    } else {
      const auto [time, payload] = events_.Pop();
      (void)time;
      if (payload >= drives_config_.num_drives) {
        // Repair complete: the drive rejoins the farm.
        const int d = payload - drives_config_.num_drives;
        FlushCharges(d, clock_);
        drives_[static_cast<size_t>(d)].busy = false;
        Dispatch(d, clock_);
      } else {
        const int d = payload;
        DriveState& ds = drives_[static_cast<size_t>(d)];
        FlushCharges(d, clock_);
        if (drive_faults_ && ds.next_failure <= clock_) {
          // The drive failed during this operation: void it and repair.
          FailDrive(d, clock_);
        } else {
          ds.busy = false;
          if (ds.in_flight.has_value()) {
            const ServiceEntry entry = std::move(*ds.in_flight);
            ds.in_flight.reset();
            const ReadOutcome outcome = ds.in_flight_outcome;
            ds.in_flight_outcome = ReadOutcome{};
            if (outcome.permanent_error) {
              HandlePermanentError(d, entry, outcome.whole_tape, clock_);
            } else {
              for (const Request& request : entry.requests) {
                Route(life_.Complete(request, clock_));
              }
            }
          }
          Dispatch(d, clock_);
        }
      }
    }
    WakeIdleDrives(clock_);
    life_.MaybeMarkWarmup(clock_, counters_);
  }
  // A run that stops short of the warm-up boundary still marks it, at the
  // final counters.
  life_.MaybeMarkWarmup(kInf, counters_);
  // Clip the segments of operations still in flight at the final clock
  // (their completion events never fired), then close every drive's
  // interval so per-drive state time sums to the measured window.
  for (size_t d = 0; d < drives_.size(); ++d) {
    FlushCharges(static_cast<int>(d), clock_);
  }
  return life_.Finish(clock_, counters_);
}

}  // namespace tapejuke
