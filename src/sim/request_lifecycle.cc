#include "sim/request_lifecycle.h"

#include <iostream>
#include <string>
#include <utility>

#include "util/check.h"

namespace tapejuke {

Status SimulationConfig::Validate() const {
  if (duration_seconds <= 0) {
    return Status::InvalidArgument("duration must be positive");
  }
  if (obs.sample < 1) {
    return Status::InvalidArgument("trace sample must be >= 1");
  }
  if (timeline.interval_seconds < 0) {
    return Status::InvalidArgument("timeline interval must be >= 0");
  }
  if (!timeline.out.empty() && timeline.interval_seconds <= 0) {
    return Status::InvalidArgument(
        "timeline output requires a positive --timeline-interval");
  }
  if (warmup_seconds < 0 || warmup_seconds >= duration_seconds) {
    return Status::InvalidArgument(
        "warmup must be in [0, duration_seconds)");
  }
  const Status fault_status = faults.Validate();
  if (!fault_status.ok()) return fault_status;
  const Status repair_status = repair.Validate();
  if (!repair_status.ok()) return repair_status;
  if (repair.enabled() && !faults.enabled()) {
    return Status::InvalidArgument(
        "scrub/repair requires fault injection (config.faults)");
  }
  const Status writes_status = writes.Validate();
  if (!writes_status.ok()) return writes_status;
  const Status fill_status = fill.Validate();
  if (!fill_status.ok()) return fill_status;
  if (static_cast<int>(writes.enabled()) + static_cast<int>(fill.enabled()) +
          static_cast<int>(repair.enabled()) >
      1) {
    return Status::InvalidArgument(
        "the write path, replica fill and scrub/repair are mutually "
        "exclusive (fill and repair would take the same spare slots)");
  }
  if (fill.enabled() && faults.enabled()) {
    return Status::InvalidArgument(
        "replica fill does not support fault injection (it does not track "
        "dead tapes)");
  }
  const Status admission_status = admission.Validate(workload);
  if (!admission_status.ok()) return admission_status;
  return workload.Validate();
}

RequestLifecycle::RequestLifecycle(const Catalog* catalog,
                                   Catalog* mutable_catalog,
                                   const SimulationConfig& config,
                                   int num_drives, int64_t block_size_mb,
                                   bool closed)
    : catalog_(catalog),
      mutable_catalog_(mutable_catalog),
      config_(config),
      closed_(closed),
      workload_(catalog, config.workload),
      metrics_(config.warmup_seconds, block_size_mb),
      accounting_(num_drives, config.warmup_seconds) {
  TJ_CHECK(catalog != nullptr);
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  if (config_.obs.enabled()) {
    recorder_.emplace(config_.obs);
    recorder_->SetTopology("jukebox", num_drives);
    accounting_.set_recorder(&*recorder_);
  }
  if (config_.faults.enabled()) {
    TJ_CHECK(mutable_catalog_ != nullptr)
        << "fault injection requires the mutable-catalog constructor "
           "(permanent media errors mask catalog replicas)";
    faults_.emplace(config_.faults, config_.workload.seed);
  }
  if (config_.workload.HasTenantClasses()) {
    metrics_.ConfigureClasses(
        static_cast<int>(config_.workload.tenant_classes.size()));
  }
  if (config_.admission.enabled()) {
    admission_.emplace(config_.admission, config_.workload.tenant_classes);
  }
}

void RequestLifecycle::SetupTimeline(
    obs::StatRegistry::GaugeFn queue_depth,
    obs::StatRegistry::GaugeFn sweep_depth,
    obs::StatRegistry::GaugeFn repair_backlog) {
  if (!config_.timeline.enabled()) return;
  timeline_.emplace(config_.timeline);
  obs::StatRegistry* reg = timeline_->registry();
  reg->AddGauge("queue_depth", std::move(queue_depth));
  reg->AddGauge("sweep_depth", std::move(sweep_depth));
  reg->AddGauge("shed_level", [this] {
    return admission_.has_value()
               ? static_cast<double>(admission_->shed_level())
               : 0.0;
  });
  reg->AddGauge("live_replica_fraction",
                [this] { return LiveReplicaFraction(); });
  reg->AddGauge("repair_backlog", std::move(repair_backlog));
  metrics_.AttachTimeline(reg);
  for (int s = 0; s < obs::kNumDriveActivities; ++s) {
    const std::string name =
        std::string("state_") +
        obs::DriveActivityName(static_cast<obs::DriveActivity>(s));
    reg->AddAccum(name, [this, s] {
      double total = 0;
      for (const obs::DriveTimeInState& drive : accounting_.per_drive()) {
        total += drive.seconds[static_cast<size_t>(s)];
      }
      return total;
    });
  }
}

std::optional<Request> RequestLifecycle::Arrive(const Request& request) {
  const double now = request.arrival_time;
  if (admission_.has_value() &&
      !admission_->Admit(request.tenant, now, metrics_.outstanding_now())) {
    metrics_.OnShed(now, request.tenant);
    if (recorder_.has_value()) {
      recorder_->RequestArrived(request.id, request.block,
                                /*background=*/false, now);
      recorder_->RequestDone(request.id, obs::RequestOutcome::kShed, now);
    }
    return std::nullopt;
  }
  metrics_.OnArrival(now);
  return DeliverOrFail(request);
}

std::optional<Request> RequestLifecycle::DeliverOrFail(
    const Request& request) {
  const double now = request.arrival_time;
  if (recorder_.has_value()) {
    recorder_->RequestArrived(request.id, request.block,
                              /*background=*/false, now);
  }
  if (faults_.has_value() && !catalog_->HasLiveReplica(request.block)) {
    metrics_.OnFailure(now, now);
    if (recorder_.has_value()) {
      recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, now);
    }
    return std::nullopt;
  }
  if (request.deadline > 0) {
    deadline_live_.insert(request.id);
    expiries_.Schedule(request.deadline, request.id);
  }
  return request;
}

std::optional<Request> RequestLifecycle::IssueClosed(double now) {
  while (true) {
    std::optional<Request> request = Arrive(workload_.NextRequest(now));
    if (request.has_value() || !catalog_->HasAnyLive()) return request;
  }
}

std::optional<Request> RequestLifecycle::Reissue(double now) {
  if (!closed_) return std::nullopt;
  if (config_.workload.think_time_seconds > 0) {
    thinking_.Schedule(now + workload_.NextThinkTime(), 0);
    return std::nullopt;
  }
  return IssueClosed(now);
}

std::optional<Request> RequestLifecycle::Complete(const Request& request,
                                                  double now) {
  if (faults_.has_value() &&
      catalog_->LiveReplicaCount(request.block) <
          static_cast<int64_t>(catalog_->ReplicasOf(request.block).size())) {
    ++fault_stats_.degraded_reads;
  }
  metrics_.OnCompletion(request.arrival_time, now, request.tenant);
  if (admission_.has_value()) {
    admission_->OnCompletion(request.tenant, now - request.arrival_time,
                             now);
  }
  if (request.deadline > 0) deadline_live_.erase(request.id);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kCompleted, now);
  }
  return Reissue(now);
}

std::optional<Request> RequestLifecycle::Fail(const Request& request,
                                              double now) {
  if (request.deadline > 0) deadline_live_.erase(request.id);
  metrics_.OnFailure(request.arrival_time, now);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, now);
  }
  return Reissue(now);
}

std::optional<Request> RequestLifecycle::Expire(const Request& request,
                                                double now) {
  deadline_live_.erase(request.id);
  metrics_.OnExpired(request.arrival_time, now, request.tenant);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kExpired, now);
  }
  return Reissue(now);
}

bool RequestLifecycle::FailOver(const Request& request, double now,
                                std::optional<Request>* next) {
  if (request.deadline > 0 && request.deadline <= now) {
    *next = Expire(request, now);
    return false;
  }
  if (!catalog_->HasLiveReplica(request.block)) {
    *next = Fail(request, now);
    return false;
  }
  ++fault_stats_.failovers;
  if (recorder_.has_value()) recorder_->RequestFailover(request.id, now);
  return true;
}

bool RequestLifecycle::MaskLostMedia(TapeId tape, BlockId block,
                                     bool whole_tape,
                                     std::vector<BlockId>* newly_masked) {
  ++fault_stats_.permanent_media_errors;
  if (whole_tape) {
    ++fault_stats_.dead_tapes;
    const int64_t masked = mutable_catalog_->MarkTapeDead(tape, newly_masked);
    fault_stats_.replicas_masked += masked;
    for (const BlockId lost : *newly_masked) {
      if (!catalog_->HasLiveReplica(lost)) ++fault_stats_.blocks_lost;
    }
    return masked > 0;
  }
  if (!mutable_catalog_->MarkReplicaDead(block, tape)) return false;
  ++fault_stats_.replicas_masked;
  if (!catalog_->HasLiveReplica(block)) ++fault_stats_.blocks_lost;
  return true;
}

bool RequestLifecycle::PopExpiry() {
  return deadline_live_.contains(expiries_.Pop().second);
}

void RequestLifecycle::MaybeMarkWarmup(double now,
                                       const JukeboxCounters& counters) {
  if (!metrics_.warmup_marked() && now >= config_.warmup_seconds) {
    metrics_.MarkWarmupBoundary(counters);
  }
}

void RequestLifecycle::TraceSweepContents(const Sweep& sweep, TapeId tape,
                                          double now) {
  if (!recorder_.has_value() || !recorder_->trace_enabled()) return;
  for (const ServiceEntry& entry : sweep.forward()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, now);
    }
  }
  for (const ServiceEntry& entry : sweep.reverse()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, now);
    }
  }
}

double RequestLifecycle::LiveReplicaFraction() const {
  const int64_t total = catalog_->TotalCopies();
  if (total <= 0) return 1.0;
  return static_cast<double>(total - catalog_->dead_replicas()) /
         static_cast<double>(total);
}

SimulationResult RequestLifecycle::Finish(double end,
                                          const JukeboxCounters& counters) {
  accounting_.FinishAt(end);
  SimulationResult result = metrics_.Finalize(end, counters, &accounting_);
  if (faults_.has_value()) {
    result.fault_injection = true;
    result.faults = fault_stats_;
    result.live_replica_fraction = LiveReplicaFraction();
  }
  if (timeline_.has_value()) {
    // After accounting_.FinishAt so the final row's time-in-state deltas
    // cover the whole run.
    const Status timeline_status = timeline_->FinishAt(end);
    if (!timeline_status.ok()) {
      std::cerr << "warning: timeline output failed: "
                << timeline_status.ToString() << '\n';
    }
  }
  if (recorder_.has_value()) {
    const Status obs_status = recorder_->Finalize(end);
    if (!obs_status.ok()) {
      std::cerr << "warning: observability output failed: "
                << obs_status.ToString() << '\n';
    }
  }
  return result;
}

}  // namespace tapejuke
