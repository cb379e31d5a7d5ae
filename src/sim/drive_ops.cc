#include "sim/drive_ops.h"

#include "util/check.h"

namespace tapejuke {

DriveOps::DriveOps(Jukebox* jukebox, FaultModel* faults,
                   FaultStats* fault_stats)
    : jukebox_(jukebox),
      faults_(faults),
      fault_stats_(fault_stats),
      block_mb_(jukebox->config().block_size_mb) {
  TJ_CHECK(faults == nullptr || fault_stats != nullptr);
}

int DriveOps::DrawRobotSlips() {
  if (faults_ == nullptr) return 0;
  const int slips = faults_->NextRobotFaults();
  fault_stats_->robot_faults += slips;
  fault_stats_->robot_retry_seconds +=
      slips * jukebox_->model().params().robot_seconds;
  return slips;
}

double DriveOps::Mount(TapeId tape, SwitchBreakdown* breakdown) {
  double seconds = jukebox_->SwitchTo(tape, breakdown);
  if (seconds == 0) return 0;
  if (const int slips = DrawRobotSlips(); slips > 0) {
    const double extra = jukebox_->ChargeRobotRetries(slips);
    seconds += extra;
    if (breakdown != nullptr) breakdown->robot += extra;
  }
  return seconds;
}

DriveOps::BlockRead DriveOps::Read(Drive& drive, Position position,
                                   double start, JukeboxCounters* counters,
                                   DriveSegments* segments) {
  BlockRead result;
  double t = start;
  const auto segment = [&](obs::DriveActivity activity, double seconds) {
    t += seconds;
    if (segments != nullptr) segments->emplace_back(activity, t);
  };
  const auto attempt = [&] {
    const double locate = drive.LocateTo(position);
    const double read = drive.Read(block_mb_);
    if (counters != nullptr) {
      counters->locate_seconds += locate;
      counters->read_seconds += read;
      ++counters->blocks_read;
      counters->mb_read += block_mb_;
    }
    result.seconds += locate + read;
    segment(obs::DriveActivity::kLocating, locate);
    segment(obs::DriveActivity::kReading, read);
  };
  attempt();
  if (faults_ == nullptr) return result;
  ReadOutcome& outcome = result.outcome;
  outcome = faults_->NextReadOutcome();
  for (int r = 0; r < outcome.retries; ++r) {
    if (const double backoff = faults_->NextRetryBackoff(r); backoff > 0) {
      result.seconds += backoff;
      segment(obs::DriveActivity::kLocating, backoff);
    }
    attempt();
  }
  fault_stats_->transient_read_errors +=
      outcome.retries + (outcome.escalated ? 1 : 0);
  fault_stats_->read_retries += outcome.retries;
  if (outcome.escalated) ++fault_stats_->reads_escalated;
  return result;
}

void DriveOps::Write(Position position, double* seconds) {
  Drive& drive = jukebox_->drive();
  *seconds += drive.LocateTo(position);
  *seconds += drive.Read(block_mb_);  // a write costs what a read does
}

}  // namespace tapejuke
