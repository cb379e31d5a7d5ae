// Per-drive time-in-state accounting in simulated time.
//
// The paper's whole argument is a time-accounting one (§2.2/§3: where do
// drive-seconds go — locating, reading, rewinding, or waiting on the
// robot arm?), so the simulator charges every advance of the clock to
// exactly one activity per drive. The accounting keeps an absolute-time
// cursor per drive and charges closed intervals [cursor, until], so the
// cursor tracks the simulation clock exactly and the per-drive identity
//
//   sum over states(seconds) == measured_seconds
//
// holds up to floating-point accumulation error (TJ_CHECKed with a
// relative tolerance in MetricsCollector::Finalize). Intervals that
// straddle the warm-up boundary are clipped so the totals cover only the
// measurement window; the optional TraceRecorder attached via
// set_recorder receives the *unclipped* intervals so traces show the
// warm-up too.

#ifndef TAPEJUKE_OBS_TIME_IN_STATE_H_
#define TAPEJUKE_OBS_TIME_IN_STATE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace tapejuke {
namespace obs {

class TraceRecorder;

/// What a drive is doing with a span of simulated time. Every clock
/// advance in the simulators is charged to exactly one of these.
enum class DriveActivity : int {
  kIdle = 0,    ///< no work: waiting for arrivals or think time
  kSwitching,   ///< rewind-less portion of a tape switch: eject + load
  kRobot,       ///< waiting on / operated by the robot arm (incl. retries)
  kLocating,    ///< seeking to a block position on the mounted tape
  kReading,     ///< transferring data (client or repair source reads)
  kRewinding,   ///< rewinding before eject
  kBackground,  ///< scrub/repair, write-path flushes and replica fill
  kDown,        ///< drive failed, waiting out the repair interval
};

inline constexpr int kNumDriveActivities = 8;

/// Stable lower-case name ("idle", "switching", ...) used in traces,
/// results JSON, and trace_check.py's known-state list.
const char* DriveActivityName(DriveActivity activity);

/// Seconds one drive spent in each activity over the measurement window.
struct DriveTimeInState {
  std::array<double, kNumDriveActivities> seconds{};

  double& operator[](DriveActivity a) {
    return seconds[static_cast<int>(a)];
  }
  double operator[](DriveActivity a) const {
    return seconds[static_cast<int>(a)];
  }

  /// Sum over all states; equals measured_seconds by construction.
  double Total() const;
  /// Everything except idle and down time.
  double BusySeconds() const;
};

/// Charges intervals of simulated time to per-drive activities.
///
/// Usage: construct with the drive count and the warm-up end time, then
/// on every clock advance call ChargeTo(drive, activity, new_clock); at
/// the end of the run call FinishAt(end_time) to close trailing idle
/// gaps. ChargeTo with `until` at or before the drive's cursor is a
/// no-op, so callers may conservatively re-charge boundaries.
class TimeInStateAccounting {
 public:
  TimeInStateAccounting(int num_drives, double warmup_end);

  /// Charges [cursor(drive), until] to `activity` and advances the
  /// cursor. The portion before the warm-up end is excluded from the
  /// totals but still forwarded to the recorder, if any.
  void ChargeTo(int drive, DriveActivity activity, double until);

  /// Charges every drive's remaining [cursor, end_time] gap as idle.
  void FinishAt(double end_time);

  /// Attaches a recorder that receives every charged interval as a drive
  /// state slice. May be null (the default).
  void set_recorder(TraceRecorder* recorder) { recorder_ = recorder; }

  int num_drives() const { return static_cast<int>(per_drive_.size()); }
  const std::vector<DriveTimeInState>& per_drive() const {
    return per_drive_;
  }
  double cursor(int drive) const { return cursors_[drive]; }

 private:
  double warmup_end_;
  std::vector<DriveTimeInState> per_drive_;
  std::vector<double> cursors_;
  TraceRecorder* recorder_ = nullptr;
};

}  // namespace obs
}  // namespace tapejuke

#endif  // TAPEJUKE_OBS_TIME_IN_STATE_H_
