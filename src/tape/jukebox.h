// A small single-drive tape jukebox (paper §2): one drive, a robotic arm,
// and a handful of tapes, scheduled independently of other jukeboxes.
//
// The jukebox owns the tapes and the drive, performs complete tape switches
// (rewind + eject + robot swap + load), and tallies time-accounting counters
// that the metrics layer reports (number of switches, seconds spent in each
// activity, bytes read).

#ifndef TAPEJUKE_TAPE_JUKEBOX_H_
#define TAPEJUKE_TAPE_JUKEBOX_H_

#include <cstdint>
#include <vector>

#include "tape/drive.h"
#include "tape/tape.h"
#include "tape/timing_model.h"
#include "tape/types.h"
#include "util/status.h"

namespace tapejuke {

/// Cumulative activity accounting for one jukebox.
struct JukeboxCounters {
  int64_t tape_switches = 0;
  int64_t blocks_read = 0;
  int64_t mb_read = 0;
  double rewind_seconds = 0;
  double switch_seconds = 0;  ///< eject + robot + load (excludes rewind)
  double locate_seconds = 0;
  double read_seconds = 0;

  /// Total accounted busy time.
  double BusySeconds() const {
    return rewind_seconds + switch_seconds + locate_seconds + read_seconds;
  }
};

/// Component timing of one SwitchTo call, for per-state observability.
/// rewind + eject + robot + load == the seconds SwitchTo returned.
struct SwitchBreakdown {
  double rewind = 0;
  double eject = 0;
  double robot = 0;
  double load = 0;
};

/// Configuration for Jukebox construction.
struct JukeboxConfig {
  int32_t num_tapes = 10;
  int64_t block_size_mb = 16;
  TimingParams timing = TimingParams::Exabyte8505XL();
  /// Helical-scan drives must rewind to the beginning of tape before eject
  /// (the paper's assumption). Setting this false models a hypothetical
  /// eject-anywhere drive (abl_rewind ablation; cf. the related-work
  /// discussion of rewind-to-nearest-zone libraries).
  bool rewind_before_eject = true;

  Status Validate() const;
};

/// One drive + robot + tape pool. All time-consuming operations return the
/// seconds they take and update the counters; the simulator owns the clock.
class Jukebox {
 public:
  /// Constructs with validated config (TJ_CHECKs on invalid config; use
  /// JukeboxConfig::Validate() to pre-check user input).
  explicit Jukebox(const JukeboxConfig& config);

  const TimingModel& model() const { return model_; }
  const JukeboxConfig& config() const { return config_; }

  int32_t num_tapes() const { return static_cast<int32_t>(tapes_.size()); }
  Tape& tape(TapeId id);
  const Tape& tape(TapeId id) const;

  Drive& drive() { return drive_; }
  const Drive& drive() const { return drive_; }

  /// The currently mounted tape, or kInvalidTape.
  TapeId mounted_tape() const { return drive_.loaded_tape(); }

  /// Head position of the drive (0 when no tape is mounted).
  Position head() const { return drive_.head(); }

  /// Switches the drive to `target`: rewind (if needed), eject, robot swap,
  /// load. No-op returning 0 when `target` is already mounted. Counters are
  /// updated. Returns elapsed seconds; when `breakdown` is non-null the
  /// component times are stored there (zeroed first).
  double SwitchTo(TapeId target, SwitchBreakdown* breakdown = nullptr);

  /// Locates to `position` on the mounted tape and reads one block
  /// (config().block_size_mb MB). Updates counters. Returns elapsed
  /// seconds.
  double ReadBlockAt(Position position);

  /// Rewinds the mounted tape (explicit idle-time rewind). Returns seconds.
  double Rewind();

  /// Charges `count` extra robot cycles (a fault-injected load/eject
  /// handoff slip repeats the robot move). Returns the seconds charged.
  double ChargeRobotRetries(int count);

  const JukeboxCounters& counters() const { return counters_; }
  /// For the shared drive primitives (DriveOps), which count the reads
  /// they make on this jukebox's drive.
  JukeboxCounters* mutable_counters() { return &counters_; }
  void ResetCounters() { counters_ = JukeboxCounters{}; }

  /// Number of slots per tape for this configuration.
  int64_t slots_per_tape() const { return tapes_.front().num_slots(); }

  /// Total slots across all tapes.
  int64_t total_slots() const { return slots_per_tape() * num_tapes(); }

 private:
  JukeboxConfig config_;
  TimingModel model_;
  Drive drive_;
  std::vector<Tape> tapes_;
  JukeboxCounters counters_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_JUKEBOX_H_
