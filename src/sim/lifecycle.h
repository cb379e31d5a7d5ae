// Gradual-fill lifecycle: replicas "for free" (paper §4.8 recommendation).
//
// The paper's closing advice: while a jukebox fills, keep the hottest data
// on a dedicated tape, leave the other tapes partly empty, and append
// replicas of hot data to the tape *ends* when convenient — piggybacked on
// read schedules that already have the tape loaded — so performance
// improves without dedicated write passes. ReplicaFill holds that policy:
// starting from a spare-capacity layout it writes replicas into the free
// space at sweep ends (the drive is already positioned on the tape) and,
// one replica per quantum, during idle periods, as background work of the
// Simulator's event loop. It reports performance per epoch so the "free"
// improvement is visible as the replica population grows.

#ifndef TAPEJUKE_SIM_LIFECYCLE_H_
#define TAPEJUKE_SIM_LIFECYCLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "sim/background.h"
#include "sim/drive_ops.h"
#include "tape/jukebox.h"
#include "util/status.h"

namespace tapejuke {

/// Gradual-fill parameters (SimulationConfig::fill).
struct LifecycleConfig {
  /// Maximum seconds of replica writing appended to one read sweep. 0
  /// writes nothing, idle fill included: the spare capacity stays empty.
  double fill_budget_seconds = 120.0;
  /// Stop once every hot block has this many copies in total.
  int32_t target_copies = 10;
  /// Number of reporting windows over the whole run. 0, the default,
  /// disables the lifecycle (no fill, no report).
  int32_t num_epochs = 0;

  bool enabled() const { return num_epochs > 0; }

  Status Validate() const;
};

/// Performance within one reporting window.
struct EpochStats {
  double start_seconds = 0;
  double end_seconds = 0;
  int64_t completed_requests = 0;
  double requests_per_minute = 0;
  double mean_delay_minutes = 0;
  /// Fraction of the replica-fill target reached by the end of the epoch.
  double fill_fraction = 0;
};

/// The fill policy and its state: a hot-block cursor per tape and the
/// per-epoch series; free slots come from the shared SpareSlots ledger.
/// One of the Simulator's background components; it moves the drive only
/// through the shared DriveOps.
class ReplicaFill : public BackgroundWork {
 public:
  /// `catalog` and the jukebox's tapes are mutated as replicas are
  /// written. The layout must have spare slots for them (e.g. LayoutSpec
  /// with pack_cold or a logical_blocks_override below the maximum).
  ReplicaFill(const LifecycleConfig& config, double duration_seconds,
              Jukebox* jukebox, Catalog* catalog, DriveOps* ops,
              SpareSlots* spare);

  /// Feeds the per-epoch series one call per client completion.
  void AfterRead(const ServiceEntry& entry, double start,
                 double now) override;
  /// A sweep just drained: writes replicas of hot blocks onto the mounted
  /// tape until the budget or the tape's capacity/need runs out.
  double Piggyback(Boundary boundary, double now) override;
  /// `now` while the fill wants more and some tape can take it.
  double NextIdleWorkTime(double now) const override;
  /// The idle fill: mounts the neediest tape, then writes one replica per
  /// quantum while that tape can take more.
  Quantum IdleQuantum(double now) override;
  /// Closes the per-epoch series at the run's end time `end`.
  void Finish(double end, SimulationResult* result) override;

  /// The per-epoch series; valid after Finish.
  const std::vector<EpochStats>& epochs() const { return epochs_; }

  /// Replicas written so far.
  int64_t replicas_written() const { return replicas_written_; }

  /// Total replicas the fill target implies.
  int64_t fill_target() const { return fill_target_; }

 private:
  struct EpochAccum {
    int64_t completed = 0;
    double delay_sum = 0;
  };

  /// The reporting window holding time `t` (the last one past the end).
  size_t EpochOf(double t) const {
    return std::min(static_cast<size_t>(t / epoch_len_), accums_.size() - 1);
  }

  /// True while the fill budget is positive and the target is not met.
  bool wants_more() const {
    return config_.fill_budget_seconds > 0 && replicas_written_ < fill_target_;
  }

  /// The tape that most needs replicas (free slots + missing copies), or
  /// kInvalidTape.
  TapeId NeediestTape() const;

  /// Writes one replica of the next hot block the mounted `tape` lacks
  /// into its highest free slot and adds the seconds to `*seconds`; false
  /// when the tape can take none.
  bool WriteOne(TapeId tape, double* seconds);

  /// Records the fill level reached at `now` for its epoch and every later
  /// one (later fills overwrite them).
  void NoteFill(double now);

  LifecycleConfig config_;
  Jukebox* jukebox_;
  Catalog* catalog_;
  DriveOps* ops_;
  SpareSlots* spare_;
  double epoch_len_;

  /// A round-robin cursor over hot blocks per tape.
  std::vector<BlockId> next_hot_;
  /// The tape the idle fill in progress writes to.
  TapeId idle_tape_ = kInvalidTape;
  int64_t replicas_written_ = 0;
  int64_t fill_target_ = 0;

  std::vector<EpochAccum> accums_;
  std::vector<double> fill_at_epoch_end_;
  std::vector<EpochStats> epochs_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_LIFECYCLE_H_
