#include "tape/jukebox.h"

#include "util/check.h"

namespace tapejuke {

Status JukeboxConfig::Validate() const {
  if (num_tapes <= 0) {
    return Status::InvalidArgument("jukebox needs at least one tape");
  }
  if (block_size_mb <= 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  if (block_size_mb > timing.tape_capacity_mb) {
    return Status::InvalidArgument("block size exceeds tape capacity");
  }
  return timing.Validate();
}

Jukebox::Jukebox(const JukeboxConfig& config)
    : config_(config), model_(config.timing), drive_(&model_) {
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  tapes_.reserve(static_cast<size_t>(config.num_tapes));
  for (TapeId id = 0; id < config.num_tapes; ++id) {
    tapes_.emplace_back(id, config.timing.tape_capacity_mb,
                        config.block_size_mb);
  }
}

Tape& Jukebox::tape(TapeId id) {
  TJ_CHECK(id >= 0 && id < num_tapes()) << "bad tape id" << id;
  return tapes_[static_cast<size_t>(id)];
}

const Tape& Jukebox::tape(TapeId id) const {
  TJ_CHECK(id >= 0 && id < num_tapes()) << "bad tape id" << id;
  return tapes_[static_cast<size_t>(id)];
}

double Jukebox::SwitchTo(TapeId target, SwitchBreakdown* breakdown) {
  TJ_CHECK(target >= 0 && target < num_tapes()) << "bad tape id" << target;
  if (breakdown != nullptr) *breakdown = SwitchBreakdown{};
  if (drive_.loaded_tape() == target) return 0.0;
  double elapsed = 0.0;
  if (drive_.has_tape()) {
    if (config_.rewind_before_eject || drive_.head() == 0) {
      const double rewind = drive_.Rewind();
      counters_.rewind_seconds += rewind;
      elapsed += rewind;
      if (breakdown != nullptr) breakdown->rewind = rewind;
      const double eject = drive_.Eject();
      counters_.switch_seconds += eject;
      elapsed += eject;
      if (breakdown != nullptr) breakdown->eject = eject;
    } else {
      // Hypothetical eject-anywhere drive: skip the rewind. Reset the head
      // through a free rewind so Drive's eject precondition holds; no time
      // is charged.
      drive_.Rewind();
      const double eject = drive_.Eject();
      counters_.switch_seconds += eject;
      elapsed += eject;
      if (breakdown != nullptr) breakdown->eject = eject;
    }
  }
  const double robot = model_.params().robot_seconds;
  counters_.switch_seconds += robot;
  elapsed += robot;
  const double load = drive_.Load(target);
  counters_.switch_seconds += load;
  elapsed += load;
  ++counters_.tape_switches;
  if (breakdown != nullptr) {
    breakdown->robot = robot;
    breakdown->load = load;
  }
  return elapsed;
}

double Jukebox::ReadBlockAt(Position position) {
  TJ_CHECK(drive_.has_tape()) << "read with no tape mounted";
  const double locate = drive_.LocateTo(position);
  counters_.locate_seconds += locate;
  const double read = drive_.Read(config_.block_size_mb);
  counters_.read_seconds += read;
  ++counters_.blocks_read;
  counters_.mb_read += config_.block_size_mb;
  return locate + read;
}

double Jukebox::ChargeRobotRetries(int count) {
  TJ_CHECK_GE(count, 0);
  const double extra = count * model_.params().robot_seconds;
  counters_.switch_seconds += extra;
  return extra;
}

double Jukebox::Rewind() {
  TJ_CHECK(drive_.has_tape()) << "rewind with no tape mounted";
  const double rewind = drive_.Rewind();
  counters_.rewind_seconds += rewind;
  return rewind;
}

}  // namespace tapejuke
