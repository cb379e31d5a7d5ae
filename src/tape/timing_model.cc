#include "tape/timing_model.h"

#include <cmath>

#include "util/check.h"

namespace tapejuke {

TimingParams TimingParams::FastDrive() {
  TimingParams p;
  p.fwd_short_startup /= 4;
  p.fwd_short_per_mb /= 4;
  p.fwd_long_startup /= 4;
  p.fwd_long_per_mb /= 4;
  p.rev_short_startup /= 4;
  p.rev_short_per_mb /= 4;
  p.rev_long_startup /= 4;
  p.rev_long_per_mb /= 4;
  p.bot_extra_seconds /= 4;
  p.read_fwd_startup /= 4;
  p.read_per_mb /= 4;
  p.eject_seconds /= 4;
  p.robot_seconds /= 4;
  p.load_seconds /= 4;
  return p;
}

Status TimingParams::Validate() const {
  if (tape_capacity_mb <= 0) {
    return Status::InvalidArgument("tape capacity must be positive");
  }
  if (short_threshold_mb < 0) {
    return Status::InvalidArgument("short locate threshold must be >= 0");
  }
  const double costs[] = {fwd_short_startup, fwd_short_per_mb,
                          fwd_long_startup,  fwd_long_per_mb,
                          rev_short_startup, rev_short_per_mb,
                          rev_long_startup,  rev_long_per_mb,
                          bot_extra_seconds, read_fwd_startup,
                          read_rev_startup,  read_per_mb,
                          eject_seconds,     robot_seconds,
                          load_seconds};
  for (double c : costs) {
    if (c < 0 || !std::isfinite(c)) {
      return Status::InvalidArgument("timing costs must be finite and >= 0");
    }
  }
  if (read_per_mb <= 0) {
    return Status::InvalidArgument("read_per_mb must be positive");
  }
  return Status::Ok();
}

TimingModel::TimingModel(const TimingParams& params) : params_(params) {
  const Status status = params.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
}

}  // namespace tapejuke
