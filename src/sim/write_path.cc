#include "sim/write_path.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

Status WritePathConfig::Validate() const {
  if (buffer_capacity_blocks <= 0) {
    return Status::InvalidArgument("buffer capacity must be positive");
  }
  if (piggyback_min_blocks < 1) {
    return Status::InvalidArgument("piggyback_min_blocks must be >= 1");
  }
  if (hot_write_fraction < 0 || hot_write_fraction > 1) {
    return Status::InvalidArgument("hot_write_fraction must be in [0, 1]");
  }
  return Status::Ok();
}

WritePath::WritePath(const WritePathConfig& config, Jukebox* jukebox,
                     const Catalog* catalog, DriveOps* ops, uint64_t seed)
    : config_(config),
      jukebox_(jukebox),
      catalog_(catalog),
      ops_(ops),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      next_arrival_(rng_.Exponential(config.mean_write_interarrival_seconds)) {
  TJ_CHECK(config.enabled());
}

void WritePath::DeliverUpTo(double now) {
  while (next_arrival_ <= now) {
    // Writes pick blocks with their own skew, independent of reads.
    const int64_t hot = catalog_->num_hot_blocks();
    const int64_t cold = catalog_->num_cold_blocks();
    bool pick_hot = rng_.Bernoulli(config_.hot_write_fraction);
    if (hot == 0) pick_hot = false;
    if (cold == 0) pick_hot = true;
    AcceptWrite(pick_hot ? static_cast<BlockId>(rng_.UniformUint64(
                               static_cast<uint64_t>(hot)))
                         : hot + static_cast<BlockId>(rng_.UniformUint64(
                                     static_cast<uint64_t>(cold))));
    next_arrival_ += rng_.Exponential(config_.mean_write_interarrival_seconds);
  }
}

void WritePath::AcceptWrite(BlockId block) {
  ++stats_.writes_accepted;
  // A write must eventually update every live tape-resident copy of the
  // block; a masked copy is never read again, so it is not rewritten.
  for (const Replica& replica : catalog_->ReplicasOf(block)) {
    if (!catalog_->IsAlive(replica)) continue;
    if (dirty_[replica.tape].insert(replica.position).second) {
      ++buffer_occupancy_;
      ++stats_.dirty_updates_created;
    }
  }
  stats_.max_buffer_occupancy =
      std::max(stats_.max_buffer_occupancy, buffer_occupancy_);
}

TapeId WritePath::DirtiestTape() const {
  TapeId best = kInvalidTape;
  size_t best_count = 0;
  for (const auto& [tape, positions] : dirty_) {
    if (positions.size() > best_count) {
      best_count = positions.size();
      best = tape;
    }
  }
  return best;
}

void WritePath::WriteNext(TapeId tape, double* seconds) {
  TJ_CHECK_EQ(jukebox_->mounted_tape(), tape);
  const auto it = dirty_.find(tape);
  std::set<Position>& positions = it->second;
  auto next = positions.lower_bound(jukebox_->head());
  if (next == positions.end()) --next;
  ops_->Write(*next, seconds);
  ++stats_.blocks_flushed;
  --buffer_occupancy_;
  positions.erase(next);
  if (positions.empty()) dirty_.erase(it);
}

double WritePath::FlushTape(TapeId tape) {
  double elapsed = 0;
  while (dirty_.contains(tape)) WriteNext(tape, &elapsed);
  stats_.write_seconds += elapsed;
  return elapsed;
}

void WritePath::AfterRead(const ServiceEntry& /*entry*/, double start,
                          double /*now*/) {
  DeliverUpTo(start);
}

BackgroundWork::Quantum WritePath::ForcedWork(double now) {
  DeliverUpTo(now);
  Quantum quantum;
  if (buffer_occupancy_ <= config_.buffer_capacity_blocks) return quantum;
  const TapeId tape = DirtiestTape();
  ++stats_.forced_flushes;
  quantum.mount_seconds = ops_->Mount(tape);
  quantum.seconds = FlushTape(tape);
  return quantum;
}

double WritePath::Piggyback(Boundary boundary, double /*now*/) {
  if (!config_.piggyback || boundary != Boundary::kSweepDrained) return 0;
  const TapeId mounted = jukebox_->mounted_tape();
  const auto it = dirty_.find(mounted);
  if (it == dirty_.end() ||
      static_cast<int64_t>(it->second.size()) < config_.piggyback_min_blocks) {
    return 0;
  }
  ++stats_.piggyback_flushes;
  return FlushTape(mounted);
}

double WritePath::NextIdleWorkTime(double now) const {
  if (config_.piggyback && buffer_occupancy_ > 0) return now;
  return next_arrival_;
}

BackgroundWork::Quantum WritePath::IdleQuantum(double /*now*/) {
  Quantum quantum;
  if (!dirty_.contains(idle_tape_)) {
    idle_tape_ = DirtiestTape();
    ++stats_.idle_flushes;
  }
  if (jukebox_->mounted_tape() != idle_tape_) {
    quantum.mount_seconds = ops_->Mount(idle_tape_);
    return quantum;
  }
  WriteNext(idle_tape_, &quantum.seconds);
  stats_.write_seconds += quantum.seconds;
  return quantum;
}

void WritePath::OnMediaLost(TapeId tape, BlockId block, bool whole_tape,
                            const std::vector<BlockId>& /*newly_masked*/,
                            double /*now*/) {
  const auto it = dirty_.find(tape);
  if (it == dirty_.end()) return;
  if (whole_tape) {
    buffer_occupancy_ -= static_cast<int64_t>(it->second.size());
    dirty_.erase(it);
    return;
  }
  const Replica* replica = catalog_->ReplicaOn(block, tape);
  if (replica != nullptr && it->second.erase(replica->position) > 0) {
    --buffer_occupancy_;
    if (it->second.empty()) dirty_.erase(it);
  }
}

}  // namespace tapejuke
