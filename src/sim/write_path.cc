#include "sim/write_path.h"

#include <algorithm>
#include <vector>

#include "sched/schedule_cost.h"
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
                     const Catalog* catalog, uint64_t seed)
    : config_(config),
      jukebox_(jukebox),
      catalog_(catalog),
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

double WritePath::NextIdleWorkTime(double now) const {
  if (config_.piggyback && buffer_occupancy_ > 0) return now;
  return next_arrival_;
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

double WritePath::PiggybackFlush() {
  if (!config_.piggyback) return 0;
  const TapeId mounted = jukebox_->mounted_tape();
  const auto it = dirty_.find(mounted);
  if (it == dirty_.end() ||
      static_cast<int64_t>(it->second.size()) < config_.piggyback_min_blocks) {
    return 0;
  }
  return FlushTape(mounted, Flush::kPiggyback);
}

double WritePath::FlushTape(TapeId tape, Flush reason) {
  switch (reason) {
    case Flush::kPiggyback: ++stats_.piggyback_flushes; break;
    case Flush::kIdle: ++stats_.idle_flushes; break;
    case Flush::kForced: ++stats_.forced_flushes; break;
  }
  const auto it = dirty_.find(tape);
  if (it == dirty_.end() || it->second.empty()) return 0;
  TJ_CHECK_EQ(jukebox_->mounted_tape(), tape);
  std::vector<Position> positions(it->second.begin(), it->second.end());
  const std::vector<Position> order =
      ScheduleCost::SweepOrder(jukebox_->head(), std::move(positions));
  double elapsed = 0;
  Drive& drive = jukebox_->drive();
  for (const Position p : order) {
    elapsed += drive.LocateTo(p);
    elapsed += drive.Read(jukebox_->config().block_size_mb);  // write ~ read
    ++stats_.blocks_flushed;
  }
  buffer_occupancy_ -= static_cast<int64_t>(it->second.size());
  TJ_CHECK_GE(buffer_occupancy_, 0);
  dirty_.erase(it);
  stats_.write_seconds += elapsed;
  return elapsed;
}

void WritePath::OnMediaLost(TapeId tape, BlockId block, bool whole_tape) {
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
