#include "sim/lifecycle.h"

#include <limits>

#include "util/check.h"

namespace tapejuke {

Status LifecycleConfig::Validate() const {
  if (fill_budget_seconds < 0) {
    return Status::InvalidArgument("fill budget must be >= 0");
  }
  if (target_copies < 1) {
    return Status::InvalidArgument("target_copies must be >= 1");
  }
  if (num_epochs < 0) {
    return Status::InvalidArgument("num_epochs must be >= 0");
  }
  return Status::Ok();
}

ReplicaFill::ReplicaFill(const LifecycleConfig& config,
                         double duration_seconds, Jukebox* jukebox,
                         Catalog* catalog, DriveOps* ops, SpareSlots* spare)
    : config_(config),
      jukebox_(jukebox),
      catalog_(catalog),
      ops_(ops),
      spare_(spare),
      epoch_len_(duration_seconds / config.num_epochs),
      next_hot_(static_cast<size_t>(jukebox->num_tapes()), 0),
      accums_(static_cast<size_t>(config.num_epochs)),
      fill_at_epoch_end_(static_cast<size_t>(config.num_epochs), 0) {
  TJ_CHECK(config.enabled());
  TJ_CHECK(catalog != nullptr)
      << "replica fill requires the mutable-catalog constructor";
  TJ_CHECK_LE(config.target_copies, jukebox->num_tapes());
  // Fill target: every hot block reaches target_copies copies (bounded by
  // what distinct tapes allow).
  for (BlockId b = 0; b < catalog->num_hot_blocks(); ++b) {
    const auto have = static_cast<int64_t>(catalog->ReplicasOf(b).size());
    fill_target_ += std::max<int64_t>(0, config.target_copies - have);
  }
}

TapeId ReplicaFill::NeediestTape() const {
  TapeId best = kInvalidTape;
  int64_t best_need = 0;
  for (TapeId t = 0; t < jukebox_->num_tapes(); ++t) {
    if (spare_->free(t) == 0) continue;
    // Count hot blocks still missing a copy here (capped: exact counts are
    // only needed to rank tapes).
    int64_t missing = 0;
    for (BlockId b = 0; b < catalog_->num_hot_blocks(); ++b) {
      if (static_cast<int32_t>(catalog_->ReplicasOf(b).size()) >=
          config_.target_copies) {
        continue;
      }
      if (catalog_->ReplicaOn(b, t) == nullptr) ++missing;
    }
    const int64_t need = std::min(missing, spare_->free(t));
    if (need > best_need) {
      best_need = need;
      best = t;
    }
  }
  return best;
}

bool ReplicaFill::WriteOne(TapeId tape_id, double* seconds) {
  const int64_t hot = catalog_->num_hot_blocks();
  if (spare_->free(tape_id) == 0) return false;
  // Next hot block that still wants a copy and lacks one on this tape.
  BlockId& cursor = next_hot_[static_cast<size_t>(tape_id)];
  BlockId chosen = kInvalidBlock;
  for (int64_t scanned = 0; scanned < hot; ++scanned) {
    const BlockId candidate = cursor;
    cursor = (cursor + 1) % hot;
    if (static_cast<int32_t>(catalog_->ReplicasOf(candidate).size()) >=
        config_.target_copies) {
      continue;
    }
    if (catalog_->ReplicaOn(candidate, tape_id) == nullptr) {
      chosen = candidate;
      break;
    }
  }
  if (chosen == kInvalidBlock) return false;  // the tape has all it can take

  Tape& tape = jukebox_->tape(tape_id);
  const int64_t slot = spare_->TakeHighest(tape_id);
  const Position position = tape.PositionOfSlot(slot);
  // The source data is read from the disk/memory tier (hot data is cached
  // there per §2); only the tape-side locate + write costs time.
  ops_->Write(position, seconds);
  const Status placed = tape.PlaceBlock(chosen, slot);
  TJ_CHECK(placed.ok()) << placed.ToString();
  catalog_->AddReplica(chosen, Replica{tape_id, slot, position});
  ++replicas_written_;
  return true;
}

void ReplicaFill::AfterRead(const ServiceEntry& entry, double /*start*/,
                            double now) {
  EpochAccum& epoch = accums_[EpochOf(now)];
  for (const Request& request : entry.requests) {
    ++epoch.completed;
    epoch.delay_sum += now - request.arrival_time;
  }
}

double ReplicaFill::Piggyback(Boundary boundary, double now) {
  const TapeId tape = jukebox_->mounted_tape();
  if (boundary != Boundary::kSweepDrained || !wants_more() ||
      tape == kInvalidTape) {
    return 0;
  }
  double elapsed = 0;
  while (elapsed < config_.fill_budget_seconds && WriteOne(tape, &elapsed)) {
  }
  NoteFill(now + elapsed);
  return elapsed;
}

double ReplicaFill::NextIdleWorkTime(double now) const {
  return wants_more() && NeediestTape() != kInvalidTape
             ? now
             : std::numeric_limits<double>::infinity();
}

BackgroundWork::Quantum ReplicaFill::IdleQuantum(double now) {
  Quantum quantum;
  if (idle_tape_ == kInvalidTape) idle_tape_ = NeediestTape();
  if (jukebox_->mounted_tape() != idle_tape_) {
    quantum.mount_seconds = ops_->Mount(idle_tape_);
    return quantum;
  }
  if (WriteOne(idle_tape_, &quantum.seconds)) {
    NoteFill(now + quantum.seconds);
  } else {
    idle_tape_ = kInvalidTape;  // full or complete: the next quantum re-picks
  }
  return quantum;
}

void ReplicaFill::NoteFill(double now) {
  const double fraction =
      fill_target_ > 0 ? static_cast<double>(replicas_written_) /
                             static_cast<double>(fill_target_)
                       : 1.0;
  for (size_t e = EpochOf(now); e < fill_at_epoch_end_.size(); ++e) {
    fill_at_epoch_end_[e] = fraction;
  }
}

void ReplicaFill::Finish(double end, SimulationResult* /*result*/) {
  NoteFill(end);
  epochs_.clear();
  for (size_t e = 0; e < accums_.size(); ++e) {
    EpochStats stats;
    stats.start_seconds = static_cast<double>(e) * epoch_len_;
    stats.end_seconds = stats.start_seconds + epoch_len_;
    stats.completed_requests = accums_[e].completed;
    stats.requests_per_minute =
        static_cast<double>(accums_[e].completed) / (epoch_len_ / 60.0);
    stats.mean_delay_minutes =
        accums_[e].completed > 0
            ? accums_[e].delay_sum /
                  static_cast<double>(accums_[e].completed) / 60.0
            : 0.0;
    stats.fill_fraction = fill_at_epoch_end_[e];
    epochs_.push_back(stats);
  }
}

}  // namespace tapejuke
