#include "sim/repair.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sim/metrics.h"
#include "tape/tape.h"
#include "util/check.h"
#include "util/json.h"

namespace tapejuke {

namespace {
// A wakeup scheduled at TokenReadyTime must find the bucket full enough
// despite floating-point rounding in the refill arithmetic.
constexpr double kTokenSlack = 1e-9;
}  // namespace

Status RepairConfig::Validate() const {
  if (scrub_interval_seconds < 0.0) {
    return Status::InvalidArgument("scrub_interval_seconds must be >= 0");
  }
  if (repair_bandwidth_mb_per_s < 0.0) {
    return Status::InvalidArgument("repair_bandwidth_mb_per_s must be >= 0");
  }
  if (repair_bandwidth_mb_per_s > 0.0 && repair_burst_mb <= 0.0) {
    return Status::InvalidArgument(
        "repair_bandwidth_mb_per_s > 0 requires repair_burst_mb > 0");
  }
  return Status::Ok();
}

RepairManager::RepairManager(const RepairConfig& config, Jukebox* jukebox,
                             Catalog* catalog, Scheduler* scheduler,
                             DriveOps* ops, SpareSlots* spare)
    : config_(config),
      jukebox_(jukebox),
      catalog_(catalog),
      scheduler_(scheduler),
      ops_(ops),
      spare_(spare),
      block_mb_(jukebox->config().block_size_mb) {
  TJ_CHECK(jukebox_ != nullptr && catalog_ != nullptr &&
           scheduler_ != nullptr && ops_ != nullptr && spare_ != nullptr);
  TJ_CHECK(config_.enabled());
  TJ_CHECK(config_.Validate().ok()) << config_.Validate().message();
  if (config_.repair_bandwidth_mb_per_s > 0.0) {
    TJ_CHECK_GE(config_.repair_burst_mb, static_cast<double>(block_mb_))
        << "repair burst must cover at least one block";
  }
  tokens_ = config_.repair_burst_mb;
  token_time_ = 0.0;
  // The first scrub pass is due one interval into the run, not at t=0.
  next_scrub_due_ = config_.scrub_interval_seconds;
}

// --- token bucket --------------------------------------------------------

double RepairManager::TokensAt(double now) const {
  if (config_.repair_bandwidth_mb_per_s <= 0.0) {
    return std::numeric_limits<double>::max();
  }
  return std::min(
      config_.repair_burst_mb,
      tokens_ + (now - token_time_) * config_.repair_bandwidth_mb_per_s);
}

void RepairManager::SpendTokens(double now, double mb) {
  if (config_.repair_bandwidth_mb_per_s <= 0.0) return;
  tokens_ = std::max(0.0, TokensAt(now) - mb);
  token_time_ = now;
}

double RepairManager::TokenReadyTime(double now, double mb) const {
  if (config_.repair_bandwidth_mb_per_s <= 0.0) return now;
  const double tokens = TokensAt(now);
  if (tokens >= mb - kTokenSlack) return now;
  return now + (mb - tokens) / config_.repair_bandwidth_mb_per_s;
}

// --- task bookkeeping ----------------------------------------------------

bool RepairManager::ChooseTarget(BlockId block, RepairTask* task) {
  const auto already_targeted = [&](TapeId t) {
    const auto it = tasks_.find(block);
    if (it == tasks_.end()) return false;
    for (const RepairTask& other : it->second.tasks) {
      if (other.target_tape == t) return true;
    }
    return false;
  };
  TapeId best = kInvalidTape;
  int64_t best_free = 0;
  for (TapeId t = 0; t < jukebox_->num_tapes(); ++t) {
    const int64_t free = spare_->free(t);
    if (free == 0) continue;  // a dead tape has none
    if (catalog_->ReplicaOn(block, t) != nullptr) continue;
    if (already_targeted(t)) continue;
    if (best == kInvalidTape || free > best_free) {
      best = t;
      best_free = free;
    }
  }
  if (best == kInvalidTape) return false;
  task->target_tape = best;
  task->target_slot = spare_->TakeLowest(best);
  return true;
}

void RepairManager::AbandonBlock(BlockId block) {
  const auto it = tasks_.find(block);
  if (it == tasks_.end()) return;
  for (const RepairTask& task : it->second.tasks) {
    spare_->Release(task.target_tape, task.target_slot);
    ++stats_.repairs_abandoned;
    --outstanding_tasks_;
  }
  // If a source read is still queued, the block has no live replica left,
  // so the scheduler will evict it and OnBackgroundEvicted will find no
  // state here — which is fine.
  tasks_.erase(it);
}

void RepairManager::RequestSourceRead(BlockId block, double now) {
  Request request;
  request.id = next_background_id_++;
  request.block = block;
  request.arrival_time = now;
  request.cls = RequestClass::kBackground;
  tasks_[block].source_outstanding = true;
  if (recorder_ != nullptr) {
    recorder_->RequestArrived(request.id, request.block,
                              /*background=*/true, now);
  }
  scheduler_->EnqueueBackground(request);
}

void RepairManager::OnReplicaDead(BlockId block, TapeId tape, double now) {
  if (!catalog_->HasLiveReplica(block)) {
    // No surviving copy to read from: nothing can be rebuilt.
    AbandonBlock(block);
    return;
  }
  if (!config_.enable_repair) return;
  RepairTask task;
  task.dead_tape = tape;
  task.dead_at = now;
  if (!ChooseTarget(block, &task)) {
    ++stats_.repairs_impossible;
    return;
  }
  BlockState& state = tasks_[block];
  state.tasks.push_back(task);
  ++stats_.repairs_enqueued;
  ++outstanding_tasks_;
  stats_.backlog_peak = std::max(stats_.backlog_peak, outstanding_tasks_);
  if (!state.payload_buffered && !state.source_outstanding) {
    RequestSourceRead(block, now);
  }
}

void RepairManager::OnMediaLost(TapeId tape, BlockId block, bool whole_tape,
                                const std::vector<BlockId>& newly_masked,
                                double now) {
  if (!whole_tape) {
    OnReplicaDead(block, tape, now);
    return;
  }
  spare_->MarkDead(tape);
  // Tasks that were going to write onto the dead tape lost their reserved
  // slots with it; re-target them or drop them.
  std::vector<BlockId> emptied;
  for (auto& [b, state] : tasks_) {
    for (auto it = state.tasks.begin(); it != state.tasks.end();) {
      if (it->target_tape != tape) {
        ++it;
        continue;
      }
      RepairTask moved = *it;
      moved.target_tape = kInvalidTape;
      moved.target_slot = -1;
      if (ChooseTarget(b, &moved)) {
        *it = moved;
        ++it;
      } else {
        ++stats_.repairs_abandoned;
        --outstanding_tasks_;
        it = state.tasks.erase(it);
      }
    }
    if (state.tasks.empty() && !state.source_outstanding) emptied.push_back(b);
  }
  for (const BlockId b : emptied) tasks_.erase(b);
  for (const BlockId b : newly_masked) OnReplicaDead(b, tape, now);
}

void RepairManager::OnSourceReadComplete(BlockId block) {
  const auto it = tasks_.find(block);
  if (it == tasks_.end()) return;  // tasks abandoned while the read flew
  it->second.source_outstanding = false;
  ++stats_.source_reads;
  if (it->second.tasks.empty()) {
    tasks_.erase(it);
    return;
  }
  it->second.payload_buffered = true;
}

void RepairManager::OnBackgroundDisplaced(const Request& request,
                                          double now) {
  const auto it = tasks_.find(request.block);
  if (it == tasks_.end() || !it->second.source_outstanding) return;
  it->second.source_outstanding = false;
  if (it->second.tasks.empty()) {
    tasks_.erase(it);
    return;
  }
  if (catalog_->HasLiveReplica(request.block)) {
    // Re-issue against a surviving replica under a fresh id (the displaced
    // request is gone from the scheduler for good).
    RequestSourceRead(request.block, now);
  } else {
    AbandonBlock(request.block);
  }
}

void RepairManager::OnBackgroundEvicted(BlockId block) {
  const auto it = tasks_.find(block);
  if (it == tasks_.end()) return;
  it->second.source_outstanding = false;
  AbandonBlock(block);
}

// --- staged-write queries ------------------------------------------------

bool RepairManager::FindStaged(TapeId tape, BlockId* block,
                               size_t* idx) const {
  for (const auto& [b, state] : tasks_) {
    if (!state.payload_buffered) continue;
    for (size_t i = 0; i < state.tasks.size(); ++i) {
      if (state.tasks[i].target_tape == tape) {
        *block = b;
        *idx = i;
        return true;
      }
    }
  }
  return false;
}

TapeId RepairManager::BestStagedTarget() const {
  std::vector<int64_t> staged(static_cast<size_t>(jukebox_->num_tapes()), 0);
  for (const auto& [b, state] : tasks_) {
    if (!state.payload_buffered) continue;
    for (const RepairTask& task : state.tasks) {
      ++staged[static_cast<size_t>(task.target_tape)];
    }
  }
  TapeId best = kInvalidTape;
  for (TapeId t = 0; t < jukebox_->num_tapes(); ++t) {
    if (staged[static_cast<size_t>(t)] == 0) continue;
    if (best == kInvalidTape ||
        staged[static_cast<size_t>(t)] > staged[static_cast<size_t>(best)]) {
      best = t;
    }
  }
  return best;
}

// --- execution -----------------------------------------------------------

double RepairManager::CompleteTask(BlockId block, size_t idx, double now) {
  const auto it = tasks_.find(block);
  TJ_CHECK(it != tasks_.end());
  BlockState& state = it->second;
  TJ_CHECK(state.payload_buffered);
  TJ_CHECK(idx < state.tasks.size());
  const RepairTask task = state.tasks[idx];
  state.tasks.erase(state.tasks.begin() + static_cast<std::ptrdiff_t>(idx));
  TJ_CHECK_EQ(jukebox_->mounted_tape(), task.target_tape);

  Tape& target = jukebox_->tape(task.target_tape);
  const Position position = target.PositionOfSlot(task.target_slot);
  double seconds = 0;
  ops_->Write(position, &seconds);
  SpendTokens(now, static_cast<double>(block_mb_));

  const Status placed = target.PlaceBlock(block, task.target_slot);
  TJ_CHECK(placed.ok()) << placed.message();
  // Retire the dead copy's physical slot mapping; bad media is never
  // returned to the free pool.
  Tape& old = jukebox_->tape(task.dead_tape);
  if (const std::optional<int64_t> old_slot = old.SlotOf(block);
      old_slot.has_value()) {
    old.ClearSlot(*old_slot);
  }
  catalog_->RepairReplica(
      block, task.dead_tape,
      Replica{task.target_tape, task.target_slot, position});

  ++stats_.repairs_completed;
  stats_.repair_write_seconds += seconds;
  const double reprotect = now + seconds - task.dead_at;
  stats_.reprotect_seconds_sum += reprotect;
  stats_.reprotect_seconds_max =
      std::max(stats_.reprotect_seconds_max, reprotect);
  if (recorder_ != nullptr) {
    std::ostringstream args;
    args << "{\"block\":" << block << ",\"target_tape\":" << task.target_tape
         << ",\"reprotect_seconds\":" << JsonDouble(reprotect) << '}';
    recorder_->Instant("repair-complete", now + seconds, args.str());
  }
  --outstanding_tasks_;
  if (state.tasks.empty() && !state.source_outstanding) tasks_.erase(it);
  return seconds;
}

double RepairManager::Piggyback(Boundary boundary, double now) {
  if (!config_.enable_repair || boundary != Boundary::kBeforeReschedule) {
    return 0.0;
  }
  const TapeId mounted = jukebox_->mounted_tape();
  if (mounted == kInvalidTape) return 0.0;
  double seconds = 0.0;
  BlockId block = kInvalidBlock;
  size_t idx = 0;
  // Re-scan from scratch after every completion: CompleteTask may erase
  // map entries, and each flush can stage nothing new, so this terminates.
  while (FindStaged(mounted, &block, &idx)) {
    if (TokensAt(now + seconds) <
        static_cast<double>(block_mb_) - kTokenSlack) {
      break;
    }
    seconds += CompleteTask(block, idx, now + seconds);
  }
  return seconds;
}

int64_t RepairManager::NextLiveSlot(TapeId t, int64_t from) const {
  const Tape& tape = jukebox_->tape(t);
  for (; from < tape.num_slots(); ++from) {
    const BlockId block = tape.BlockAtSlot(from);
    if (block != kInvalidBlock &&
        catalog_->LiveReplicaOn(block, t) != nullptr) {
      break;
    }
  }
  return from;
}

void RepairManager::MaybeStartScrubPass(double now) {
  if (scrub_tape_ != kInvalidTape || now < next_scrub_due_) return;
  const TapeId num_tapes = jukebox_->num_tapes();
  for (TapeId i = 0; i < num_tapes; ++i) {
    const TapeId t = (scrub_cursor_ + i) % num_tapes;
    const int64_t slots = jukebox_->tape(t).num_slots();
    if (spare_->dead(t) || NextLiveSlot(t, 0) == slots) continue;
    scrub_tape_ = t;
    scrub_slot_ = 0;
    scrub_cursor_ = (t + 1) % num_tapes;
    return;
  }
  // Nothing live to scrub anywhere; skip this pass.
  next_scrub_due_ = now + config_.scrub_interval_seconds;
}

BackgroundWork::Quantum RepairManager::ScrubStep(double now) {
  Quantum quantum;
  const TapeId scrubbed = scrub_tape_;
  TJ_CHECK_NE(scrubbed, kInvalidTape);
  TJ_CHECK_EQ(jukebox_->mounted_tape(), scrubbed);
  Tape& tape = jukebox_->tape(scrubbed);
  scrub_slot_ = NextLiveSlot(scrubbed, scrub_slot_);
  if (scrub_slot_ >= tape.num_slots()) {
    ++stats_.scrub_passes;
    if (recorder_ != nullptr) {
      std::ostringstream args;
      args << "{\"tape\":" << scrubbed
           << ",\"passes\":" << stats_.scrub_passes
           << ",\"errors_detected\":" << stats_.scrub_errors_detected
           << '}';
      recorder_->Instant("scrub-pass-complete", now, args.str());
    }
    scrub_tape_ = kInvalidTape;
    next_scrub_due_ = now + config_.scrub_interval_seconds;
    return quantum;
  }

  const int64_t slot = scrub_slot_++;
  // Scrub reads draw from the same fault stream and charge the same retry
  // and backoff costs as client reads — that is the whole point of
  // scrubbing.
  const DriveOps::BlockRead read = ops_->Read(
      jukebox_->drive(), tape.PositionOfSlot(slot), now, nullptr, nullptr);
  ++stats_.scrub_blocks_read;
  stats_.scrub_seconds += read.seconds;
  SpendTokens(now, static_cast<double>(block_mb_));
  quantum.seconds = read.seconds;
  if (!read.outcome.permanent_error) return quantum;

  // A latent error, found before any client tripped over it; the Simulator
  // masks it and calls OnMediaLost.
  ++stats_.scrub_errors_detected;
  quantum.lost_tape = scrubbed;
  quantum.lost_block = tape.BlockAtSlot(slot);
  quantum.lost_whole_tape = read.outcome.whole_tape;
  if (read.outcome.whole_tape) {
    // The pass dies with the tape.
    scrub_tape_ = kInvalidTape;
    next_scrub_due_ = now + read.seconds + config_.scrub_interval_seconds;
  }
  return quantum;
}

double RepairManager::NextIdleWorkTime(double now) const {
  double best = std::numeric_limits<double>::infinity();
  const double block_mb = static_cast<double>(block_mb_);
  const double token_ready = TokenReadyTime(now, block_mb);
  if (config_.enable_repair && BestStagedTarget() != kInvalidTape) {
    best = token_ready;
  }
  if (config_.scrub_interval_seconds > 0.0 && catalog_->HasAnyLive()) {
    const double scrub_at =
        scrub_tape_ != kInvalidTape ? now : next_scrub_due_;
    best = std::min(best, std::max(scrub_at, token_ready));
  }
  return best;
}

BackgroundWork::Quantum RepairManager::IdleQuantum(double now) {
  Quantum quantum;
  const double block_mb = static_cast<double>(block_mb_);
  // Staged repair writes first: they restore redundancy, scrub only looks
  // for more work.
  if (config_.enable_repair && TokensAt(now) >= block_mb - kTokenSlack) {
    const TapeId mounted = jukebox_->mounted_tape();
    BlockId block = kInvalidBlock;
    size_t idx = 0;
    if (mounted != kInvalidTape && FindStaged(mounted, &block, &idx)) {
      quantum.seconds = CompleteTask(block, idx, now);
      return quantum;
    }
    const TapeId target = BestStagedTarget();
    if (target != kInvalidTape && target != mounted) {
      quantum.mount_seconds = ops_->Mount(target);
      ++stats_.repair_mounts;
      return quantum;
    }
  }
  if (config_.scrub_interval_seconds > 0.0) {
    MaybeStartScrubPass(now);
    if (scrub_tape_ != kInvalidTape) {
      if (jukebox_->mounted_tape() != scrub_tape_) {
        quantum.mount_seconds = ops_->Mount(scrub_tape_);
        ++stats_.scrub_mounts;
        return quantum;
      }
      if (TokensAt(now) >= block_mb - kTokenSlack) return ScrubStep(now);
    }
  }
  return quantum;
}

void RepairManager::Finish(double /*end*/, SimulationResult* result) {
  stats_.backlog_final = outstanding_tasks_;
  result->repair_enabled = true;
  result->repair = stats_;
}

}  // namespace tapejuke
