#include "layout/catalog.h"

#include <set>

namespace tapejuke {

Catalog::Catalog(std::vector<std::vector<Replica>> replicas, int64_t num_hot)
    : num_hot_(num_hot) {
  TJ_CHECK_GE(num_hot_, 0);
  TJ_CHECK_LE(num_hot_, static_cast<int64_t>(replicas.size()));
  size_t total = 0;
  for (const auto& copies : replicas) total += copies.size();
  flat_.reserve(total);
  offsets_.reserve(replicas.size() + 1);
  offsets_.push_back(0);
  for (const auto& copies : replicas) {
    TJ_CHECK(!copies.empty()) << "every block needs at least one replica";
    std::set<TapeId> tapes;
    for (const Replica& r : copies) {
      TJ_CHECK_GE(r.tape, 0);
      TJ_CHECK_GE(r.slot, 0);
      TJ_CHECK_GE(r.position, 0);
      TJ_CHECK(tapes.insert(r.tape).second)
          << "duplicate replica tape" << r.tape;
      flat_.push_back(r);
    }
    offsets_.push_back(flat_.size());
  }
}

void Catalog::EnsureDeadMask() {
  if (!dead_.empty()) return;
  dead_.assign(flat_.size(), 0);
  live_count_.resize(static_cast<size_t>(num_blocks()));
  for (size_t b = 0; b < live_count_.size(); ++b) {
    live_count_[b] = static_cast<int32_t>(offsets_[b + 1] - offsets_[b]);
  }
}

bool Catalog::MarkReplicaDead(BlockId block, TapeId tape) {
  const Replica* r = ReplicaOn(block, tape);
  if (r == nullptr) return false;
  EnsureDeadMask();
  const size_t idx = static_cast<size_t>(r - flat_.data());
  if (dead_[idx] != 0) return false;
  dead_[idx] = 1;
  ++dead_count_;
  --live_count_[static_cast<size_t>(block)];
  return true;
}

int64_t Catalog::MarkTapeDead(TapeId tape,
                              std::vector<BlockId>* newly_masked) {
  EnsureDeadMask();
  int64_t count = 0;
  for (BlockId block = 0; block < num_blocks(); ++block) {
    for (size_t i = offsets_[static_cast<size_t>(block)];
         i < offsets_[static_cast<size_t>(block) + 1]; ++i) {
      if (flat_[i].tape == tape && dead_[i] == 0) {
        dead_[i] = 1;
        ++count;
        --live_count_[static_cast<size_t>(block)];
        if (newly_masked != nullptr) newly_masked->push_back(block);
      }
    }
  }
  dead_count_ += count;
  return count;
}

void Catalog::AddReplica(BlockId block, const Replica& replica) {
  TJ_CHECK(block >= 0 && block < num_blocks());
  TJ_CHECK(ReplicaOn(block, replica.tape) == nullptr)
      << "block already has a copy on tape" << replica.tape;
  TJ_CHECK_GE(replica.tape, 0);
  TJ_CHECK_GE(replica.slot, 0);
  TJ_CHECK_GE(replica.position, 0);
  // Insert at the end of the block's span and shift every later block's
  // span by one. Lifecycle writes are rare relative to lookups, so the
  // O(copies) memmove is a good trade for contiguous lookup storage.
  const auto insert_at =
      flat_.begin() +
      static_cast<std::ptrdiff_t>(offsets_[static_cast<size_t>(block) + 1]);
  const size_t insert_idx = offsets_[static_cast<size_t>(block) + 1];
  flat_.insert(insert_at, replica);
  if (!dead_.empty()) {
    // Keep the dead mask index-parallel with flat_; new copies are alive.
    dead_.insert(dead_.begin() + static_cast<std::ptrdiff_t>(insert_idx), 0);
    ++live_count_[static_cast<size_t>(block)];
  }
  for (size_t b = static_cast<size_t>(block) + 1; b < offsets_.size(); ++b) {
    ++offsets_[b];
  }
}

void Catalog::RepairReplica(BlockId block, TapeId old_tape,
                            const Replica& replacement) {
  TJ_CHECK(block >= 0 && block < num_blocks());
  TJ_CHECK_GE(replacement.tape, 0);
  TJ_CHECK_GE(replacement.slot, 0);
  TJ_CHECK_GE(replacement.position, 0);
  TJ_CHECK(ReplicaOn(block, replacement.tape) == nullptr)
      << "block already has a copy on tape" << replacement.tape;
  const Replica* r = ReplicaOn(block, old_tape);
  TJ_CHECK(r != nullptr)
      << "block" << block << "has no replica on tape" << old_tape;
  const size_t idx = static_cast<size_t>(r - flat_.data());
  TJ_CHECK(!dead_.empty() && dead_[idx] != 0)
      << "only dead replicas can be repaired";
  flat_[idx] = replacement;
  dead_[idx] = 0;
  --dead_count_;
  ++live_count_[static_cast<size_t>(block)];
}

}  // namespace tapejuke
