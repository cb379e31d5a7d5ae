#include "sched/sweep_builder.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

void SlotBitmap::Reset(size_t groups, int64_t slots) {
  TJ_CHECK_GE(slots, 0);
  groups_ = groups;
  slots_ = slots;
  words_ = static_cast<size_t>(slots + 63) / 64;
  bits_.assign(groups * words_, 0);
}

void SlotCountingSort::Reset(size_t groups, int64_t slots,
                             int64_t block_size_mb) {
  for (size_t g = 0; g < groups_; ++g) {
    used_.ForEach(g, [&](int64_t slot) { bucket_[Index(g, slot)] = 0; });
  }
  used_.Reset(groups, slots);
  groups_ = groups;
  slots_ = slots;
  block_size_mb_ = block_size_mb;
  const size_t size = groups * static_cast<size_t>(slots);
  if (bucket_.size() < size) bucket_.resize(size, 0);
}

uint32_t SlotCountingSort::Offsets(size_t group) {
  uint32_t running = 0;
  used_.ForEach(group, [&](int64_t slot) {
    uint32_t& b = bucket_[Index(group, slot)];
    const uint32_t count = b;
    b = running;
    running += count;
  });
  return running;
}

std::vector<uint32_t> PendingOnTape(const Catalog& catalog, TapeId tape,
                                    int64_t block_size_mb,
                                    const Position* envelope_limit,
                                    const std::vector<Request>& pending) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pending.size(); ++i) {
    const Replica* replica = catalog.LiveReplicaOn(pending[i].block, tape);
    if (replica != nullptr &&
        (envelope_limit == nullptr ||
         replica->position + block_size_mb <= *envelope_limit)) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

void ExtractSweepForTape(const Catalog& catalog, TapeId tape,
                         Position start_head, int64_t block_size_mb,
                         const std::vector<uint32_t>& indices,
                         std::vector<Request>* pending, Sweep* sweep,
                         SweepScratch* scratch) {
  TJ_CHECK(pending != nullptr);
  TJ_CHECK(sweep != nullptr);
  TJ_CHECK(scratch != nullptr);
  TJ_CHECK(sweep->empty()) << "sweep must be drained before rebuilding";
  if (indices.empty()) return;

  // Copy the extracted requests out (in pending order), then compact the
  // kept ones toward the front, preserving their order: each run between
  // two extracted requests moves down over the gaps so far. Only the part
  // of `pending` from the first extracted request on moves.
  auto& extracted = scratch->extracted;
  extracted.clear();
  int64_t slots = 0;  // one past the highest extracted slot
  for (const uint32_t i : indices) {
    const Request& request = (*pending)[i];
    const Replica* replica = catalog.LiveReplicaOn(request.block, tape);
    TJ_DCHECK(replica != nullptr);
    slots = std::max(slots, replica->slot + 1);
    extracted.push_back(SweepScratch::Tagged{replica, request});
  }
  auto out = pending->begin() + indices.front();
  for (size_t k = 0; k < indices.size(); ++k) {
    const auto run = pending->begin() + indices[k] + 1;
    const auto run_end = k + 1 < indices.size()
                             ? pending->begin() + indices[k + 1]
                             : pending->end();
    out = std::move(run, run_end, out);
  }
  pending->erase(out, pending->end());

  // Group by position, stably: each entry's requests stay in pending order.
  auto& sort = scratch->sort;
  sort.Reset(1, slots, block_size_mb);
  for (const auto& e : extracted) sort.Count(0, *e.replica);
  auto& order = scratch->order;
  order.resize(sort.Offsets(0));
  for (size_t i = 0; i < extracted.size(); ++i) {
    order[sort.Place(0, *extracted[i].replica)] = static_cast<uint32_t>(i);
  }

  // One entry per distinct position (one block per position per tape).
  // Forward phase: ascending positions >= the start head; reverse phase:
  // descending positions below it.
  const auto at = [&](size_t k) -> const SweepScratch::Tagged& {
    return extracted[order[k]];
  };
  const auto position = [&](size_t k) { return at(k).replica->position; };
  const auto build_entry = [&](size_t begin, size_t end) {
    ServiceEntry entry;
    entry.position = position(begin);
    entry.block = at(begin).request.block;
    entry.requests.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      entry.requests.push_back(at(k).request);
    }
    return entry;
  };
  size_t reverse_end = 0;  // first index with position >= start_head
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && position(j) == position(i)) ++j;
    if (position(i) >= start_head) {
      sweep->AppendForward(build_entry(i, j));
    } else {
      reverse_end = j;
    }
    i = j;
  }
  for (size_t end = reverse_end; end > 0;) {
    size_t begin = end - 1;
    while (begin > 0 && position(begin - 1) == position(end - 1)) --begin;
    sweep->AppendReverse(build_entry(begin, end));
    end = begin;
  }
}

}  // namespace tapejuke
