// Shared test helpers: a tiny hand-built jukebox + catalog rig.

#ifndef TAPEJUKE_TESTS_TEST_UTIL_H_
#define TAPEJUKE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "layout/catalog.h"
#include "tape/jukebox.h"
#include "util/check.h"

namespace tapejuke {

/// A small jukebox whose tape contents are placed by hand, from which a
/// catalog is derived. Block ids must be dense (0..L-1); hot blocks are the
/// ids below `num_hot`.
class TinyRig {
 public:
  explicit TinyRig(int32_t num_tapes, int64_t capacity_mb = 160,
                   int64_t block_size_mb = 16)
      : jukebox_(MakeConfig(num_tapes, capacity_mb, block_size_mb)) {}

  /// Places a copy of `block` at `slot` on `tape`.
  void Place(BlockId block, TapeId tape, int64_t slot) {
    const Status status = jukebox_.tape(tape).PlaceBlock(block, slot);
    TJ_CHECK(status.ok()) << status.ToString();
  }

  /// Derives the catalog from the placed blocks.
  Catalog BuildCatalog(int64_t num_hot = 0) {
    std::map<BlockId, std::vector<Replica>> by_block;
    for (TapeId t = 0; t < jukebox_.num_tapes(); ++t) {
      const Tape& tape = jukebox_.tape(t);
      for (int64_t s = 0; s < tape.num_slots(); ++s) {
        const BlockId b = tape.BlockAtSlot(s);
        if (b == kInvalidBlock) continue;
        by_block[b].push_back(Replica{t, s, tape.PositionOfSlot(s)});
      }
    }
    TJ_CHECK(!by_block.empty());
    const BlockId max_block = by_block.rbegin()->first;
    std::vector<std::vector<Replica>> replicas(
        static_cast<size_t>(max_block) + 1);
    for (auto& [block, copies] : by_block) {
      replicas[static_cast<size_t>(block)] = std::move(copies);
    }
    return Catalog(std::move(replicas), num_hot);
  }

  Jukebox& jukebox() { return jukebox_; }
  const TimingModel& model() const { return jukebox_.model(); }
  int64_t block_mb() const { return jukebox_.config().block_size_mb; }

 private:
  static JukeboxConfig MakeConfig(int32_t num_tapes, int64_t capacity_mb,
                                  int64_t block_size_mb) {
    JukeboxConfig config;
    config.num_tapes = num_tapes;
    config.block_size_mb = block_size_mb;
    config.timing.tape_capacity_mb = capacity_mb;
    return config;
  }

  Jukebox jukebox_;
};

/// The longest one block write (or read) can take on `jukebox`: a locate
/// across the whole tape, then the block.
inline double MaxBlockWrite(const Jukebox& jukebox) {
  const TimingModel& model = jukebox.model();
  const Position end = jukebox.config().timing.tape_capacity_mb;
  const int64_t mb = jukebox.config().block_size_mb;
  return std::max(model.LocateAndReadTime(0, end, mb),
                  model.LocateAndReadTime(end, 0, mb));
}

/// The time of the first major reschedule in the decision log at `path`
/// (+infinity when it has none).
inline double FirstDecisionTime(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return std::numeric_limits<double>::infinity();
  const size_t at = line.find("\"t\":");
  TJ_CHECK(at != std::string::npos) << line;
  return std::stod(line.substr(at + 4));
}

}  // namespace tapejuke

#endif  // TAPEJUKE_TESTS_TEST_UTIL_H_
