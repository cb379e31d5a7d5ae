// TimedScheduler: a forwarding Scheduler decorator that times every call the
// simulator makes into the scheduler layer, from outside the library.
//
// It wraps any Scheduler and forwards each virtual entry point unchanged, so
// a run under the decorator makes exactly the decisions of the plain run
// (the benchmark asserts this by comparing results). The state-changing
// entry points are timed with std::chrono::steady_clock and grouped into the
// five buckets the benchmark reports:
//
//   major       MajorReschedule
//   arrival     OnArrival (the incremental scheduler)
//   pop         PopNext
//   evict       EvictExpired, EvictUnservablePending, DrainSweep
//   background  EnqueueBackground
//
// The read-only queries (sweep_empty, pending_size, HasWork, ...) are
// forwarded untimed: they are a few loads each, and timing them would cost
// more than they do. Their time stays in the caller's (the simulator's)
// share.

#ifndef PERFBENCH_TIMED_SCHEDULER_H_
#define PERFBENCH_TIMED_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

enum class SchedCall { kMajor, kArrival, kPop, kEvict, kBackground };
inline constexpr int kNumSchedCalls = 5;

/// Calls and host nanoseconds of one bucket. `samples_ns` holds one entry
/// per call for the buckets whose quantiles are reported (major, arrival).
struct CallStats {
  int64_t calls = 0;
  int64_t total_ns = 0;
  std::vector<int32_t> samples_ns;
};

class TimedScheduler : public tapejuke::Scheduler {
 public:
  /// Takes ownership of `inner`, which must have been built against
  /// `jukebox` and `catalog` and must not batch arrivals (arrival_batch 0):
  /// the decorator applies each arrival as it comes.
  TimedScheduler(std::unique_ptr<tapejuke::Scheduler> inner,
                 const tapejuke::Jukebox* jukebox,
                 const tapejuke::Catalog* catalog);

  std::string name() const override { return inner_->name(); }

  tapejuke::TapeId MajorReschedule() override;
  std::optional<tapejuke::ServiceEntry> PopNext() override;
  void EnqueueBackground(const tapejuke::Request& request) override;
  std::vector<tapejuke::Request> DrainSweep() override;
  std::vector<tapejuke::Request> EvictUnservablePending() override;
  std::vector<tapejuke::Request> EvictExpired(double now) override;

  const tapejuke::Sweep& sweep() const override { return inner_->sweep(); }
  bool sweep_empty() const override { return inner_->sweep_empty(); }
  size_t sweep_size() const override { return inner_->sweep_size(); }
  size_t pending_size() const override { return inner_->pending_size(); }
  size_t background_size() const override {
    return inner_->background_size();
  }
  bool HasWork() const override { return inner_->HasWork(); }
  void set_decision_sink(tapejuke::obs::DecisionSink* sink) override {
    inner_->set_decision_sink(sink);
  }

  const CallStats& stats(SchedCall call) const {
    return stats_[static_cast<int>(call)];
  }
  /// Sum of every bucket's host time, seconds.
  double self_seconds() const;
  /// Number of timed calls (each paid for two clock reads).
  int64_t timed_calls() const;

  /// Arrivals that did not join the pending list: they were inserted into
  /// the running sweep (the pending list did not grow).
  int64_t arrivals_inserted() const { return arrivals_inserted_; }
  /// Sweep entries built by the major reschedules, summed.
  int64_t major_entries() const { return major_entries_; }

  const tapejuke::Scheduler& inner() const { return *inner_; }

 protected:
  void OnArrivalNow(const tapejuke::Request& request,
                    tapejuke::Position committed_head) override;

 private:
  std::unique_ptr<tapejuke::Scheduler> inner_;
  std::array<CallStats, kNumSchedCalls> stats_;
  int64_t arrivals_inserted_ = 0;
  int64_t major_entries_ = 0;
};

/// Host nanoseconds one steady_clock::now() read costs on this machine
/// (median of a short calibration loop).
double ClockReadNanoseconds();

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SCHEDULER_H_
