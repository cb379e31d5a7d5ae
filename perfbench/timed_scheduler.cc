#include "timed_scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/check.h"

namespace perfbench {

using tapejuke::Position;
using tapejuke::Request;
using tapejuke::SchedulerOptions;
using tapejuke::ServiceEntry;
using tapejuke::TapeId;
using Clock = std::chrono::steady_clock;

namespace {

int64_t ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

void Record(CallStats* stats, int64_t ns, bool keep_sample) {
  ++stats->calls;
  stats->total_ns += ns;
  if (keep_sample) {
    stats->samples_ns.push_back(static_cast<int32_t>(
        std::min<int64_t>(ns, std::numeric_limits<int32_t>::max())));
  }
}

}  // namespace

TimedScheduler::TimedScheduler(std::unique_ptr<tapejuke::Scheduler> inner,
                               const tapejuke::Jukebox* jukebox,
                               const tapejuke::Catalog* catalog)
    : Scheduler(jukebox, catalog, SchedulerOptions{}),
      inner_(std::move(inner)) {
  TJ_CHECK(inner_ != nullptr);
}

void TimedScheduler::OnArrivalNow(const Request& request,
                                  Position committed_head) {
  const size_t pending_before = inner_->pending_size();
  const Clock::time_point start = Clock::now();
  inner_->OnArrival(request, committed_head);
  Record(&stats_[static_cast<int>(SchedCall::kArrival)], ElapsedNs(start),
         true);
  if (inner_->pending_size() <= pending_before) ++arrivals_inserted_;
}

TapeId TimedScheduler::MajorReschedule() {
  const Clock::time_point start = Clock::now();
  const TapeId tape = inner_->MajorReschedule();
  Record(&stats_[static_cast<int>(SchedCall::kMajor)], ElapsedNs(start),
         true);
  major_entries_ += static_cast<int64_t>(inner_->sweep_size());
  return tape;
}

std::optional<ServiceEntry> TimedScheduler::PopNext() {
  const Clock::time_point start = Clock::now();
  std::optional<ServiceEntry> entry = inner_->PopNext();
  Record(&stats_[static_cast<int>(SchedCall::kPop)], ElapsedNs(start), false);
  return entry;
}

void TimedScheduler::EnqueueBackground(const Request& request) {
  const Clock::time_point start = Clock::now();
  inner_->EnqueueBackground(request);
  Record(&stats_[static_cast<int>(SchedCall::kBackground)], ElapsedNs(start),
         false);
}

std::vector<Request> TimedScheduler::DrainSweep() {
  const Clock::time_point start = Clock::now();
  std::vector<Request> drained = inner_->DrainSweep();
  Record(&stats_[static_cast<int>(SchedCall::kEvict)], ElapsedNs(start),
         false);
  return drained;
}

std::vector<Request> TimedScheduler::EvictUnservablePending() {
  const Clock::time_point start = Clock::now();
  std::vector<Request> evicted = inner_->EvictUnservablePending();
  Record(&stats_[static_cast<int>(SchedCall::kEvict)], ElapsedNs(start),
         false);
  return evicted;
}

std::vector<Request> TimedScheduler::EvictExpired(double now) {
  const Clock::time_point start = Clock::now();
  std::vector<Request> expired = inner_->EvictExpired(now);
  Record(&stats_[static_cast<int>(SchedCall::kEvict)], ElapsedNs(start),
         false);
  return expired;
}

double TimedScheduler::self_seconds() const {
  int64_t ns = 0;
  for (const CallStats& s : stats_) ns += s.total_ns;
  return static_cast<double>(ns) * 1e-9;
}

int64_t TimedScheduler::timed_calls() const {
  int64_t calls = 0;
  for (const CallStats& s : stats_) calls += s.calls;
  return calls;
}

double ClockReadNanoseconds() {
  constexpr int kReads = 20000;
  std::vector<double> per_read;
  for (int trial = 0; trial < 7; ++trial) {
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per_read.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(last - start)
                .count()) /
        kReads);
  }
  std::nth_element(per_read.begin(), per_read.begin() + 3, per_read.end());
  return per_read[3];
}

}  // namespace perfbench
