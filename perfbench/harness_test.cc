// The benchmark's own tests: the timing decorator forwards every entry
// point, the emitted metric names match BENCHMARK.json, and the per-layer
// split of a traced run adds up.
//
// Run with `python3 perfbench/run.py --test`.

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "layout/placement.h"
#include "timed_scheduler.h"

namespace perfbench {
namespace {

using tapejuke::Catalog;
using tapejuke::Jukebox;
using tapejuke::Position;
using tapejuke::Request;
using tapejuke::ServiceEntry;
using tapejuke::TapeId;

/// Counts every virtual call the decorator makes into it.
class RecordingScheduler : public tapejuke::Scheduler {
 public:
  RecordingScheduler(const Jukebox* jukebox, const Catalog* catalog)
      : Scheduler(jukebox, catalog, tapejuke::SchedulerOptions{}) {}

  mutable std::map<std::string, int> calls;

  std::string name() const override { return Count("name"), "recording"; }
  TapeId MajorReschedule() override {
    ++calls["MajorReschedule"];
    return 3;
  }
  std::optional<ServiceEntry> PopNext() override {
    ++calls["PopNext"];
    ServiceEntry entry;
    entry.position = 7;
    return entry;
  }
  void EnqueueBackground(const Request&) override {
    ++calls["EnqueueBackground"];
  }
  bool sweep_empty() const override { return Count("sweep_empty"), false; }
  size_t sweep_size() const override { return Count("sweep_size"), 11; }
  size_t pending_size() const override { return Count("pending_size"), 0; }
  size_t background_size() const override {
    return Count("background_size"), 13;
  }
  bool HasWork() const override { return Count("HasWork"), true; }
  std::vector<Request> DrainSweep() override {
    ++calls["DrainSweep"];
    return {Request{}};
  }
  std::vector<Request> EvictUnservablePending() override {
    ++calls["EvictUnservablePending"];
    return {Request{}, Request{}};
  }
  std::vector<Request> EvictExpired(double) override {
    ++calls["EvictExpired"];
    return {};
  }
  const tapejuke::Sweep& sweep() const override {
    Count("sweep");
    return sweep_;
  }
  void set_decision_sink(tapejuke::obs::DecisionSink*) override {
    ++calls["set_decision_sink"];
  }

 protected:
  void OnArrivalNow(const Request&, Position) override {
    ++calls["OnArrivalNow"];
  }

 private:
  void Count(const std::string& name) const { ++calls[name]; }
};

TEST(TimedScheduler, ForwardsEveryVirtualEntryPoint) {
  Jukebox jukebox(tapejuke::JukeboxConfig{});
  const Catalog catalog =
      tapejuke::LayoutBuilder::Build(&jukebox, tapejuke::LayoutSpec{}).value();
  auto owned = std::make_unique<RecordingScheduler>(&jukebox, &catalog);
  RecordingScheduler* inner = owned.get();
  TimedScheduler timed(std::move(owned), &jukebox, &catalog);

  EXPECT_EQ(timed.name(), "recording");
  timed.OnArrival(Request{}, 0);
  EXPECT_EQ(timed.MajorReschedule(), 3);
  EXPECT_EQ(timed.PopNext()->position, 7);
  timed.EnqueueBackground(Request{});
  EXPECT_FALSE(timed.sweep_empty());
  EXPECT_EQ(timed.sweep_size(), 11u);
  EXPECT_EQ(timed.pending_size(), 0u);
  EXPECT_EQ(timed.background_size(), 13u);
  EXPECT_TRUE(timed.HasWork());
  EXPECT_EQ(timed.DrainSweep().size(), 1u);
  EXPECT_EQ(timed.EvictUnservablePending().size(), 2u);
  EXPECT_TRUE(timed.EvictExpired(1.0).empty());
  EXPECT_EQ(&timed.sweep(), &inner->sweep());
  timed.set_decision_sink(nullptr);

  for (const char* name :
       {"name", "OnArrivalNow", "MajorReschedule", "PopNext",
        "EnqueueBackground", "sweep_empty", "sweep_size", "background_size",
        "HasWork", "DrainSweep", "EvictUnservablePending", "EvictExpired",
        "sweep", "set_decision_sink"}) {
    EXPECT_GE(inner->calls[name], 1) << name << " was not forwarded";
  }
  EXPECT_EQ(timed.stats(SchedCall::kMajor).calls, 1);
  EXPECT_EQ(timed.stats(SchedCall::kArrival).calls, 1);
  EXPECT_EQ(timed.stats(SchedCall::kPop).calls, 1);
  EXPECT_EQ(timed.stats(SchedCall::kEvict).calls, 3);
  EXPECT_EQ(timed.stats(SchedCall::kBackground).calls, 1);
  EXPECT_EQ(timed.stats(SchedCall::kMajor).samples_ns.size(), 1u);
  EXPECT_EQ(timed.timed_calls(), 7);
  // The recorded arrival did not grow the (always empty) pending list.
  EXPECT_EQ(timed.arrivals_inserted(), 1);
  EXPECT_EQ(timed.major_entries(), 11);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The "name" fields of one metric list in the manifest, in order.
std::vector<std::string> ManifestNames(const std::string& manifest,
                                       const std::string& list) {
  const size_t begin = manifest.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list;
  const size_t end = manifest.find(']', begin);
  const std::string section = manifest.substr(begin, end - begin);
  const std::regex name_field("\"name\":\\s*\"([^\"]*)\"");
  std::vector<std::string> names;
  for (std::sregex_iterator it(section.begin(), section.end(), name_field);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(MetricNames, MatchManifestAndSyntax) {
  const std::string manifest = ReadFile(PERFBENCH_MANIFEST);
  ASSERT_FALSE(manifest.empty());
  const std::regex name_syntax("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_syntax("[A-Za-z0-9_/%.-]{1,16}");
  for (const bool trace : {false, true}) {
    std::vector<std::string> emitted;
    for (const MetricSpec& spec : MetricSpecs(trace)) {
      EXPECT_TRUE(std::regex_match(spec.name, name_syntax)) << spec.name;
      EXPECT_TRUE(std::regex_match(spec.unit, unit_syntax)) << spec.unit;
      emitted.push_back(spec.name);
    }
    EXPECT_EQ(std::set<std::string>(emitted.begin(), emitted.end()).size(),
              emitted.size());
    EXPECT_EQ(emitted,
              ManifestNames(manifest, trace ? "per_layer" : "end_to_end"));
  }
  std::vector<std::string> workloads = ManifestNames(manifest, "workloads");
  EXPECT_EQ(workloads, WorkloadNames());
}

double Value(const Report& report, bool trace, const std::string& name) {
  const std::vector<MetricSpec>& specs = MetricSpecs(trace);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) return report.values[i];
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

Report RunSmall(Workload workload, bool trace) {
  Options options;
  options.workload = workload;
  options.seed = 5;
  options.seconds = 0;
  options.trace = trace;
  options.scale = 0.01;
  return Run(options);
}

TEST(Harness, PlainRunsPassTheirChecks) {
  for (const std::string& name : WorkloadNames()) {
    const Report report = RunSmall(*ParseWorkload(name), false);
    EXPECT_TRUE(report.failures.empty()) << name;
    ASSERT_EQ(report.values.size(), MetricSpecs(false).size());
    for (size_t i = 0; i < report.values.size(); ++i) {
      EXPECT_GT(report.values[i], 0) << name << " " << MetricSpecs(false)[i].name;
    }
    const std::string json = ResultJson(report, false);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u);
  }
}

TEST(Harness, TracedSplitAddsUpToRunWall) {
  for (const std::string& name : WorkloadNames()) {
    const Workload workload = *ParseWorkload(name);
    const Report report = RunSmall(workload, true);
    EXPECT_TRUE(report.failures.empty()) << name;
    const auto v = [&](const std::string& metric) {
      return Value(report, true, metric);
    };
    const double run = v("trace.run_wall_s");
    EXPECT_GT(run, 0) << name;
    EXPECT_NEAR(v("sched.self_s") + v("sim.self_s") + v("other.self_s"), run,
                1e-9 * run)
        << name;
    EXPECT_NEAR(v("sched.major.self_s") + v("sched.arrival.self_s") +
                    v("sched.pop.self_s") + v("sched.evict.self_s") +
                    v("sched.background.self_s"),
                v("sched.self_s"), 1e-9)
        << name;
    EXPECT_GE(v("sim.self_s"), 0) << name;
    double states = 0;
    for (const MetricSpec& spec : MetricSpecs(true)) {
      if (spec.name.rfind("obs.state.", 0) == 0) states += v(spec.name);
    }
    EXPECT_NEAR(states, 1.0, 1e-9) << name;
    if (workload == Workload::kFarmMultidrive) {
      EXPECT_EQ(v("sched.self_s"), 0);
      EXPECT_GT(v("farm.serial_wall_s"), 0);
      EXPECT_GT(v("sim.md.box_wall_s"), 0);
    } else {
      EXPECT_GT(v("sched.share"), 0) << name;
      EXPECT_GT(v("sched.major.calls"), 0) << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
