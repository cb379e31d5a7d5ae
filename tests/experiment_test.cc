// Tests for the core experiment API: algorithm parsing, the factory, the
// runner, parametric curves, and the cost-performance analysis.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/cost_performance.h"

namespace tapejuke {
namespace {

// One mapping from an algorithm to the multi-drive engine's configuration,
// shared by the farm and run_experiment --drives: the family decides
// dynamic insertion, the policy and options carry over, and the families
// the engine cannot run are rejected rather than silently replaced.
TEST(MultiDriveConfigFor, MapsGreedyFamiliesAndRejectsTheRest) {
  AlgorithmSpec fixed = AlgorithmSpec::Parse("static-max-requests").value();
  fixed.options.allow_reverse_phase = false;
  fixed.options.arrival_batch = 7;
  const StatusOr<MultiDriveConfig> static_config =
      MultiDriveConfigFor(fixed, 3);
  ASSERT_TRUE(static_config.ok());
  EXPECT_EQ(static_config->num_drives, 3);
  EXPECT_EQ(static_config->policy, TapePolicy::kMaxRequests);
  EXPECT_FALSE(static_config->dynamic_insertion);
  EXPECT_FALSE(static_config->options.allow_reverse_phase);
  EXPECT_EQ(static_config->options.arrival_batch, 7);

  const StatusOr<MultiDriveConfig> dynamic_config = MultiDriveConfigFor(
      AlgorithmSpec::Parse("dynamic-oldest-max-bandwidth").value(), 2);
  ASSERT_TRUE(dynamic_config.ok());
  EXPECT_EQ(dynamic_config->num_drives, 2);
  EXPECT_EQ(dynamic_config->policy, TapePolicy::kOldestMaxBandwidth);
  EXPECT_TRUE(dynamic_config->dynamic_insertion);
  EXPECT_TRUE(dynamic_config->options.allow_reverse_phase);

  for (const char* name : {"fifo", "envelope-max-bandwidth"}) {
    const StatusOr<MultiDriveConfig> rejected =
        MultiDriveConfigFor(AlgorithmSpec::Parse(name).value(), 2);
    ASSERT_FALSE(rejected.ok()) << name;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("static and dynamic greedy"),
              std::string::npos);
  }
}

// Inputs only the single-drive engine honours fail loudly on the
// multi-drive engine through one check, instead of being ignored.
TEST(MultiDriveConfig, ValidateRejectsSingleDriveOnlyInputs) {
  const MultiDriveConfig drives =
      MultiDriveConfigFor(
          AlgorithmSpec::Parse("dynamic-max-bandwidth").value(), 2)
          .value();
  const SimulationConfig plain;
  EXPECT_TRUE(drives.Validate(plain).ok());

  SimulationConfig think = plain;
  think.workload.think_time_seconds = 5000;
  const Status think_status = drives.Validate(think);
  EXPECT_EQ(think_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(think_status.message().find("think time"), std::string::npos);

  SimulationConfig repair = plain;
  repair.faults.permanent_media_error_prob = 1e-3;
  repair.repair.enable_repair = true;
  repair.repair.scrub_interval_seconds = 1000;
  const Status repair_status = drives.Validate(repair);
  EXPECT_EQ(repair_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repair_status.message().find("single-drive"), std::string::npos);
}

TEST(AlgorithmSpec, ParseRoundTrips) {
  const struct {
    const char* input;
    AlgorithmKind kind;
    TapePolicy policy;
    const char* name;
  } cases[] = {
      {"fifo", AlgorithmKind::kFifo, TapePolicy::kRoundRobin, "fifo"},
      {"static-round-robin", AlgorithmKind::kStatic,
       TapePolicy::kRoundRobin, "static round-robin"},
      {"static-oldest-max-requests", AlgorithmKind::kStatic,
       TapePolicy::kOldestMaxRequests, "static oldest-max-requests"},
      {"dynamic-max-bandwidth", AlgorithmKind::kDynamic,
       TapePolicy::kMaxBandwidth, "dynamic max-bandwidth"},
      {"envelope-max-requests", AlgorithmKind::kEnvelope,
       TapePolicy::kMaxRequests, "max-requests envelope"},
      {"envelope-oldest-max-bandwidth", AlgorithmKind::kEnvelope,
       TapePolicy::kOldestMaxBandwidth, "oldest-max-bandwidth envelope"},
  };
  for (const auto& c : cases) {
    const StatusOr<AlgorithmSpec> spec = AlgorithmSpec::Parse(c.input);
    ASSERT_TRUE(spec.ok()) << c.input;
    EXPECT_EQ(spec->kind, c.kind) << c.input;
    if (spec->kind != AlgorithmKind::kFifo) {
      EXPECT_EQ(spec->policy, c.policy) << c.input;
    }
    EXPECT_EQ(spec->Name(), c.name);
  }
}

TEST(AlgorithmSpec, ParseRejectsUnknown) {
  EXPECT_FALSE(AlgorithmSpec::Parse("lifo").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("dynamic-bogus").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("bogus-max-requests").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("").ok());
}

TEST(AlgorithmSpec, AllPaperAlgorithmsCount) {
  // FIFO + 5 static + 5 dynamic + 3 envelope = 14.
  const auto all = AlgorithmSpec::AllPaperAlgorithms();
  EXPECT_EQ(all.size(), 14u);
}

TEST(CreateScheduler, ProducesMatchingNames) {
  JukeboxConfig jb;
  jb.num_tapes = 2;
  Jukebox jukebox(jb);
  LayoutSpec layout;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
  for (const AlgorithmSpec& spec : AlgorithmSpec::AllPaperAlgorithms()) {
    if (spec.kind == AlgorithmKind::kFifo) continue;
    const auto scheduler = CreateScheduler(spec, &jukebox, &catalog);
    EXPECT_EQ(scheduler->name(), spec.Name());
  }
}

ExperimentConfig QuickConfig() {
  ExperimentConfig config;
  config.sim.duration_seconds = 120'000;
  config.sim.warmup_seconds = 12'000;
  config.sim.workload.queue_length = 30;
  config.sim.workload.seed = 23;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

TEST(ExperimentRunner, RunsEndToEnd) {
  const StatusOr<ExperimentResult> result =
      ExperimentRunner::Run(QuickConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->sim.completed_requests, 50);
  EXPECT_EQ(result->layout.logical_blocks, 4480);
  EXPECT_EQ(result->algorithm_name, "dynamic max-bandwidth");
}

TEST(ExperimentRunner, InvalidConfigFails) {
  ExperimentConfig config = QuickConfig();
  config.layout.hot_fraction = 2.0;
  EXPECT_FALSE(ExperimentRunner::Run(config).ok());
  config = QuickConfig();
  config.sim.duration_seconds = -1;
  EXPECT_FALSE(ExperimentRunner::Run(config).ok());
}

TEST(ExperimentRunner, IsDeterministic) {
  const ExperimentResult a = ExperimentRunner::Run(QuickConfig()).value();
  const ExperimentResult b = ExperimentRunner::Run(QuickConfig()).value();
  EXPECT_DOUBLE_EQ(a.sim.throughput_mb_per_s, b.sim.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(a.sim.mean_delay_seconds, b.sim.mean_delay_seconds);
}

TEST(ThroughputDelayCurve, MoreLoadMoreThroughputAndDelay) {
  const auto curve =
      ThroughputDelayCurve(QuickConfig(), {20, 80}).value();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_GT(curve[1].throughput_req_per_min,
            curve[0].throughput_req_per_min);
  EXPECT_GT(curve[1].mean_delay_minutes, curve[0].mean_delay_minutes);
}

TEST(OpenThroughputDelayCurve, ThroughputTracksArrivalRate) {
  const auto curve =
      OpenThroughputDelayCurve(QuickConfig(), {600.0, 300.0}).value();
  ASSERT_EQ(curve.size(), 2u);
  // Light load: throughput ~ 60/interarrival requests per minute.
  EXPECT_NEAR(curve[0].throughput_req_per_min, 0.1, 0.04);
  EXPECT_NEAR(curve[1].throughput_req_per_min, 0.2, 0.05);
}

TEST(DefaultSimSeconds, EnvOverride) {
  unsetenv("TAPEJUKE_SIM_SECONDS");
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 2'000'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "500000", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 500'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "garbage", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 2'000'000.0);
  unsetenv("TAPEJUKE_SIM_SECONDS");
}

TEST(CostPerformanceCurve, BaselineRatioIsOne) {
  ExperimentConfig config = QuickConfig();
  config.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  const auto curve =
      CostPerformanceCurve(config, /*base_queue=*/30, {0, 9}).value();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].cost_performance_ratio, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].expansion_factor, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].expansion_factor, 1.9);
  EXPECT_EQ(curve[1].effective_queue, 16);  // round(30 / 1.9)
  EXPECT_GT(curve[1].cost_performance_ratio, 0.5);
  EXPECT_LT(curve[1].cost_performance_ratio, 1.5);
}

}  // namespace
}  // namespace tapejuke
