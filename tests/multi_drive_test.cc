// Tests for the multi-drive jukebox extension.

#include "sim/multi_drive.h"

#include <gtest/gtest.h>

#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

SimulationConfig ShortSim(int64_t queue = 60) {
  SimulationConfig config;
  config.duration_seconds = 300'000;
  config.warmup_seconds = 30'000;
  config.workload.queue_length = queue;
  config.workload.seed = 31;
  return config;
}

struct Rig {
  explicit Rig(const LayoutSpec& layout = LayoutSpec{})
      : jukebox(PaperJukebox()),
        catalog(LayoutBuilder::Build(&jukebox, layout).value()) {}
  Jukebox jukebox;
  Catalog catalog;
};

SimulationResult RunMulti(int32_t num_drives, int64_t queue = 60,
                          MultiDriveStats* stats = nullptr) {
  Rig rig;
  MultiDriveConfig drives;
  drives.num_drives = num_drives;
  MultiDriveSimulator sim(&rig.jukebox, &rig.catalog, drives,
                          ShortSim(queue));
  const SimulationResult result = sim.Run();
  if (stats != nullptr) *stats = sim.stats();
  return result;
}

TEST(MultiDriveConfig, Validation) {
  MultiDriveConfig config;
  EXPECT_TRUE(config.Validate(SimulationConfig{}).ok());
  config.num_drives = 0;
  EXPECT_FALSE(config.Validate(SimulationConfig{}).ok());
}

TEST(MultiDrive, SingleDriveMatchesSingleDriveSimulatorClosely) {
  const SimulationResult multi = RunMulti(1);
  Rig rig;
  GreedyScheduler sched(&rig.jukebox, &rig.catalog,
                        TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  Simulator sim(&rig.jukebox, &rig.catalog, &sched, ShortSim());
  const SimulationResult single = sim.Run();
  // Same model, same policy; small differences are allowed because the
  // multi-drive dispatcher wakes at slightly different instants.
  EXPECT_NEAR(multi.throughput_mb_per_s / single.throughput_mb_per_s, 1.0,
              0.05);
  EXPECT_NEAR(multi.mean_delay_seconds / single.mean_delay_seconds, 1.0,
              0.10);
}

TEST(MultiDrive, MoreDrivesMoreThroughputLessDelay) {
  const SimulationResult one = RunMulti(1, /*queue=*/120);
  const SimulationResult two = RunMulti(2, /*queue=*/120);
  const SimulationResult four = RunMulti(4, /*queue=*/120);
  EXPECT_GT(two.requests_per_minute, 1.3 * one.requests_per_minute);
  EXPECT_GT(four.requests_per_minute, two.requests_per_minute);
  EXPECT_LT(two.mean_delay_seconds, one.mean_delay_seconds);
  EXPECT_LT(four.mean_delay_seconds, two.mean_delay_seconds);
}

TEST(MultiDrive, ScalingIsRoughlyLinearAtHighLoad) {
  const SimulationResult one = RunMulti(1, 120);
  const SimulationResult four = RunMulti(4, 120);
  // Competing effects keep scaling near (but not exactly) 4x: robot
  // contention, claim conflicts, and per-drive batch fragmentation hurt;
  // overlapping one drive's rewind/eject with the others' reads helps
  // (that dead time is serialized in the single-drive pipeline), so mild
  // super-linearity is possible.
  const double speedup = four.requests_per_minute / one.requests_per_minute;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 5.0);
}

TEST(MultiDrive, RobotContentionIsObserved) {
  MultiDriveStats stats;
  RunMulti(4, 120, &stats);
  EXPECT_GT(stats.robot_wait_seconds, 0.0);
}

TEST(MultiDrive, Deterministic) {
  const SimulationResult a = RunMulti(3);
  const SimulationResult b = RunMulti(3);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
}

TEST(MultiDrive, ClosedPopulationIsConserved) {
  const SimulationResult result = RunMulti(2, 50);
  EXPECT_NEAR(result.mean_outstanding, 50.0, 0.5);
}

TEST(MultiDrive, OpenModelWorks) {
  Rig rig;
  MultiDriveConfig drives;
  drives.num_drives = 2;
  SimulationConfig sim_config = ShortSim();
  sim_config.workload.model = QueuingModel::kOpen;
  sim_config.workload.mean_interarrival_seconds = 60;
  MultiDriveSimulator sim(&rig.jukebox, &rig.catalog, drives, sim_config);
  const SimulationResult result = sim.Run();
  EXPECT_GT(result.completed_requests, 100);
  // Two drives comfortably absorb a 1-per-minute stream.
  EXPECT_NEAR(result.requests_per_minute, 1.0, 0.2);
}

TEST(MultiDrive, ReplicationHelpsHereToo) {
  LayoutSpec replicated;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  Rig plain;
  Rig full(replicated);
  MultiDriveConfig drives;
  drives.num_drives = 2;
  MultiDriveSimulator sim_plain(&plain.jukebox, &plain.catalog, drives,
                                ShortSim(120));
  MultiDriveSimulator sim_full(&full.jukebox, &full.catalog, drives,
                               ShortSim(120));
  const SimulationResult a = sim_plain.Run();
  const SimulationResult b = sim_full.Run();
  EXPECT_GT(b.requests_per_minute, a.requests_per_minute);
}

TEST(MultiDriveDeathTest, MoreDrivesThanTapesAborts) {
  Rig rig;
  MultiDriveConfig drives;
  drives.num_drives = 99;
  EXPECT_DEATH(MultiDriveSimulator(&rig.jukebox, &rig.catalog, drives,
                                   ShortSim()),
               "more drives than tapes");
}

TEST(MultiDriveDeathTest, ThinkTimeAborts) {
  Rig rig;
  SimulationConfig sim = ShortSim();
  sim.workload.think_time_seconds = 5000;
  EXPECT_DEATH(MultiDriveSimulator(&rig.jukebox, &rig.catalog,
                                   MultiDriveConfig{}, sim),
               "think time");
}

TEST(MultiDrive, RunEndingBeforeWarmupReportsSameCountersAsSimulator) {
  // Permanent errors destroy the archive long before the warm-up boundary;
  // both engines then mark it at the final counters, so nothing is
  // measured and the reported activity agrees.
  SimulationConfig config;
  config.workload.queue_length = 20;
  config.workload.seed = 31;
  config.faults.permanent_media_error_prob = 0.9;
  config.faults.whole_tape_fraction = 1.0;

  Rig single;
  GreedyScheduler sched(&single.jukebox, &single.catalog,
                        TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  const SimulationResult a =
      Simulator(&single.jukebox, &single.catalog, &sched, config).Run();
  Rig multi;
  const SimulationResult b =
      MultiDriveSimulator(&multi.jukebox, &multi.catalog, MultiDriveConfig{},
                          config)
          .Run();
  ASSERT_LT(a.simulated_seconds, config.warmup_seconds);
  ASSERT_LT(b.simulated_seconds, config.warmup_seconds);
  EXPECT_EQ(a.measured_seconds, 0.0);
  EXPECT_EQ(a.counters.blocks_read, b.counters.blocks_read);
  EXPECT_EQ(a.counters.tape_switches, b.counters.tape_switches);
  EXPECT_EQ(a.counters.mb_read, b.counters.mb_read);
  EXPECT_EQ(a.counters.BusySeconds(), b.counters.BusySeconds());
  EXPECT_EQ(a.counters.blocks_read, 0);
}

}  // namespace
}  // namespace tapejuke
