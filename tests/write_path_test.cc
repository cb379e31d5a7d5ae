// Tests for the delta-staging write path, run as background work of the
// Simulator's event loop.

#include "sim/write_path.h"

#include <gtest/gtest.h>

#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

struct Rig {
  explicit Rig(int32_t num_replicas = 0)
      : jukebox(PaperJukebox()),
        catalog(LayoutBuilder::Build(&jukebox, MakeLayout(num_replicas))
                    .value()),
        scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                  /*dynamic=*/true) {}

  static LayoutSpec MakeLayout(int32_t num_replicas) {
    LayoutSpec layout;
    layout.num_replicas = num_replicas;
    layout.start_position = num_replicas == 0 ? 0.0 : 1.0;
    return layout;
  }

  Jukebox jukebox;
  Catalog catalog;
  GreedyScheduler scheduler;
};

SimulationConfig ShortSim(QueuingModel model = QueuingModel::kClosed) {
  SimulationConfig config;
  config.duration_seconds = 300'000;
  config.warmup_seconds = 30'000;
  config.workload.model = model;
  config.workload.queue_length = 40;
  config.workload.mean_interarrival_seconds = 90;
  config.workload.seed = 41;
  return config;
}

SimulationConfig WithWrites(double gap,
                            QueuingModel model = QueuingModel::kClosed) {
  SimulationConfig config = ShortSim(model);
  config.writes.mean_write_interarrival_seconds = gap;
  return config;
}

TEST(WritePathConfig, Validation) {
  WritePathConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_FALSE(config.enabled());  // writes are off by default
  config.buffer_capacity_blocks = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = WritePathConfig{};
  config.hot_write_fraction = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(WritePathConfig, ExclusiveWithFillAndRepair) {
  SimulationConfig config = WithWrites(120);
  EXPECT_TRUE(config.Validate().ok());
  config.fill.num_epochs = 4;
  EXPECT_FALSE(config.Validate().ok());
  config = WithWrites(120);
  config.faults.permanent_media_error_prob = 1e-4;
  EXPECT_TRUE(config.Validate().ok());  // faults are fine
  config.repair.enable_repair = true;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(WritePath, WritesAreStagedAndFlushed) {
  Rig rig;
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, WithWrites(200));
  const SimulationResult result = sim.Run();
  EXPECT_GT(result.completed_requests, 100);
  ASSERT_NE(sim.writes(), nullptr);
  const WritePathStats& stats = sim.writes()->stats();
  EXPECT_GT(stats.writes_accepted, 1000);
  EXPECT_GT(stats.blocks_flushed, 0);
  EXPECT_GT(stats.piggyback_flushes, 0);
  // The staging buffer bounds occupancy (capacity + one inter-flush burst).
  EXPECT_LE(stats.max_buffer_occupancy,
            WritePathConfig{}.buffer_capacity_blocks + 128);
  // Flushes are drive time: charged as background in the time-in-state.
  ASSERT_EQ(result.time_in_state.size(), 1u);
  EXPECT_GT(result.time_in_state[0].seconds[static_cast<size_t>(
                obs::DriveActivity::kBackground)],
            0.0);
}

TEST(WritePath, ReplicatedBlocksDirtyEveryCopy) {
  Rig rig(/*num_replicas=*/9);
  SimulationConfig config = WithWrites(500);
  config.writes.hot_write_fraction = 1.0;  // every write hits a hot block
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config);
  sim.Run();
  const WritePathStats& stats = sim.writes()->stats();
  ASSERT_GT(stats.writes_accepted, 100);
  // Each hot write dirties up to 10 copies (duplicates collapse).
  EXPECT_GT(static_cast<double>(stats.dirty_updates_created),
            5.0 * static_cast<double>(stats.writes_accepted));
}

TEST(WritePath, WriteTrafficDegradesReads) {
  auto run = [](double write_gap) {
    Rig rig;
    Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler,
                  WithWrites(write_gap));
    return sim.Run();
  };
  const SimulationResult none = run(0);      // writes disabled
  const SimulationResult heavy = run(60.0);  // one write per minute
  EXPECT_GT(none.requests_per_minute, heavy.requests_per_minute);
}

TEST(WritePath, NoWritesMatchesPlainSimulator) {
  // The hooks alone (no write ever arrives in the run) leave every
  // decision and result of the plain simulator unchanged.
  Rig rig_a;
  Simulator with(&rig_a.jukebox, &rig_a.catalog, &rig_a.scheduler,
                 WithWrites(1e12));
  const SimulationResult a = with.Run();
  EXPECT_EQ(with.writes()->stats().writes_accepted, 0);

  Rig rig_b;
  Simulator plain(&rig_b.jukebox, &rig_b.catalog, &rig_b.scheduler,
                  ShortSim());
  const SimulationResult b = plain.Run();
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
}

TEST(WritePath, IdleFlushCleansBufferUnderLightLoad) {
  Rig rig;
  SimulationConfig config = WithWrites(300, QueuingModel::kOpen);
  config.workload.mean_interarrival_seconds = 600;  // mostly idle
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config);
  sim.Run();
  const WritePathStats& stats = sim.writes()->stats();
  EXPECT_GT(stats.idle_flushes, 0);
  // Idle cleaning keeps the buffer well under capacity.
  EXPECT_LT(stats.max_buffer_occupancy,
            config.writes.buffer_capacity_blocks);
  EXPECT_EQ(stats.forced_flushes, 0);
}

TEST(WritePath, ForcedFlushWhenBufferTooSmall) {
  Rig rig;
  SimulationConfig config = WithWrites(30);  // write-heavy
  config.writes.buffer_capacity_blocks = 16;  // tiny buffer
  config.writes.piggyback = false;
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config);
  sim.Run();
  EXPECT_GT(sim.writes()->stats().forced_flushes, 0);
  EXPECT_EQ(sim.writes()->stats().piggyback_flushes, 0);
  EXPECT_EQ(sim.writes()->stats().idle_flushes, 0);
}

TEST(WritePath, OpenModelIdleFlushStillServesReads) {
  // Reads every 600 s, writes every 120 s, default flush policy. Idle
  // flushes deliver the reads that arrive while they run, so reads are
  // served between flushes instead of starving behind them.
  Rig rig;
  SimulationConfig config = WithWrites(120, QueuingModel::kOpen);
  config.workload.mean_interarrival_seconds = 600;
  config.timeline.interval_seconds = 5'000;
  config.timeline.buffer_only = true;
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config);
  const SimulationResult result = sim.Run();
  EXPECT_GT(sim.writes()->stats().idle_flushes, 0);
  EXPECT_GT(result.completed_requests, 300);
  EXPECT_GT(result.requests_per_minute, 0.05);

  // Time-in-state sums to the measured window (the clock never ran
  // backwards) and timeline rows are strictly time-ordered.
  ASSERT_EQ(result.time_in_state.size(), 1u);
  EXPECT_NEAR(result.time_in_state[0].Total(), result.measured_seconds,
              1e-6 * result.measured_seconds);
  const obs::TimelineSampler* timeline = sim.timeline();
  ASSERT_NE(timeline, nullptr);
  ASSERT_GT(timeline->rows().size(), 10u);
  double last = 0;
  for (const obs::TimelineSampler::Row& row : timeline->rows()) {
    EXPECT_GT(row.t, last);
    last = row.t;
  }
}

TEST(WritePath, ReadArrivingMidIdleFlushWaitsAtMostOneBlockWrite) {
  // Writes arrive far faster than the drive cleans them and the buffer is
  // never over capacity, so the idle drive is always flushing a tape with
  // many dirty blocks. The idle flush runs one block per quantum: a read
  // arriving mid-flush is scheduled once the block write in flight ends.
  Rig rig;
  SimulationConfig config = WithWrites(2, QueuingModel::kOpen);
  config.writes.buffer_capacity_blocks = 1'000'000;
  config.duration_seconds = 40'000;
  config.warmup_seconds = 0;
  config.obs.decision_log = ::testing::TempDir() + "write_path_preempt.jsonl";
  const double arrival = 30'000;
  Request read;
  read.block = 0;
  read.arrival_time = arrival;
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config, {read});
  const SimulationResult result = sim.Run();
  EXPECT_EQ(result.completed_total, 1);
  EXPECT_GT(sim.writes()->stats().max_buffer_occupancy, 1000);
  const double start = FirstDecisionTime(config.obs.decision_log);
  EXPECT_GE(start, arrival);
  EXPECT_LE(start - arrival, MaxBlockWrite(rig.jukebox));
}

TEST(WritePath, WritesDirtyOnlyLiveReplicas) {
  Rig rig(/*num_replicas=*/9);
  WritePathConfig config;
  config.mean_write_interarrival_seconds = 10;
  config.hot_write_fraction = 1.0;
  rig.catalog.MarkTapeDead(0);
  DriveOps ops(&rig.jukebox, nullptr, nullptr);
  WritePath writes(config, &rig.jukebox, &rig.catalog, &ops, /*seed=*/7);
  writes.DeliverUpTo(100'000);
  ASSERT_GT(writes.buffer_occupancy(), 0);
  EXPECT_NE(writes.DirtiestTape(), 0);
  // Nothing to write on the dead tape (FlushTape returns before touching
  // the drive when the tape holds no dirt).
  EXPECT_EQ(writes.FlushTape(0), 0.0);
}

TEST(WritePath, MaskedReplicasDropTheirDirt) {
  Rig rig(/*num_replicas=*/9);
  WritePathConfig config;
  config.mean_write_interarrival_seconds = 10;
  config.hot_write_fraction = 1.0;
  DriveOps ops(&rig.jukebox, nullptr, nullptr);
  WritePath writes(config, &rig.jukebox, &rig.catalog, &ops, /*seed=*/7);
  writes.DeliverUpTo(100'000);  // ~10,000 hot writes: every copy dirty
  const int64_t before = writes.buffer_occupancy();

  // One replica of hot block 0 lost: its one dirty update goes.
  const TapeId tape = rig.catalog.ReplicasOf(0)[1].tape;
  ASSERT_TRUE(rig.catalog.MarkReplicaDead(0, tape));
  writes.OnMediaLost(tape, 0, /*whole_tape=*/false, {}, /*now=*/0);
  EXPECT_EQ(writes.buffer_occupancy(), before - 1);

  // A whole tape lost: all of its dirt goes, and nothing is left to write.
  const TapeId dead = writes.DirtiestTape();
  rig.catalog.MarkTapeDead(dead);
  writes.OnMediaLost(dead, kInvalidBlock, /*whole_tape=*/true, {},
                     /*now=*/0);
  EXPECT_LT(writes.buffer_occupancy(), before - 1);
  EXPECT_EQ(writes.FlushTape(dead), 0.0);
}

TEST(WritePath, RunsUnderFaultInjection) {
  Rig rig(/*num_replicas=*/2);
  SimulationConfig config = WithWrites(120);
  config.faults.transient_read_error_prob = 0.01;
  config.faults.permanent_media_error_prob = 1e-3;
  config.faults.drive_mtbf_seconds = 50'000;
  config.faults.drive_mttr_seconds = 2'000;
  Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, config);
  const SimulationResult result = sim.Run();
  EXPECT_GT(result.faults.replicas_masked, 0);
  EXPECT_GT(sim.writes()->stats().blocks_flushed, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
}

}  // namespace
}  // namespace tapejuke
