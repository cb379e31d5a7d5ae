// Tests for the gradual-fill replica lifecycle (§4.8), run as background
// work of the Simulator's event loop.

#include "sim/lifecycle.h"

#include <gtest/gtest.h>

#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sim/multi_drive.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "test_util.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

// Spare-capacity starting layout per the paper's recommendation: hot data
// on a dedicated tape, the other tapes only part-filled with cold data
// (spread, not packed), leaving free space at every tape's end for the
// replicas to come.
LayoutSpec SpareLayout(Jukebox* probe) {
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  LayoutSpec spare;
  spare.layout = HotLayout::kVertical;
  spare.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(*probe, replicated);
  return spare;
}

struct Rig {
  Rig() : jukebox(PaperJukebox()) {
    catalog.emplace(
        LayoutBuilder::Build(&jukebox, SpareLayout(&jukebox)).value());
    scheduler.emplace(&jukebox, &*catalog, TapePolicy::kMaxBandwidth);
  }
  Jukebox jukebox;
  std::optional<Catalog> catalog;
  std::optional<EnvelopeScheduler> scheduler;
};

SimulationConfig LongSim(double budget = 240, int32_t epochs = 10) {
  SimulationConfig config;
  config.duration_seconds = 1'500'000;
  config.warmup_seconds = 0;  // epochs cover the whole run
  config.workload.queue_length = 60;
  config.workload.seed = 51;
  config.fill.fill_budget_seconds = budget;
  config.fill.num_epochs = epochs;
  return config;
}

TEST(LifecycleConfig, Validation) {
  LifecycleConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_FALSE(config.enabled());  // off by default
  config.fill_budget_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = LifecycleConfig{};
  config.target_copies = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = LifecycleConfig{};
  config.num_epochs = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(LifecycleConfig, RejectsFaultsRepairAndWrites) {
  SimulationConfig config = LongSim();
  EXPECT_TRUE(config.Validate().ok());
  config.faults.permanent_media_error_prob = 1e-4;
  const Status faults = config.Validate();
  EXPECT_FALSE(faults.ok());
  EXPECT_NE(faults.ToString().find("replica fill"), std::string::npos);
  config.repair.enable_repair = true;
  EXPECT_FALSE(config.Validate().ok());
  config = LongSim();
  config.writes.mean_write_interarrival_seconds = 120;
  EXPECT_FALSE(config.Validate().ok());
  // The multi-drive engine honours neither.
  EXPECT_FALSE(MultiDriveConfig{}.Validate(LongSim()).ok());
  config = SimulationConfig{};
  config.writes.mean_write_interarrival_seconds = 120;
  EXPECT_FALSE(MultiDriveConfig{}.Validate(config).ok());
}

TEST(LifecycleDeathTest, ConstCatalogAborts) {
  Rig rig;
  const Catalog& catalog = *rig.catalog;
  EXPECT_DEATH(Simulator(&rig.jukebox, &catalog, &*rig.scheduler, LongSim()),
               "mutable-catalog");
}

TEST(Lifecycle, ReplicasFillAndPerformanceImproves) {
  Rig rig;
  Simulator sim(&rig.jukebox, &*rig.catalog, &*rig.scheduler,
                LongSim(240, /*epochs=*/6));
  sim.Run();
  const ReplicaFill& fill = *sim.fill();
  const std::vector<EpochStats>& epochs = fill.epochs();
  ASSERT_EQ(epochs.size(), 6u);

  // The fill fraction is monotone and reaches (near) completion.
  for (size_t e = 1; e < epochs.size(); ++e) {
    EXPECT_GE(epochs[e].fill_fraction, epochs[e - 1].fill_fraction);
  }
  EXPECT_GT(epochs.back().fill_fraction, 0.95);
  EXPECT_EQ(fill.replicas_written(), fill.fill_target());

  // Throughput in the final (fully replicated) epoch beats the first.
  EXPECT_GT(epochs.back().requests_per_minute,
            epochs.front().requests_per_minute);
}

TEST(Lifecycle, CatalogAndTapesStayConsistent) {
  Rig rig;
  Simulator sim(&rig.jukebox, &*rig.catalog, &*rig.scheduler, LongSim());
  sim.Run();
  // Every catalog replica matches the tape contents.
  for (BlockId b = 0; b < rig.catalog->num_blocks(); ++b) {
    for (const Replica& replica : rig.catalog->ReplicasOf(b)) {
      EXPECT_EQ(rig.jukebox.tape(replica.tape).BlockAtSlot(replica.slot), b);
    }
  }
  // Hot blocks reached the target copy count.
  for (BlockId b = 0; b < rig.catalog->num_hot_blocks(); ++b) {
    EXPECT_EQ(rig.catalog->ReplicasOf(b).size(), 10u);
  }
  // Cold blocks were never replicated.
  for (BlockId b = rig.catalog->num_hot_blocks();
       b < rig.catalog->num_blocks(); ++b) {
    EXPECT_EQ(rig.catalog->ReplicasOf(b).size(), 1u);
  }
}

TEST(Lifecycle, ZeroBudgetWritesNothingViaPiggyback) {
  Rig rig;
  SimulationConfig config = LongSim(/*budget=*/0);
  config.duration_seconds = 200'000;
  Simulator sim(&rig.jukebox, &*rig.catalog, &*rig.scheduler, config);
  const SimulationResult result = sim.Run();
  EXPECT_EQ(sim.fill()->replicas_written(), 0);
  EXPECT_EQ(rig.catalog->TotalCopies(), rig.catalog->num_blocks());
  // The epoch series still reports every completion.
  int64_t completed = 0;
  for (const EpochStats& epoch : sim.fill()->epochs()) {
    EXPECT_EQ(epoch.fill_fraction, 0.0);
    completed += epoch.completed_requests;
  }
  EXPECT_EQ(completed, result.completed_total);
}

TEST(Lifecycle, OpenModelIdleFillStillServesReads) {
  // A light open load leaves the drive idle most of the time: idle fills
  // deliver the reads that arrive while they run, so the epochs during
  // the fill report served reads, time-in-state sums to the run (the
  // clock never ran backwards) and timeline rows are time-ordered.
  Rig rig;
  SimulationConfig config = LongSim();
  config.workload.model = QueuingModel::kOpen;
  config.workload.mean_interarrival_seconds = 600;
  config.timeline.interval_seconds = 20'000;
  config.timeline.buffer_only = true;
  Simulator sim(&rig.jukebox, &*rig.catalog, &*rig.scheduler, config);
  const SimulationResult result = sim.Run();
  const ReplicaFill& fill = *sim.fill();
  EXPECT_EQ(fill.replicas_written(), fill.fill_target());
  for (const EpochStats& epoch : fill.epochs()) {
    EXPECT_GT(epoch.completed_requests, 100);
  }
  ASSERT_EQ(result.time_in_state.size(), 1u);
  EXPECT_NEAR(result.time_in_state[0].Total(), result.measured_seconds,
              1e-6 * result.measured_seconds);
  EXPECT_GT(result.time_in_state[0].seconds[static_cast<size_t>(
                obs::DriveActivity::kBackground)],
            0.0);
  const obs::TimelineSampler* timeline = sim.timeline();
  ASSERT_NE(timeline, nullptr);
  ASSERT_GT(timeline->rows().size(), 10u);
  double last = 0;
  for (const obs::TimelineSampler::Row& row : timeline->rows()) {
    EXPECT_GT(row.t, last);
    last = row.t;
  }
}

TEST(Lifecycle, ReadArrivingMidIdleFillWaitsAtMostOneBlockWrite) {
  // The drive is idle from t = 0, so the fill mounts the neediest tape and
  // writes its replicas one per quantum (the budget is no bound here). The
  // first read arrives mid-fill and is scheduled once the replica write in
  // flight ends.
  Rig rig;
  SimulationConfig config = LongSim(/*budget=*/1e9);
  config.workload.model = QueuingModel::kOpen;
  config.workload.mean_interarrival_seconds = 3'000;
  config.duration_seconds = 20'000;
  config.obs.decision_log = ::testing::TempDir() + "lifecycle_preempt.jsonl";
  // The simulator's first workload draw is the first arrival's gap.
  WorkloadGenerator workload(&*rig.catalog, config.workload);
  const double arrival = workload.NextArrivalGap(0.0);
  Simulator sim(&rig.jukebox, &*rig.catalog, &*rig.scheduler, config);
  sim.Run();
  const double start = FirstDecisionTime(config.obs.decision_log);
  EXPECT_GE(start, arrival);
  EXPECT_LE(start - arrival, MaxBlockWrite(rig.jukebox));
}

TEST(Catalog, AddReplicaExtendsBlock) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}}};
  Catalog catalog(std::move(replicas), 1);
  catalog.AddReplica(0, Replica{1, 3, 48});
  EXPECT_EQ(catalog.ReplicasOf(0).size(), 2u);
  EXPECT_EQ(catalog.TotalCopies(), 2);
  ASSERT_NE(catalog.ReplicaOn(0, 1), nullptr);
  EXPECT_EQ(catalog.ReplicaOn(0, 1)->position, 48);
}

TEST(CatalogDeathTest, AddReplicaRejectsDuplicateTape) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}}};
  Catalog catalog(std::move(replicas), 1);
  EXPECT_DEATH(catalog.AddReplica(0, Replica{0, 5, 80}), "already has");
}

}  // namespace
}  // namespace tapejuke
