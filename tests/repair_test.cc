// Scrub/repair subsystem tests: config validation and serialization
// gating, background-request ordering and piggybacking in the scheduler,
// end-to-end repair with the live-replica counterfactual identity,
// detection-only scrub, the token-bucket bandwidth ceiling, and
// thread-count invariance of the whole machinery.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/results_io.h"
#include "core/sweep_runner.h"
#include "sim/repair.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

std::string ToJson(const SimulationResult& result) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  return os.str();
}

std::string ToJson(const SimulationConfig& config) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, config);
  return os.str();
}

/// Idle-heavy open-model run (scrub and repair live off idle drive time)
/// with region-only permanent media errors and ~10% spare slots per tape.
ExperimentConfig RepairExperiment(uint64_t seed) {
  ExperimentConfig config;
  // Small tapes (100 slots) so full scrub passes fit in the idle time of
  // one test-sized run.
  config.jukebox.timing.tape_capacity_mb = 1600;
  config.layout.num_replicas = 2;
  config.layout.start_position = 1.0;
  const Jukebox probe(config.jukebox);
  config.layout.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(probe, config.layout) * 9 / 10;
  config.sim.duration_seconds = 600'000;
  config.sim.warmup_seconds = 0;
  config.sim.workload.model = QueuingModel::kOpen;
  config.sim.workload.mean_interarrival_seconds = 240;
  config.sim.workload.seed = seed;
  config.sim.faults.permanent_media_error_prob = 5e-3;
  config.sim.faults.transient_read_error_prob = 0.01;
  config.sim.faults.max_read_retries = 3;
  config.sim.repair.enable_repair = true;
  config.sim.repair.scrub_interval_seconds = 50'000;
  config.sim.repair.repair_bandwidth_mb_per_s = 20;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

// --- Configuration ----------------------------------------------------------

TEST(RepairConfigTest, ValidateRejectsNegativeKnobs) {
  RepairConfig config;
  config.scrub_interval_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = RepairConfig{};
  config.repair_bandwidth_mb_per_s = -2;
  EXPECT_FALSE(config.Validate().ok());
  config = RepairConfig{};
  config.repair_bandwidth_mb_per_s = 1;
  config.repair_burst_mb = -1;  // a rate needs a usable bucket
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(RepairConfig{}.Validate().ok());
}

TEST(RepairConfigTest, RepairRequiresFaultInjection) {
  SimulationConfig sim;
  sim.repair.enable_repair = true;
  const Status status = sim.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fault injection"), std::string::npos);
  // With a fault rate the same config is fine.
  sim.faults.permanent_media_error_prob = 1e-3;
  EXPECT_TRUE(sim.Validate().ok());
}

TEST(RepairConfigTest, DisabledRepairIsNotSerialized) {
  SimulationConfig sim;
  sim.faults.permanent_media_error_prob = 1e-3;
  EXPECT_EQ(ToJson(sim).find("\"repair\""), std::string::npos);
  sim.repair.scrub_interval_seconds = 1000;
  EXPECT_NE(ToJson(sim).find("\"repair\""), std::string::npos);
}

// --- Background request ordering -------------------------------------------

TEST(BackgroundRequests, OrderedBehindClientsAndPiggybacked) {
  // Tape 0 holds the client's block 0 and background block 2; tape 1 holds
  // background block 1. The client sweep goes to tape 0 and takes block
  // 2's read along for free; block 1 waits until no client work is left.
  TinyRig rig(/*num_tapes=*/2);
  rig.Place(0, 0, 1);
  rig.Place(2, 0, 5);
  rig.Place(1, 1, 2);
  const Catalog catalog = rig.BuildCatalog();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(AlgorithmSpec::Parse("dynamic-max-bandwidth").value(),
                      &rig.jukebox(), &catalog);

  scheduler->OnArrival(Request{0, 0, 0.0}, 0);
  scheduler->EnqueueBackground(
      Request{kBackgroundIdBase, 1, 0.0, RequestClass::kBackground});
  scheduler->EnqueueBackground(
      Request{kBackgroundIdBase + 1, 2, 0.0, RequestClass::kBackground});
  EXPECT_EQ(scheduler->background_size(), 2u);

  EXPECT_EQ(scheduler->MajorReschedule(), 0)
      << "client work decides the tape even with background queued";
  EXPECT_EQ(scheduler->sweep_size(), 2u) << "block 2 piggybacks";
  EXPECT_EQ(scheduler->background_size(), 1u);
  std::vector<BlockId> served;
  while (auto entry = scheduler->PopNext()) {
    served.push_back(entry->block);
    for (const Request& r : entry->requests) {
      EXPECT_EQ(r.cls, entry->block == 0 ? RequestClass::kClient
                                         : RequestClass::kBackground);
    }
  }
  EXPECT_EQ(served, (std::vector<BlockId>{0, 2}));

  // No client work left: the background fallback picks tape 1.
  EXPECT_TRUE(scheduler->HasWork());
  EXPECT_EQ(scheduler->MajorReschedule(), 1);
  const std::optional<ServiceEntry> entry = scheduler->PopNext();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->block, 1);
  EXPECT_FALSE(scheduler->HasWork());
}

// --- End-to-end repair ------------------------------------------------------

TEST(RepairEndToEnd, RepairsCompleteAndBeatTheCounterfactual) {
  const ExperimentConfig config = RepairExperiment(3);
  const ExperimentResult result = ExperimentRunner::Run(config).value();
  const SimulationResult& sim = result.sim;
  ASSERT_TRUE(sim.fault_injection);
  ASSERT_TRUE(sim.repair_enabled);
  const RepairStats& repair = sim.repair;

  EXPECT_GT(repair.scrub_passes, 0);
  EXPECT_GT(repair.scrub_blocks_read, 0);
  EXPECT_GT(repair.repairs_enqueued, 0);
  EXPECT_GT(repair.repairs_completed, 0);
  // Task conservation: every enqueued task completed, was abandoned, or is
  // still in the backlog.
  EXPECT_EQ(repair.repairs_enqueued,
            repair.repairs_completed + repair.repairs_abandoned +
                repair.backlog_final);
  // Bounded time-to-re-protection.
  EXPECT_GT(repair.reprotect_seconds_sum, 0);
  EXPECT_LE(repair.reprotect_seconds_max, sim.simulated_seconds);

  // The run ends strictly better protected than its own no-repair
  // counterfactual; exactly repairs_completed replicas better, in fact.
  const double total = static_cast<double>(result.layout.total_copies);
  const double counterfactual =
      1.0 - static_cast<double>(sim.faults.replicas_masked) / total;
  EXPECT_GT(sim.live_replica_fraction, counterfactual);
  EXPECT_NEAR(sim.live_replica_fraction,
              counterfactual +
                  static_cast<double>(repair.repairs_completed) / total,
              1e-12);

  EXPECT_EQ(sim.completed_total + sim.failed_requests +
                sim.outstanding_at_end,
            sim.issued_requests);
}

TEST(RepairEndToEnd, DetectionOnlyScrubRepairsNothing) {
  ExperimentConfig config = RepairExperiment(7);
  config.sim.repair.enable_repair = false;  // scrub still on
  const SimulationResult sim = ExperimentRunner::Run(config).value().sim;
  ASSERT_TRUE(sim.repair_enabled);
  EXPECT_GT(sim.repair.scrub_passes, 0);
  EXPECT_GT(sim.repair.scrub_errors_detected, 0)
      << "scrub must surface latent errors before clients do";
  EXPECT_EQ(sim.repair.repairs_enqueued, 0);
  EXPECT_EQ(sim.repair.repairs_completed, 0);
  EXPECT_EQ(sim.repair.repair_write_seconds, 0.0);
  // Scrub-detected errors are masked in the catalog like client-detected
  // ones: the live fraction matches the no-repair identity exactly.
  EXPECT_GT(sim.faults.replicas_masked, 0);
}

TEST(RepairEndToEnd, ScrubReadsPayTheRetryBackoff) {
  // No client read arrives, so every read is a scrub read. Each transient
  // retry waits out at least half of base * 2^k before it re-reads, as a
  // client read's does, and the wait is scrub time.
  ExperimentConfig config = RepairExperiment(3);
  config.sim.workload.mean_interarrival_seconds = 1e12;
  config.sim.faults.transient_read_error_prob = 0.5;
  config.sim.faults.max_read_retries = 8;
  config.sim.faults.retry_backoff_base_seconds = 1'000;
  config.sim.repair.enable_repair = false;
  const SimulationResult sim = ExperimentRunner::Run(config).value().sim;
  ASSERT_TRUE(sim.repair_enabled);
  EXPECT_EQ(sim.issued_requests, 0);
  ASSERT_GT(sim.faults.read_retries, 0);
  EXPECT_GE(sim.repair.scrub_seconds,
            0.5 * config.sim.faults.retry_backoff_base_seconds *
                static_cast<double>(sim.faults.read_retries));
}

TEST(RepairEndToEnd, TokenBucketBoundsBackgroundIO) {
  // A hard token-bucket invariant: total background I/O (scrub reads +
  // repair writes, in MB) never exceeds burst + rate * elapsed.
  ExperimentConfig config = RepairExperiment(11);
  config.sim.repair.repair_bandwidth_mb_per_s = 0.5;
  config.sim.repair.repair_burst_mb = 16;
  const SimulationResult sim = ExperimentRunner::Run(config).value().sim;
  ASSERT_TRUE(sim.repair_enabled);
  const double block_mb =
      static_cast<double>(config.jukebox.block_size_mb);
  const double background_mb =
      static_cast<double>(sim.repair.scrub_blocks_read +
                          sim.repair.repairs_completed) *
      block_mb;
  EXPECT_LE(background_mb,
            config.sim.repair.repair_burst_mb +
                config.sim.repair.repair_bandwidth_mb_per_s *
                    sim.simulated_seconds);

  // The same run unmetered does strictly more scrubbing.
  ExperimentConfig unmetered = RepairExperiment(11);
  unmetered.sim.repair.repair_bandwidth_mb_per_s = 0;
  const SimulationResult fast = ExperimentRunner::Run(unmetered).value().sim;
  EXPECT_GT(fast.repair.scrub_blocks_read, sim.repair.scrub_blocks_read);
}

TEST(RepairEndToEnd, CountersAreThreadCountInvariant) {
  std::vector<ExperimentConfig> grid;
  for (const uint64_t seed : {3u, 7u}) {
    ExperimentConfig config = RepairExperiment(seed);
    config.sim.duration_seconds = 300'000;
    grid.push_back(config);
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const auto a = SweepRunner(serial).Run(grid);
  const auto b = SweepRunner(parallel).Run(grid);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(ToJson((*a)[i].sim), ToJson((*b)[i].sim)) << "point " << i;
  }
}

TEST(RepairEndToEnd, DisabledRepairLeavesNoTraceInResults) {
  // Faults on, repair off: no repair counters appear in the serialized
  // result, and the live fraction matches the no-repair identity.
  ExperimentConfig config = RepairExperiment(5);
  config.sim.repair = RepairConfig{};
  const ExperimentResult result = ExperimentRunner::Run(config).value();
  const SimulationResult& sim = result.sim;
  EXPECT_FALSE(sim.repair_enabled);
  EXPECT_EQ(ToJson(sim).find("\"repair\""), std::string::npos);
  const double total = static_cast<double>(result.layout.total_copies);
  EXPECT_NEAR(sim.live_replica_fraction,
              1.0 - static_cast<double>(sim.faults.replicas_masked) / total,
              1e-12);
}

}  // namespace
}  // namespace tapejuke
