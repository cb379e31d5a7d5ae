// Deadline edge cases: expiry landing exactly on the warm-up boundary
// (metrics window clipping), expiry of a request still staged in the
// scheduler's arrival batch, and expiry racing a failover re-enqueue on
// both engines — the single-drive cases under the ValidatingScheduler, so
// any contract violation aborts the test.

#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "sched/validating_scheduler.h"
#include "sim/metrics.h"
#include "sim/multi_drive.h"
#include "sim/simulator.h"

namespace tapejuke {
namespace {

TEST(DeadlineWarmupBoundary, ExpiryAtBoundaryStaysOutOfMeasuredWindow) {
  MetricsCollector metrics(/*warmup_seconds=*/100.0, /*block_size_mb=*/16);
  metrics.ConfigureClasses(2);

  // Expires exactly at the warm-up boundary: whole-run conservation counts
  // it, the measured per-class window does not (the window is (warmup,
  // end], matching completions).
  metrics.OnArrival(50.0);
  metrics.OnExpired(/*arrival=*/50.0, /*now=*/100.0, /*tenant=*/0);
  // Expires just past the boundary: lands in the per-class window.
  metrics.OnArrival(60.0);
  metrics.OnExpired(60.0, 100.5, 0);

  const SimulationResult result =
      metrics.Finalize(/*end_time=*/200.0, JukeboxCounters{}, nullptr);
  EXPECT_EQ(result.expired_requests, 2);
  ASSERT_EQ(result.tenant_classes.size(), 2u);
  EXPECT_EQ(result.tenant_classes[0].expired, 1);
  EXPECT_EQ(result.issued_requests, 2);
  EXPECT_EQ(result.outstanding_at_end, 0);
}

SimulationConfig DeadlineSim(uint64_t seed) {
  SimulationConfig sim;
  sim.duration_seconds = 200'000;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kOpen;
  // Past saturation for one drive, so the queue backs up and short
  // deadlines fire while requests are still queued.
  sim.workload.mean_interarrival_seconds = 40;
  sim.workload.seed = seed;
  TenantClassConfig strict;
  strict.weight = 0.5;
  strict.deadline_seconds = 2000;
  TenantClassConfig loose;
  loose.weight = 0.5;
  sim.workload.tenant_classes = {strict, loose};
  return sim;
}

TEST(DeadlineEdge, StagedArrivalBatchRequestsExpire) {
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();

  // Envelope scheduler with a large arrival batch: at a 40 s mean gap a
  // 2000 s deadline can pass while a request is still sitting in the
  // staged buffer, exercising the AbsorbStagedToPending path inside
  // EvictExpired. validate_envelope re-checks the envelope invariant on
  // every mutation.
  AlgorithmSpec spec = AlgorithmSpec::Parse("envelope-max-requests").value();
  spec.options.arrival_batch = 32;
  spec.options.validate_envelope = true;
  ValidatingScheduler scheduler(CreateScheduler(spec, &jukebox, &catalog),
                                &jukebox, &catalog);

  Simulator simulator(&jukebox, &catalog, &scheduler, DeadlineSim(23));
  const SimulationResult result = simulator.Run();

  ASSERT_TRUE(result.overload_enabled);
  EXPECT_GT(result.expired_requests, 0);
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  // The strict class expired; the deadline-free class never does.
  ASSERT_EQ(result.tenant_classes.size(), 2u);
  EXPECT_GT(result.tenant_classes[0].expired, 0);
  EXPECT_EQ(result.tenant_classes[1].expired, 0);
  // Everything the scheduler saw was served, expired, or is still queued.
  EXPECT_EQ(scheduler.arrivals_seen(),
            scheduler.requests_served() + result.expired_requests +
                scheduler.outstanding());
}

enum class Engine { kSingleDrive, kMultiDrive };

class DeadlineEngineEdge : public ::testing::TestWithParam<Engine> {};

TEST_P(DeadlineEngineEdge, ExpiryRacesFailoverReenqueue) {
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();

  // Heavy fault mix on top of the deadline workload: failovers re-enqueue
  // requests whose deadline may already have passed, and whole-tape loss
  // can drain sweeps holding past-deadline requests. The engine must
  // settle those as expired, never serve them, and keep conservation.
  SimulationConfig sim = DeadlineSim(29);
  sim.faults.permanent_media_error_prob = 2e-3;
  sim.faults.whole_tape_fraction = 0.3;
  sim.faults.transient_read_error_prob = 0.02;
  sim.faults.retry_backoff_base_seconds = 2.0;
  sim.faults.retry_backoff_max_seconds = 60.0;

  SimulationResult result;
  if (GetParam() == Engine::kSingleDrive) {
    AlgorithmSpec spec =
        AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
    ValidatingScheduler scheduler(CreateScheduler(spec, &jukebox, &catalog),
                                  &jukebox, &catalog);
    result = Simulator(&jukebox, &catalog, &scheduler, sim).Run();
  } else {
    MultiDriveConfig drives;
    drives.num_drives = 2;
    result = MultiDriveSimulator(&jukebox, &catalog, drives, sim).Run();
  }

  ASSERT_TRUE(result.fault_injection);
  ASSERT_TRUE(result.overload_enabled);
  EXPECT_GT(result.expired_requests, 0);
  EXPECT_GT(result.faults.failovers, 0);
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, DeadlineEngineEdge,
    ::testing::Values(Engine::kSingleDrive, Engine::kMultiDrive),
    [](const ::testing::TestParamInfo<Engine>& info) {
      return info.param == Engine::kSingleDrive ? "SingleDrive"
                                                : "MultiDrive";
    });

}  // namespace
}  // namespace tapejuke
