// Extension bench: multi-drive jukebox scaling (paper §2 future work).
//
// Throughput/delay as the drive count grows, with the shared robot arm and
// tape-claim conflicts modeled. Includes the per-cabinet scaling factor and
// the robot-contention accounting.

#include <iterator>

#include "bench_common.h"
#include "sim/multi_drive.h"

namespace tapejuke {
namespace bench {
namespace {

struct PointOutput {
  SimulationResult result;
  MultiDriveStats stats;
};

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Extension: multi-drive jukebox scaling",
                     &exit_code)) {
    return exit_code;
  }
  ExperimentConfig base = PaperBaseConfig(options);
  // Shared flags this engine cannot honour (--repair) are a usage error.
  const Status valid = MultiDriveConfig{}.Validate(base.sim);
  if (!valid.ok()) {
    std::cerr << valid << "\n";
    return 2;
  }
  BenchContext ctx("ext_multi_drive", options);
  std::cout << "Multi-drive extension | " << ParamCaption(base)
            << " | dynamic max-bandwidth, shared robot arm\n";

  const std::vector<int64_t> queues = QueueLengths(options);
  const int32_t drive_counts[] = {1, 2, 3, 4};
  const size_t num_points = std::size(drive_counts) * queues.size();

  std::vector<PointOutput> outputs(num_points);
  ctx.RunParallel(num_points, [&](size_t i) -> Status {
    const int32_t drives = drive_counts[i / queues.size()];
    const int64_t queue = queues[i % queues.size()];
    Jukebox jukebox(base.jukebox);
    StatusOr<Catalog> catalog_or =
        LayoutBuilder::Build(&jukebox, base.layout);
    if (!catalog_or.ok()) return catalog_or.status();
    // Mutable: the shared --fault-* flags mask replicas dead.
    Catalog catalog = std::move(catalog_or).value();
    MultiDriveConfig drive_config;
    drive_config.num_drives = drives;
    SimulationConfig sim_config = base.sim;
    sim_config.workload.queue_length = queue;
    sim_config.workload.seed = ctx.PointSeed(i);
    // Bespoke-simulator benches attach the trace and timeline
    // themselves; point indices follow RunParallel order (drives-major,
    // queue-minor).
    if (i == static_cast<size_t>(options.trace_point)) {
      sim_config.obs = options.Trace();
      sim_config.timeline = options.Timeline();
    }
    MultiDriveSimulator sim(&jukebox, &catalog, drive_config, sim_config);
    outputs[i].result = sim.Run();
    outputs[i].stats = sim.stats();
    return Status::Ok();
  });

  Table table({"drives", "queue", "throughput_req_min", "delay_min",
               "speedup_vs_1", "robot_wait_s", "claim_conflicts"});
  for (size_t i = 0; i < num_points; ++i) {
    const int32_t drives = drive_counts[i / queues.size()];
    const size_t queue_index = i % queues.size();
    const PointOutput& out = outputs[i];
    const double baseline = outputs[queue_index].result.requests_per_minute;
    table.AddRow({static_cast<int64_t>(drives), queues[queue_index],
                  out.result.requests_per_minute,
                  out.result.mean_delay_minutes,
                  baseline > 0 ? out.result.requests_per_minute / baseline
                               : 0.0,
                  out.stats.robot_wait_seconds, out.stats.claim_conflicts});
    ctx.RecordResult("drives-" + std::to_string(drives),
                     static_cast<double>(queues[queue_index]), out.result);
  }
  ctx.Emit("drive-count scaling", &table);
  std::cout << "\nNote: near-linear (occasionally super-linear) scaling — "
               "one drive's rewind/eject\noverlaps the others' reads; the "
               "costs are robot queueing and tape-claim conflicts.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
