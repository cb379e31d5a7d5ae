// Extension bench: write-path interference (paper §4's delta-file model).
//
// Read performance as write traffic grows, with and without the paper's
// mitigation (piggybacked + idle flushing vs forced flushing only).

#include "bench_common.h"
#include "sim/write_path.h"

namespace tapejuke {
namespace bench {
namespace {

struct Policy {
  const char* label;
  bool piggyback;
  int64_t min_blocks;
};

struct PointSpec {
  double gap;
  Policy policy;
};

struct PointOutput {
  SimulationResult result;
  WritePathStats stats;
};

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: delta-staged writes vs read performance",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_write_path", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Write-path extension | " << ParamCaption(base)
            << " | dynamic max-bandwidth | queue 60\n";

  const Policy policies[] = {
      {"piggyback(8)+idle", true, 8},
      {"piggyback(32)+idle", true, 32},
      {"forced only", false, 8},
  };

  // gap == 0 is the reads-only baseline; the policy is moot there, so it
  // contributes a single point.
  std::vector<PointSpec> specs;
  for (const double gap : {0.0, 240.0, 120.0, 60.0}) {
    for (const Policy& policy : policies) {
      if (gap == 0.0 && policy.min_blocks != 8) continue;
      specs.push_back(PointSpec{gap, policy});
      if (gap == 0.0) break;
    }
  }

  std::vector<PointOutput> outputs(specs.size());
  ctx.RunParallel(specs.size(), [&](size_t i) -> Status {
    const PointSpec& spec = specs[i];
    Jukebox jukebox(base.jukebox);
    StatusOr<Catalog> catalog_or =
        LayoutBuilder::Build(&jukebox, base.layout);
    if (!catalog_or.ok()) return catalog_or.status();
    Catalog catalog = std::move(catalog_or).value();
    GreedyScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                              /*dynamic=*/true);
    SimulationConfig sim_config = base.sim;
    sim_config.workload.queue_length = 60;
    sim_config.workload.seed = ctx.PointSeed(i);
    sim_config.writes.mean_write_interarrival_seconds = spec.gap;
    sim_config.writes.piggyback = spec.policy.piggyback;
    sim_config.writes.piggyback_min_blocks = spec.policy.min_blocks;
    if (i == static_cast<size_t>(options.trace_point)) {
      sim_config.obs = options.Trace();
      sim_config.timeline = options.Timeline();
    }
    Simulator sim(&jukebox, &catalog, &scheduler, sim_config);
    outputs[i].result = sim.Run();
    if (sim.writes() != nullptr) outputs[i].stats = sim.writes()->stats();
    return Status::Ok();
  });

  Table table({"write_gap_s", "policy", "read_req_min", "read_delay_min",
               "flushed", "piggyback", "forced", "max_buffer"});
  for (size_t i = 0; i < specs.size(); ++i) {
    const PointSpec& spec = specs[i];
    const PointOutput& out = outputs[i];
    const std::string label =
        spec.gap == 0.0 ? "reads only" : spec.policy.label;
    table.AddRow({static_cast<int64_t>(spec.gap), label,
                  out.result.requests_per_minute,
                  out.result.mean_delay_minutes, out.stats.blocks_flushed,
                  out.stats.piggyback_flushes, out.stats.forced_flushes,
                  out.stats.max_buffer_occupancy});
    ctx.RecordResult("gap-" + std::to_string(static_cast<int>(spec.gap)) +
                         "/" + label,
                     60.0, out.result);
  }
  ctx.Emit("read performance under write traffic", &table);
  std::cout << "\nBatch size dominates the flush economics in a saturated "
               "closed system: a dirty\nsweep over a tape costs nearly the "
               "same whether it cleans 8 updates or 30, so\neager small "
               "piggybacks lose to patient batched flushing — raise the "
               "piggyback\nthreshold until batches match the forced-flush "
               "size and the saved tape switches\ncome for free.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
