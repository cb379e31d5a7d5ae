// Extension bench: the §4.8 gradual-fill lifecycle — replicas "for free".
//
// Starts from the paper's recommended fill pattern (hot data on a dedicated
// tape, the other tapes part-filled with cold data) and appends replicas of
// hot blocks to the tape ends piggybacked on read sweeps. The per-epoch
// series shows throughput and latency improving as the replica population
// grows, without any dedicated write-only passes in a busy (closed) system.

#include "bench_common.h"
#include "sched/envelope_scheduler.h"
#include "sim/lifecycle.h"

namespace tapejuke {
namespace bench {
namespace {

struct PointOutput {
  std::vector<EpochStats> epochs;
  int64_t replicas_written = 0;
  int64_t fill_target = 0;
};

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: gradual replica fill during operation",
                     &exit_code)) {
    return exit_code;
  }
  const ExperimentConfig base = PaperBaseConfig(options);
  SimulationConfig sim_base = base.sim;
  sim_base.warmup_seconds = 0;  // epochs cover the whole run
  sim_base.workload.queue_length = 60;
  sim_base.fill.num_epochs = 10;
  // Shared flags the fill cannot honour (--fault-*, --repair) are a usage
  // error.
  const Status valid = sim_base.Validate();
  if (!valid.ok()) {
    std::cerr << valid << "\n";
    return 2;
  }
  BenchContext ctx("ext_lifecycle", options);
  std::cout << "Lifecycle extension | PH-10 RH-40 | vertical spare-capacity "
               "start | max-bandwidth envelope | queue 60\n";

  // Point 0: baseline (fill budget 0: spare capacity left empty). Point 1:
  // gradual fill.
  std::vector<SimulationConfig> configs(2, sim_base);
  for (size_t i = 0; i < configs.size(); ++i) {
    configs[i].workload.seed = ctx.PointSeed(i);
    configs[i].fill.fill_budget_seconds = i == 1 ? 240.0 : 0.0;
    if (i == static_cast<size_t>(options.trace_point)) {
      configs[i].obs = options.Trace();
      configs[i].timeline = options.Timeline();
    }
  }
  std::vector<PointOutput> outputs(configs.size());
  ctx.RunParallel(outputs.size(), [&](size_t i) -> Status {
    Jukebox jukebox(base.jukebox);
    LayoutSpec replicated;
    replicated.layout = HotLayout::kVertical;
    replicated.num_replicas = 9;
    replicated.start_position = 1.0;
    LayoutSpec spare;
    spare.layout = HotLayout::kVertical;
    spare.logical_blocks_override =
        LayoutBuilder::MaxLogicalBlocks(jukebox, replicated);
    StatusOr<Catalog> catalog_or = LayoutBuilder::Build(&jukebox, spare);
    if (!catalog_or.ok()) return catalog_or.status();
    Catalog catalog = std::move(catalog_or).value();
    EnvelopeScheduler scheduler(&jukebox, &catalog,
                                TapePolicy::kMaxBandwidth);
    Simulator sim(&jukebox, &catalog, &scheduler, configs[i]);
    sim.Run();
    outputs[i].epochs = sim.fill()->epochs();
    outputs[i].replicas_written = sim.fill()->replicas_written();
    outputs[i].fill_target = sim.fill()->fill_target();
    return Status::Ok();
  });

  for (size_t i = 0; i < outputs.size(); ++i) {
    const bool fill = i == 1;
    const std::vector<EpochStats>& epochs = outputs[i].epochs;
    Table table({"epoch", "fill_pct", "throughput_req_min", "delay_min"});
    for (size_t e = 0; e < epochs.size(); ++e) {
      table.AddRow({static_cast<int64_t>(e + 1),
                    epochs[e].fill_fraction * 100.0,
                    epochs[e].requests_per_minute,
                    epochs[e].mean_delay_minutes});
    }
    ctx.Emit(fill ? "with gradual replica fill (piggybacked)"
                  : "baseline: spare capacity left empty",
             &table);
    if (fill) {
      std::cout << "replicas written: " << outputs[i].replicas_written
                << " / " << outputs[i].fill_target << "\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
