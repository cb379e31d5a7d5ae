#include "harness.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/experiment.h"
#include "core/farm.h"
#include "core/results_io.h"
#include "core/sweep_runner.h"
#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sched/validating_scheduler.h"
#include "sim/multi_drive.h"
#include "sim/simulator.h"
#include "timed_scheduler.h"
#include "util/check.h"
#include "util/json.h"

namespace perfbench {

using tapejuke::AlgorithmKind;
using tapejuke::AlgorithmSpec;
using tapejuke::Catalog;
using tapejuke::EnvelopeScheduler;
using tapejuke::ExperimentConfig;
using tapejuke::FarmConfig;
using tapejuke::FarmResult;
using tapejuke::FarmSimulator;
using tapejuke::Jukebox;
using tapejuke::JukeboxCounters;
using tapejuke::LayoutBuilder;
using tapejuke::MultiDriveConfig;
using tapejuke::MultiDriveSimulator;
using tapejuke::QueuingModel;
using tapejuke::Scheduler;
using tapejuke::SimulationResult;
using tapejuke::Simulator;
using tapejuke::StatusOr;
using tapejuke::TenantClassConfig;
using tapejuke::ValidatingScheduler;
using tapejuke::obs::DriveTimeInState;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Lower median (the middle sample itself, never an average of two).
double Median(std::vector<double> values) {
  TJ_CHECK(!values.empty());
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

/// Nearest-rank quantile of per-call samples, in microseconds.
double QuantileUs(std::vector<int32_t> samples_ns, double q) {
  if (samples_ns.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples_ns.size())));
  const size_t index = std::clamp<size_t>(rank, 1, samples_ns.size()) - 1;
  std::nth_element(samples_ns.begin(), samples_ns.begin() + index,
                   samples_ns.end());
  return samples_ns[index] * 1e-3;
}

double Ratio(double numerator, double denominator) {
  return denominator != 0 ? numerator / denominator : 0.0;
}

/// One memory figure of this process image from /proc/self/status, in MB:
/// "VmHWM" (peak resident) or "VmRSS" (resident now). (getrusage's
/// ru_maxrss is no use here: it survives exec, so it reports the launching
/// interpreter's peak whenever that is larger.)
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      // The value is in kB.
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  TJ_CHECK(false) << "no " << field << " line in /proc/self/status";
  return 0;
}

/// Host-speed correction for the end-to-end host times. On a shared host
/// the speed of cache- and memory-bound code drifts with other tenants'
/// load: a Run moves by a third within minutes, while a register-only loop
/// stays within a few percent. So each timed repetition is followed by one
/// pass of a fixed reference kernel (sorting 2^20 pseudo-random 32-bit
/// keys, about as cache-hungry as a Run), and each host time of that
/// repetition is scaled to the kernel's time on the reference host:
///
///   corrected = measured * kReferenceSeconds / bracketing passes,
///
/// where the bracketing passes are the mean of the pass before the
/// repetition and the pass after it (the first has only the one after).
///
/// The kernel calls no tapejuke code, so a change to the library moves a
/// corrected time exactly as much as the measured one; the measured times
/// and the reference passes are printed beside it.
class SpeedReference {
 public:
  /// Median pass on the 4-vCPU Xeon KVM guest the benchmark was tuned on.
  static constexpr double kReferenceSeconds = 0.12;

  SpeedReference() {
    const double rss_before = StatusMb("VmRSS");
    keys_.resize(size_t{1} << 20);
    work_.resize(keys_.size());
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (uint32_t& key : keys_) {
      state += 0x9E3779B97F4A7C15ULL;  // SplitMix64
      uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      key = static_cast<uint32_t>(z ^ (z >> 31));
    }
    resident_mb_ = StatusMb("VmRSS") - rss_before;
  }

  /// Times one pass and returns the factor that corrects the host times
  /// measured since the previous pass.
  double Factor() {
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    const Clock::time_point start = Clock::now();
    std::sort(work_.begin(), work_.end());
    const double pass = SecondsSince(start);
    TJ_CHECK(std::is_sorted(work_.begin(), work_.end()));
    const double bracket =
        passes_.empty() ? pass : (passes_.back() + pass) / 2;
    passes_.push_back(pass);
    return kReferenceSeconds / bracket;
  }

  const std::vector<double>& passes() const { return passes_; }

  /// Peak resident memory of the process so far without the kernel's
  /// buffers, which stay resident from construction on.
  double PeakRssMb() const { return StatusMb("VmHWM") - resident_mb_; }

 private:
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> work_;
  std::vector<double> passes_;
  double resident_mb_ = 0;
};

/// One series of host times: as measured, and corrected by the reference
/// passes that bracket each sample.
struct HostTimes {
  std::vector<double> measured;
  std::vector<double> corrected;

  void Add(double seconds, double factor) {
    measured.push_back(seconds);
    corrected.push_back(seconds * factor);
  }
  size_t size() const { return measured.size(); }
};

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

std::vector<MetricSpec> EndToEndSpecs() {
  return {
      {"setup_s", "s"},
      {"run_wall_s", "s"},
      {"requests_per_host_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"sim_throughput_req_per_min", "req/min"},
      {"sim_mean_delay_s", "s"},
      {"sim_p50_delay_s", "s"},
      {"sim_p99_delay_s", "s"},
      {"sim_class0_p99_delay_s", "s"},
      {"served_share", "ratio"},
  };
}

std::vector<MetricSpec> PerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"layout.build_s", "s"},
      {"layout.total_copies", "count"},
      {"sched.major.calls", "count"},
      {"sched.major.self_s", "s"},
      {"sched.major.p50_us", "us"},
      {"sched.major.p99_us", "us"},
      {"sched.arrival.calls", "count"},
      {"sched.arrival.self_s", "s"},
      {"sched.arrival.p99_us", "us"},
      {"sched.pop.calls", "count"},
      {"sched.pop.self_s", "s"},
      {"sched.evict.calls", "count"},
      {"sched.evict.self_s", "s"},
      {"sched.background.calls", "count"},
      {"sched.background.self_s", "s"},
      {"sched.self_s", "s"},
      {"sched.share", "ratio"},
      {"sched.arrival.inserted_share", "ratio"},
      {"sched.entries_per_major", "entries"},
      {"sched.env.rounds_per_major", "rounds"},
      {"sched.env.rescored_per_major", "tapes"},
      {"sched.env.master_rebuilds", "count"},
      {"sched.env.epoch_reuses", "count"},
      {"sim.self_s", "s"},
      {"sim.share", "ratio"},
      {"sim.faults.read_retries", "count"},
      {"sim.faults.replicas_masked", "count"},
      {"sim.repair.repairs_completed", "count"},
      {"sim.repair.scrub_blocks_read", "count"},
      {"sim.repair.backlog_final", "count"},
      {"sim.live_replica_fraction", "ratio"},
      {"sim.admission.shed", "count"},
      {"sim.expired", "count"},
      {"sim.failed_share", "ratio"},
      {"sim.md.box_wall_s", "s"},
      {"sim.md.robot_wait_s_per_switch", "s"},
      {"sim.md.claim_conflicts", "count"},
      {"tape.locate_s_per_request", "s"},
      {"tape.read_s_per_request", "s"},
      {"tape.switch_s_per_request", "s"},
      {"tape.rewind_s_per_request", "s"},
      {"tape.switches_per_hour", "1/h"},
      {"tape.transfer_utilization", "ratio"},
  };
  for (int a = 0; a < tapejuke::obs::kNumDriveActivities; ++a) {
    specs.push_back(
        {std::string("obs.state.") +
             tapejuke::obs::DriveActivityName(
                 static_cast<tapejuke::obs::DriveActivity>(a)) +
             "_share",
         "ratio"});
  }
  const std::vector<MetricSpec> tail = {
      {"obs.drive_utilization", "ratio"},
      {"farm.serial_wall_s", "s"},
      {"farm.parallel_speedup", "x"},
      {"farm.box_completion_spread", "ratio"},
      {"other.self_s", "s"},
      {"trace.run_wall_s", "s"},
      {"trace.overhead_share", "ratio"},
      {"trace.plain_samples", "count"},
      {"trace.traced_samples", "count"},
  };
  specs.insert(specs.end(), tail.begin(), tail.end());
  return specs;
}

/// Values for one mode's metric table; every metric starts at 0, which is
/// what a layer the workload does not reach reports.
class MetricValues {
 public:
  explicit MetricValues(bool trace)
      : specs_(MetricSpecs(trace)), values_(specs_.size(), 0.0) {}

  void Set(const std::string& name, double value) {
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (specs_[i].name == name) {
        values_[i] = value;
        return;
      }
    }
    TJ_CHECK(false) << "metric" << name << "is not in this mode's table";
  }

  std::vector<double> Take() { return std::move(values_); }

 private:
  const std::vector<MetricSpec>& specs_;
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// Workloads. Every one runs the paper's box: 10 tapes, 16 MB blocks, PH-10,
// RH-40, 10% warm-up.
// ---------------------------------------------------------------------------

/// Set-up takes about a millisecond, so every timed repetition is followed
/// by a few set-up-only samples, which spreads them over the timed window,
/// and a run takes at least kSetupSamples of them.
constexpr int kSetupsPerRep = 4;
constexpr size_t kSetupSamples = 101;

constexpr int32_t kFarmBoxes = 64;
constexpr int32_t kFarmDrives = 4;
constexpr int32_t kFarmThreads = 2;
constexpr int64_t kFarmQueuePerBox = 140;

ExperimentConfig PaperBox(uint64_t seed, double sim_seconds,
                          const char* algorithm) {
  ExperimentConfig config;
  config.jukebox.num_tapes = 10;
  config.jukebox.block_size_mb = 16;
  config.layout.hot_fraction = 0.10;
  config.sim.workload.hot_request_fraction = 0.40;
  config.sim.workload.seed = seed;
  config.sim.duration_seconds = sim_seconds;
  config.sim.warmup_seconds = 0.1 * sim_seconds;
  config.algorithm = AlgorithmSpec::Parse(algorithm).value();
  return config;
}

/// The Fig. 8 layout: NR-9, vertical, hot region at the tape ends (SP-1).
void Fig8Layout(ExperimentConfig* config) {
  config->layout.num_replicas = 9;
  config->layout.layout = tapejuke::HotLayout::kVertical;
  config->layout.start_position = 1.0;
}

ExperimentConfig SingleDriveConfig(Workload workload, uint64_t seed,
                                   double scale) {
  switch (workload) {
    case Workload::kPaperFig8: {
      ExperimentConfig config =
          PaperBox(seed, 10e6 * scale, "envelope-max-bandwidth");
      Fig8Layout(&config);
      config.sim.workload.queue_length = 140;
      return config;
    }
    case Workload::kDeepQueue: {
      ExperimentConfig config =
          PaperBox(seed, 4e6 * scale, "envelope-max-bandwidth");
      Fig8Layout(&config);
      config.sim.workload.queue_length = 10'000;
      return config;
    }
    case Workload::kOverloadFaults: {
      ExperimentConfig config =
          PaperBox(seed, 10e6 * scale, "dynamic-max-bandwidth");
      config.layout.num_replicas = 2;
      // Leave ~10% of the archive unoccupied as repair spare capacity.
      const Jukebox probe(config.jukebox);
      config.layout.logical_blocks_override =
          LayoutBuilder::MaxLogicalBlocks(probe, config.layout) * 9 / 10;
      tapejuke::WorkloadConfig& w = config.sim.workload;
      w.model = QueuingModel::kOpen;
      w.mean_interarrival_seconds = 60;
      w.diurnal_amplitude = 0.5;
      w.diurnal_period_seconds = 40'000;
      w.burst_interval_seconds = 20'000;
      w.burst_size = 30;
      w.burst_spread_seconds = 600;
      // The ext_overload tenant mix with deadlines: a protected class with a
      // 15000 s p99 SLO, a standard class, and best-effort bulk traffic.
      TenantClassConfig premium;
      premium.weight = 0.1;
      premium.p99_slo_seconds = 15'000;
      premium.deadline_seconds = 15'000;
      TenantClassConfig standard;
      standard.weight = 0.3;
      standard.p99_slo_seconds = 45'000;
      standard.deadline_seconds = 30'000;
      TenantClassConfig besteffort;
      besteffort.weight = 0.6;
      w.tenant_classes = {premium, standard, besteffort};
      config.sim.admission.policy = tapejuke::AdmissionPolicy::kAdaptive;
      config.sim.faults.transient_read_error_prob = 0.005;
      config.sim.faults.max_read_retries = 3;
      config.sim.faults.permanent_media_error_prob = 2e-3;
      config.sim.repair.enable_repair = true;
      config.sim.repair.scrub_interval_seconds = 100'000;
      config.sim.repair.repair_bandwidth_mb_per_s = 20;
      return config;
    }
    case Workload::kFarmMultidrive:
      break;
  }
  TJ_CHECK(false) << "not a single-drive workload";
  return {};
}

FarmConfig FarmWorkload(uint64_t seed, double scale, int32_t threads) {
  FarmConfig config;
  config.num_jukeboxes = kFarmBoxes;
  config.drives_per_jukebox = kFarmDrives;
  config.threads = threads;
  config.per_jukebox = PaperBox(seed, 250e3 * scale, "dynamic-max-bandwidth");
  config.per_jukebox.sim.workload.queue_length =
      kFarmQueuePerBox * kFarmBoxes;
  return config;
}

/// The configuration box `index` of `farm` runs: the farm's fixed split of
/// the closed population and its per-box seed (see core/farm.h).
ExperimentConfig FarmBoxConfig(const FarmConfig& farm, int32_t index) {
  ExperimentConfig config = farm.per_jukebox;
  tapejuke::WorkloadConfig& w = config.sim.workload;
  const int64_t n = farm.num_jukeboxes;
  w.queue_length = w.queue_length / n + (index < w.queue_length % n ? 1 : 0);
  w.seed = tapejuke::DerivePointSeed(w.seed, static_cast<uint64_t>(index));
  return config;
}

/// A seed no caller picks while tuning: claims made on --seed are checked
/// on this one too.
uint64_t HeldOutSeed(uint64_t seed) {
  return tapejuke::DerivePointSeed(seed, 0x68656C64ULL);
}

// ---------------------------------------------------------------------------
// Engines, constructed from a config exactly as a library user would.
// ---------------------------------------------------------------------------

enum class SchedMode { kPlain, kTimed, kValidating };

struct Engine {
  std::unique_ptr<Jukebox> jukebox;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Simulator> simulator;
  double layout_build_s = 0;
};

std::unique_ptr<Catalog> BuildLayout(Jukebox* jukebox,
                                     const ExperimentConfig& config) {
  StatusOr<Catalog> catalog = LayoutBuilder::Build(jukebox, config.layout);
  TJ_CHECK(catalog.ok()) << catalog.status().ToString();
  return std::make_unique<Catalog>(std::move(catalog).value());
}

Engine BuildEngine(const ExperimentConfig& config, SchedMode mode) {
  Engine engine;
  engine.jukebox = std::make_unique<Jukebox>(config.jukebox);
  const Clock::time_point layout_start = Clock::now();
  engine.catalog = BuildLayout(engine.jukebox.get(), config);
  engine.layout_build_s = SecondsSince(layout_start);
  std::unique_ptr<Scheduler> scheduler = tapejuke::CreateScheduler(
      config.algorithm, engine.jukebox.get(), engine.catalog.get());
  if (mode == SchedMode::kTimed) {
    scheduler = std::make_unique<TimedScheduler>(
        std::move(scheduler), engine.jukebox.get(), engine.catalog.get());
  } else if (mode == SchedMode::kValidating) {
    scheduler = std::make_unique<ValidatingScheduler>(
        std::move(scheduler), engine.jukebox.get(), engine.catalog.get());
  }
  engine.scheduler = std::move(scheduler);
  engine.simulator = std::make_unique<Simulator>(
      engine.jukebox.get(), engine.catalog.get(), engine.scheduler.get(),
      config.sim);
  return engine;
}

struct BoxEngine {
  std::unique_ptr<Jukebox> jukebox;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<MultiDriveSimulator> simulator;
  double layout_build_s = 0;
};

/// One farm box on its own, built the way the farm builds it.
BoxEngine BuildBox(const ExperimentConfig& config, int32_t drives) {
  BoxEngine box;
  box.jukebox = std::make_unique<Jukebox>(config.jukebox);
  const Clock::time_point layout_start = Clock::now();
  box.catalog = BuildLayout(box.jukebox.get(), config);
  box.layout_build_s = SecondsSince(layout_start);
  MultiDriveConfig multi;
  multi.num_drives = drives;
  multi.policy = config.algorithm.policy;
  multi.dynamic_insertion = config.algorithm.kind == AlgorithmKind::kDynamic;
  multi.options = config.algorithm.options;
  box.simulator = std::make_unique<MultiDriveSimulator>(
      box.jukebox.get(), box.catalog.get(), multi, config.sim);
  return box;
}

template <typename T>
std::string Fingerprint(const T& result) {
  std::ostringstream out;
  tapejuke::JsonWriter writer(&out);
  tapejuke::WriteJson(&writer, result);
  return out.str();
}

int64_t Settled(const SimulationResult& r) {
  return r.completed_total + r.failed_requests + r.expired_requests +
         r.shed_requests;
}

// ---------------------------------------------------------------------------
// Correctness checks: each failure is printed and recorded; the run goes on
// so one report lists every failed check.
// ---------------------------------------------------------------------------

class Checks {
 public:
  explicit Checks(Report* report) : report_(report) {}

  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "CHECK FAILED: " << what << "\n";
      report_->failures.push_back(what);
    }
  }

  /// completed_total + failed + expired + shed + outstanding == issued,
  /// recomputed from the result's own counts.
  void Conservation(const SimulationResult& r, const std::string& what) {
    Expect(Settled(r) + r.outstanding_at_end == r.issued_requests &&
               r.issued_requests > 0,
           what + ": conservation (completed + failed + expired + shed + "
                  "outstanding == issued)");
  }

  /// Every repetition of one workload and seed must produce the same
  /// simulated statistics.
  void SameAsFirst(const std::string& fingerprint, const std::string& what) {
    if (first_.empty()) {
      first_ = fingerprint;
      return;
    }
    Expect(fingerprint == first_,
           what + ": simulated results differ from the first repetition");
  }

 private:
  Report* report_;
  std::string first_;
};

// ---------------------------------------------------------------------------
// Shared metric derivations.
// ---------------------------------------------------------------------------

void SetEndToEnd(const SimulationResult& r, double setup_s, double run_s,
                 double peak_rss_mb, MetricValues* m) {
  m->Set("setup_s", setup_s);
  m->Set("run_wall_s", run_s);
  m->Set("requests_per_host_s", Ratio(static_cast<double>(Settled(r)), run_s));
  m->Set("peak_rss_mb", peak_rss_mb);
  m->Set("sim_throughput_req_per_min", r.requests_per_minute);
  m->Set("sim_mean_delay_s", r.mean_delay_seconds);
  m->Set("sim_p50_delay_s", r.p50_delay_seconds);
  m->Set("sim_p99_delay_s", r.p99_delay_seconds);
  // Without a tenant mix every request is tenant 0, so class 0 is the
  // whole population.
  m->Set("sim_class0_p99_delay_s", r.tenant_classes.empty()
                                       ? r.p99_delay_seconds
                                       : r.tenant_classes[0].p99_delay_seconds);
  m->Set("served_share", Ratio(static_cast<double>(r.completed_total),
                               static_cast<double>(r.issued_requests)));
}

void SetSimCounts(const SimulationResult& r, MetricValues* m) {
  m->Set("sim.faults.read_retries", static_cast<double>(r.faults.read_retries));
  m->Set("sim.faults.replicas_masked",
         static_cast<double>(r.faults.replicas_masked));
  m->Set("sim.repair.repairs_completed",
         static_cast<double>(r.repair.repairs_completed));
  m->Set("sim.repair.scrub_blocks_read",
         static_cast<double>(r.repair.scrub_blocks_read));
  m->Set("sim.repair.backlog_final",
         static_cast<double>(r.repair.backlog_final));
  m->Set("sim.live_replica_fraction", r.live_replica_fraction);
  m->Set("sim.admission.shed", static_cast<double>(r.shed_requests));
  m->Set("sim.expired", static_cast<double>(r.expired_requests));
  m->Set("sim.failed_share",
         Ratio(static_cast<double>(r.failed_requests + r.expired_requests +
                                   r.shed_requests),
               static_cast<double>(r.issued_requests)));
}

void SetTape(const SimulationResult& r, MetricValues* m) {
  const JukeboxCounters& c = r.counters;
  const double n = static_cast<double>(r.completed_requests);
  m->Set("tape.locate_s_per_request", Ratio(c.locate_seconds, n));
  m->Set("tape.read_s_per_request", Ratio(c.read_seconds, n));
  m->Set("tape.switch_s_per_request", Ratio(c.switch_seconds, n));
  m->Set("tape.rewind_s_per_request", Ratio(c.rewind_seconds, n));
  m->Set("tape.switches_per_hour", r.tape_switches_per_hour);
  m->Set("tape.transfer_utilization", r.transfer_utilization);
}

void SetObs(const SimulationResult& r, MetricValues* m) {
  double total = 0;
  for (const DriveTimeInState& drive : r.time_in_state) total += drive.Total();
  for (int a = 0; a < tapejuke::obs::kNumDriveActivities; ++a) {
    double seconds = 0;
    for (const DriveTimeInState& drive : r.time_in_state) {
      seconds += drive.seconds[static_cast<size_t>(a)];
    }
    m->Set(std::string("obs.state.") +
               tapejuke::obs::DriveActivityName(
                   static_cast<tapejuke::obs::DriveActivity>(a)) +
               "_share",
           Ratio(seconds, total));
  }
  m->Set("obs.drive_utilization", r.drive_utilization);
}

void PrintSample(const std::string& label, const std::vector<double>& xs) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  std::cout << label << ": n=" << sorted.size() << " min=" << sorted.front()
            << " median=" << Median(xs) << " max=" << sorted.back()
            << " samples=";
  for (const double x : xs) std::cout << " " << x;
  std::cout << "\n";
}

void PrintHostTimes(const std::string& label, const HostTimes& times) {
  PrintSample(label + " measured", times.measured);
  PrintSample(label + " corrected", times.corrected);
}

void PrintSim(const std::string& label, const SimulationResult& r) {
  std::cout << label << ": issued=" << r.issued_requests
            << " completed=" << r.completed_total
            << " failed=" << r.failed_requests
            << " expired=" << r.expired_requests
            << " shed=" << r.shed_requests
            << " req/min=" << r.requests_per_minute
            << " mean_delay_s=" << r.mean_delay_seconds
            << " p99_delay_s=" << r.p99_delay_seconds << "\n";
}

// ---------------------------------------------------------------------------
// Single-drive workloads: paper_fig8, deep_queue, overload_faults.
// ---------------------------------------------------------------------------

/// What one traced repetition measured through the TimedScheduler.
struct SchedProfile {
  double run_s = 0;
  std::array<CallStats, kNumSchedCalls> calls;
  double self_s = 0;
  int64_t timed_calls = 0;
  int64_t arrivals_inserted = 0;
  int64_t major_entries = 0;
  std::optional<EnvelopeScheduler::EnvelopeCounters> envelope;
};

SchedProfile Profile(const TimedScheduler& timed, double run_s) {
  SchedProfile p;
  p.run_s = run_s;
  for (int i = 0; i < kNumSchedCalls; ++i) {
    p.calls[static_cast<size_t>(i)] = timed.stats(static_cast<SchedCall>(i));
  }
  p.self_s = timed.self_seconds();
  p.timed_calls = timed.timed_calls();
  p.arrivals_inserted = timed.arrivals_inserted();
  p.major_entries = timed.major_entries();
  if (const auto* envelope =
          dynamic_cast<const EnvelopeScheduler*>(&timed.inner())) {
    p.envelope = envelope->counters();
  }
  return p;
}

void SetSched(const SchedProfile& p, double clock_read_ns, MetricValues* m) {
  const auto& major = p.calls[static_cast<size_t>(SchedCall::kMajor)];
  const auto& arrival = p.calls[static_cast<size_t>(SchedCall::kArrival)];
  const auto seconds = [](const CallStats& s) { return s.total_ns * 1e-9; };
  m->Set("sched.major.calls", static_cast<double>(major.calls));
  m->Set("sched.major.self_s", seconds(major));
  m->Set("sched.major.p50_us", QuantileUs(major.samples_ns, 0.50));
  m->Set("sched.major.p99_us", QuantileUs(major.samples_ns, 0.99));
  m->Set("sched.arrival.calls", static_cast<double>(arrival.calls));
  m->Set("sched.arrival.self_s", seconds(arrival));
  m->Set("sched.arrival.p99_us", QuantileUs(arrival.samples_ns, 0.99));
  const std::pair<const char*, SchedCall> simple[] = {
      {"pop", SchedCall::kPop},
      {"evict", SchedCall::kEvict},
      {"background", SchedCall::kBackground}};
  for (const auto& [name, call] : simple) {
    const CallStats& s = p.calls[static_cast<size_t>(call)];
    m->Set(std::string("sched.") + name + ".calls",
           static_cast<double>(s.calls));
    m->Set(std::string("sched.") + name + ".self_s", seconds(s));
  }
  m->Set("sched.arrival.inserted_share",
         Ratio(static_cast<double>(p.arrivals_inserted),
               static_cast<double>(arrival.calls)));
  m->Set("sched.entries_per_major",
         Ratio(static_cast<double>(p.major_entries),
               static_cast<double>(major.calls)));
  if (p.envelope.has_value()) {
    const EnvelopeScheduler::EnvelopeCounters& e = *p.envelope;
    const double majors = static_cast<double>(e.major_reschedules);
    m->Set("sched.env.rounds_per_major",
           Ratio(static_cast<double>(e.extension_rounds), majors));
    m->Set("sched.env.rescored_per_major",
           Ratio(static_cast<double>(e.tapes_rescored), majors));
    m->Set("sched.env.master_rebuilds", static_cast<double>(e.master_rebuilds));
    m->Set("sched.env.epoch_reuses", static_cast<double>(e.epoch_reuses));
  }
  // The run's host time, split: scheduler calls, the decorator's own clock
  // reads (one per timed call falls outside every timed interval), and the
  // rest of Run (the sim layer with the tape and obs calls it makes).
  const double other_s = static_cast<double>(p.timed_calls) * clock_read_ns *
                         1e-9;
  const double sim_s = p.run_s - p.self_s - other_s;
  m->Set("sched.self_s", p.self_s);
  m->Set("sched.share", Ratio(p.self_s, p.run_s));
  m->Set("sim.self_s", sim_s);
  m->Set("sim.share", Ratio(sim_s, p.run_s));
  m->Set("other.self_s", other_s);
  m->Set("trace.run_wall_s", p.run_s);
}

bool HasValidatingPass(Workload workload) {
  return workload == Workload::kPaperFig8 || workload == Workload::kDeepQueue;
}

/// Simulated seconds of the ValidatingScheduler pass: short, because the
/// envelope oracle re-runs the from-scratch kernel on every reschedule.
double ValidatingSeconds(Workload workload) {
  return workload == Workload::kPaperFig8 ? 1e6 : 5e4;
}

Report RunSingleDrive(const Options& options) {
  const ExperimentConfig config =
      SingleDriveConfig(options.workload, options.seed, options.scale);
  const tapejuke::Status valid = config.Validate();
  TJ_CHECK(valid.ok()) << valid.ToString();

  Report report;
  Checks checks(&report);
  MetricValues metrics(options.trace);
  SpeedReference reference;
  HostTimes setup_s;
  std::vector<double> layout_s;
  HostTimes plain_run_s;
  std::vector<SchedProfile> traced;
  SimulationResult result;
  double peak_rss_mb = 0;
  // kSetupsPerRep set-up-only samples; the next reference pass corrects them.
  const auto sample_setups = [&]() {
    std::array<double, kSetupsPerRep> seconds;
    for (double& s : seconds) {
      const Clock::time_point start = Clock::now();
      const Engine engine = BuildEngine(config, SchedMode::kPlain);
      s = SecondsSince(start);
      layout_s.push_back(engine.layout_build_s);
    }
    return seconds;
  };
  const auto add_setups = [&](const std::array<double, kSetupsPerRep>& seconds,
                              double factor) {
    for (const double s : seconds) setup_s.Add(s, factor);
  };

  // Timed repetitions. A traced run alternates plain and traced
  // repetitions so both see the same machine state.
  const Clock::time_point window = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool traced_rep = options.trace && rep % 2 == 1;
    const Clock::time_point setup_start = Clock::now();
    Engine engine =
        BuildEngine(config, traced_rep ? SchedMode::kTimed : SchedMode::kPlain);
    const double setup = SecondsSince(setup_start);
    const Clock::time_point run_start = Clock::now();
    SimulationResult r = engine.simulator->Run();
    const double run = SecondsSince(run_start);
    // Peak memory through set-up and one Run, as a user who runs once sees
    // it; later repetitions and the check runs would only give allocator
    // timing more chances to raise the high-water mark.
    if (rep == 0) peak_rss_mb = reference.PeakRssMb();
    ++report.attempted;
    checks.Conservation(r, "repetition " + std::to_string(rep));
    checks.SameAsFirst(Fingerprint(r), traced_rep
                                           ? "traced repetition"
                                           : "plain repetition");
    if (rep == 0) result = std::move(r);
    const auto setups = sample_setups();
    const double factor = reference.Factor();
    add_setups(setups, factor);
    if (traced_rep) {
      traced.push_back(
          Profile(static_cast<const TimedScheduler&>(*engine.scheduler), run));
    } else {
      setup_s.Add(setup, factor);
      layout_s.push_back(engine.layout_build_s);
      plain_run_s.Add(run, factor);
    }
    const size_t min_plain = options.trace ? 2 : 3;
    if (SecondsSince(window) >= options.seconds &&
        plain_run_s.size() >= min_plain &&
        (!options.trace || traced.size() >= 2)) {
      break;
    }
  }
  while (setup_s.size() < kSetupSamples) {
    const auto setups = sample_setups();
    add_setups(setups, reference.Factor());
  }
  PrintHostTimes("setup_s", setup_s);
  PrintHostTimes("run_wall_s (plain)", plain_run_s);
  PrintSample("reference pass", reference.passes());
  PrintSim("seed " + std::to_string(options.seed), result);

  // The ValidatingScheduler pass: a short run under the oracle-armed
  // decorator must reproduce the plain run of the same length exactly.
  if (HasValidatingPass(options.workload)) {
    ExperimentConfig shorter = config;
    shorter.sim.duration_seconds =
        ValidatingSeconds(options.workload) * options.scale;
    shorter.sim.warmup_seconds = 0.1 * shorter.sim.duration_seconds;
    Engine plain = BuildEngine(shorter, SchedMode::kPlain);
    Engine validating = BuildEngine(shorter, SchedMode::kValidating);
    const SimulationResult a = plain.simulator->Run();
    const SimulationResult b = validating.simulator->Run();
    report.attempted += 2;
    checks.Expect(Fingerprint(a) == Fingerprint(b),
                  "ValidatingScheduler pass differs from the plain run");
    std::cout << "validating pass: " << b.completed_total
              << " requests served under the oracle\n";
  }

  // The held-out seed.
  {
    ExperimentConfig held_out = config;
    held_out.sim.workload.seed = HeldOutSeed(options.seed);
    Engine engine = BuildEngine(held_out, SchedMode::kPlain);
    const SimulationResult r = engine.simulator->Run();
    ++report.attempted;
    checks.Conservation(r, "held-out seed");
    PrintSim("held-out seed " + std::to_string(held_out.sim.workload.seed), r);
  }

  if (!options.trace) {
    SetEndToEnd(result, Median(setup_s.corrected),
                Median(plain_run_s.corrected), peak_rss_mb, &metrics);
    report.values = metrics.Take();
    return report;
  }

  // Per-layer numbers come from the traced repetition with the median Run
  // time, so its parts add up to the run_wall_s it reports.
  std::sort(traced.begin(), traced.end(),
            [](const SchedProfile& a, const SchedProfile& b) {
              return a.run_s < b.run_s;
            });
  const SchedProfile& median = traced[(traced.size() - 1) / 2];
  std::vector<double> traced_run_s;
  for (const SchedProfile& p : traced) traced_run_s.push_back(p.run_s);
  PrintSample("run_wall_s (traced)", traced_run_s);
  const double plain_median = Median(plain_run_s.measured);
  SetSched(median, ClockReadNanoseconds(), &metrics);
  {
    Engine engine = BuildEngine(config, SchedMode::kPlain);
    metrics.Set("layout.total_copies",
                static_cast<double>(
                    LayoutBuilder::ComputeStats(*engine.jukebox,
                                                *engine.catalog)
                        .total_copies));
  }
  metrics.Set("layout.build_s", Median(layout_s));
  SetSimCounts(result, &metrics);
  SetTape(result, &metrics);
  SetObs(result, &metrics);
  metrics.Set("trace.overhead_share",
              (median.run_s - plain_median) / plain_median);
  metrics.Set("trace.plain_samples", static_cast<double>(plain_run_s.size()));
  metrics.Set("trace.traced_samples", static_cast<double>(traced.size()));
  report.values = metrics.Take();
  return report;
}

// ---------------------------------------------------------------------------
// farm_multidrive: 64 four-drive boxes sharded over two threads.
// ---------------------------------------------------------------------------

struct BoxRun {
  SimulationResult result;
  tapejuke::MultiDriveStats stats;
  JukeboxCounters cumulative;
  int64_t completed_total = 0;
  double run_s = 0;
};

BoxRun RunBox(const FarmConfig& farm, int32_t index) {
  BoxEngine box = BuildBox(FarmBoxConfig(farm, index), farm.drives_per_jukebox);
  BoxRun out;
  const Clock::time_point start = Clock::now();
  out.result = box.simulator->Run();
  out.run_s = SecondsSince(start);
  out.stats = box.simulator->stats();
  out.cumulative = box.simulator->counters();
  out.completed_total = box.simulator->metrics().completed_total();
  return out;
}

Report RunFarm(const Options& options) {
  const FarmConfig config =
      FarmWorkload(options.seed, options.scale, kFarmThreads);
  const tapejuke::Status valid = config.Validate();
  TJ_CHECK(valid.ok()) << valid.ToString();

  Report report;
  Checks checks(&report);
  MetricValues metrics(options.trace);
  SpeedReference reference;
  HostTimes setup_s;
  std::vector<double> layout_s;
  HostTimes run_s;
  std::optional<FarmResult> result;
  std::string fingerprint;
  double peak_rss_mb = 0;

  // Set-up of a farm is its constructor plus the per-box engine each box
  // builds when it starts; box 0's stands for all of them.
  const auto setup = [&](double* seconds) {
    const Clock::time_point start = Clock::now();
    auto farm = std::make_unique<FarmSimulator>(config);
    const BoxEngine box =
        BuildBox(FarmBoxConfig(config, 0), config.drives_per_jukebox);
    *seconds = SecondsSince(start);
    layout_s.push_back(box.layout_build_s);
    return farm;
  };
  // kSetupsPerRep set-up-only samples; the next reference pass corrects them.
  const auto sample_setups = [&]() {
    std::array<double, kSetupsPerRep> seconds;
    for (double& s : seconds) setup(&s);
    return seconds;
  };

  const Clock::time_point window = Clock::now();
  for (int rep = 0;; ++rep) {
    double setup_seconds = 0;
    std::unique_ptr<FarmSimulator> farm = setup(&setup_seconds);
    const Clock::time_point run_start = Clock::now();
    FarmResult r = farm->Run();
    const double run = SecondsSince(run_start);
    if (rep == 0) peak_rss_mb = reference.PeakRssMb();
    ++report.attempted;
    checks.Conservation(r.aggregate, "repetition " + std::to_string(rep));
    checks.SameAsFirst(Fingerprint(r), "farm repetition");
    if (rep == 0) {
      fingerprint = Fingerprint(r);
      result = std::move(r);
    }
    const auto setups = sample_setups();
    const double factor = reference.Factor();
    setup_s.Add(setup_seconds, factor);
    for (const double s : setups) setup_s.Add(s, factor);
    run_s.Add(run, factor);
    if (SecondsSince(window) >= options.seconds && run_s.size() >= 3) break;
  }
  while (setup_s.size() < kSetupSamples) {
    const auto setups = sample_setups();
    const double factor = reference.Factor();
    for (const double s : setups) setup_s.Add(s, factor);
  }
  PrintHostTimes("setup_s", setup_s);
  PrintHostTimes("run_wall_s", run_s);
  PrintSample("reference pass", reference.passes());
  PrintSim("seed " + std::to_string(options.seed), result->aggregate);

  // The same farm on one thread must give identical results.
  FarmConfig serial = config;
  serial.threads = 1;
  const Clock::time_point serial_start = Clock::now();
  const FarmResult serial_result = FarmSimulator(serial).Run();
  const double serial_s = SecondsSince(serial_start);
  ++report.attempted;
  checks.Expect(Fingerprint(serial_result) == fingerprint,
                "farm results at 1 thread differ from 2 threads");
  std::cout << "farm at 1 thread: " << serial_s << " s\n";

  // Boxes run standalone must match the farm's per-box completions: box 0
  // always, every box in a traced run (which times them one by one).
  const int32_t standalone = options.trace ? config.num_jukeboxes : 1;
  std::vector<BoxRun> boxes;
  for (int32_t i = 0; i < standalone; ++i) {
    boxes.push_back(RunBox(config, i));
    ++report.attempted;
    checks.Expect(boxes.back().completed_total ==
                      result->completions_per_jukebox[static_cast<size_t>(i)],
                  "box " + std::to_string(i) +
                      " standalone differs from the farm's completions");
  }

  {
    FarmConfig held_out = config;
    held_out.per_jukebox.sim.workload.seed = HeldOutSeed(options.seed);
    const FarmResult r = FarmSimulator(held_out).Run();
    ++report.attempted;
    checks.Conservation(r.aggregate, "held-out seed");
    PrintSim("held-out seed " +
                 std::to_string(held_out.per_jukebox.sim.workload.seed),
             r.aggregate);
  }

  const double run_median = Median(run_s.measured);
  if (!options.trace) {
    SetEndToEnd(result->aggregate, Median(setup_s.corrected),
                Median(run_s.corrected), peak_rss_mb, &metrics);
    report.values = metrics.Take();
    return report;
  }

  // The farm bypasses the Scheduler interface, so its split is timed
  // around whole boxes: the box engines' time spread over the worker
  // threads is the sim layer; the rest of the parallel run (sharding, load
  // imbalance, the merge) is core + util, reported as other.
  double boxes_s = 0;
  for (const BoxRun& box : boxes) boxes_s += box.run_s;
  const double sim_s = boxes_s / kFarmThreads;
  metrics.Set("sim.self_s", sim_s);
  metrics.Set("sim.share", Ratio(sim_s, run_median));
  metrics.Set("other.self_s", run_median - sim_s);
  metrics.Set("trace.run_wall_s", run_median);
  metrics.Set("trace.overhead_share", (boxes_s - serial_s) / serial_s);
  metrics.Set("trace.plain_samples", static_cast<double>(run_s.size()));
  metrics.Set("trace.traced_samples", 1);

  const BoxRun& box0 = boxes.front();
  metrics.Set("sim.md.box_wall_s", box0.run_s);
  metrics.Set("sim.md.robot_wait_s_per_switch",
              Ratio(box0.stats.robot_wait_seconds,
                    static_cast<double>(box0.cumulative.tape_switches)));
  metrics.Set("sim.md.claim_conflicts",
              static_cast<double>(box0.stats.claim_conflicts));
  {
    const BoxEngine box =
        BuildBox(FarmBoxConfig(config, 0), config.drives_per_jukebox);
    metrics.Set("layout.total_copies",
                static_cast<double>(
                    LayoutBuilder::ComputeStats(*box.jukebox, *box.catalog)
                        .total_copies));
  }
  metrics.Set("layout.build_s", Median(layout_s));
  SetSimCounts(result->aggregate, &metrics);
  SetTape(result->aggregate, &metrics);
  SetObs(box0.result, &metrics);

  const std::vector<int64_t>& per_box = result->completions_per_jukebox;
  const auto [lo, hi] = std::minmax_element(per_box.begin(), per_box.end());
  double mean = 0;
  for (const int64_t c : per_box) mean += static_cast<double>(c);
  mean /= static_cast<double>(per_box.size());
  metrics.Set("farm.serial_wall_s", serial_s);
  metrics.Set("farm.parallel_speedup", serial_s / run_median);
  metrics.Set("farm.box_completion_spread",
              Ratio(static_cast<double>(*hi - *lo), mean));
  report.values = metrics.Take();
  return report;
}

void AppendNumber(std::string* out, double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  TJ_CHECK(ec == std::errc());
  out->append(buffer, end);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_fig8", "deep_queue", "overload_faults", "farm_multidrive"};
  return names;
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  const std::vector<std::string>& names = WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

const std::vector<MetricSpec>& MetricSpecs(bool trace) {
  static const std::vector<MetricSpec> end_to_end = EndToEndSpecs();
  static const std::vector<MetricSpec> per_layer = PerLayerSpecs();
  return trace ? per_layer : end_to_end;
}

Report Run(const Options& options) {
  std::cout << "workload " << WorkloadNames()[static_cast<size_t>(
                                  options.workload)]
            << " seed " << options.seed << " seconds " << options.seconds
            << " trace " << options.trace << " scale " << options.scale
            << "\n";
  Report report = options.workload == Workload::kFarmMultidrive
                      ? RunFarm(options)
                      : RunSingleDrive(options);
  for (const double value : report.values) {
    if (!std::isfinite(value)) {
      report.failures.push_back("a metric is not a finite number");
      break;
    }
  }
  return report;
}

std::string ResultJson(const Report& report, bool trace) {
  const std::vector<MetricSpec>& specs = MetricSpecs(trace);
  TJ_CHECK_EQ(specs.size(), report.values.size());
  std::string out = "{\"correct\": ";
  out += report.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failures.size());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + specs[i].name + "\": {\"value\": ";
    AppendNumber(&out, std::isfinite(report.values[i]) ? report.values[i] : 0);
    out += ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
