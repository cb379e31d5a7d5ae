// The benchmark harness: four named workloads, end-to-end metrics from plain
// runs, per-layer metrics from a separate traced run, and the correctness
// checks, all timed from outside the library. README.md describes each
// workload, metric and check.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kPaperFig8, kDeepQueue, kOverloadFaults, kFarmMultidrive };

/// Names as given on the command line, in enum order.
const std::vector<std::string>& WorkloadNames();
std::optional<Workload> ParseWorkload(const std::string& name);

/// Name and unit of one emitted metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every metric one mode emits, in emission order: the end-to-end metrics
/// for plain runs (trace false), the per-layer metrics for traced runs.
const std::vector<MetricSpec>& MetricSpecs(bool trace);

struct Options {
  Workload workload = Workload::kPaperFig8;
  uint64_t seed = 1;
  /// Host seconds spent in the timed repetitions (the checks come after).
  double seconds = 10;
  bool trace = false;
  /// Multiplies every simulated duration; the tests run at a small scale.
  double scale = 1.0;
};

struct Report {
  /// One value per MetricSpecs(options.trace) entry, in the same order.
  std::vector<double> values;
  /// Simulation runs made (timed repetitions plus check runs).
  int64_t attempted = 0;
  /// One message per failed correctness check.
  std::vector<std::string> failures;
};

/// Runs one workload. Progress and check results go to stdout as text.
Report Run(const Options& options);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Report& report, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
