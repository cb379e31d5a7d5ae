// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload paper_fig8 --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is the JSON result; exit code 0 means the run
// finished and every correctness check passed, 1 that a check failed, 2
// bad flags. run.py builds this binary and is the usual entry point.

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      const auto workload = perfbench::ParseWorkload(value);
      if (!workload.has_value()) return Usage("unknown workload " + value);
      options.workload = *workload;
      have_workload = true;
    } else if (!ParseNumber(value, &number)) {
      return Usage("not a number: " + flag + " " + value);
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && number >= 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage("bad flag " + flag + " " + value);
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const perfbench::Report report = perfbench::Run(options);
  std::cout << perfbench::ResultJson(report, options.trace) << std::endl;
  return report.failures.empty() ? 0 : 1;
}
