// The three workloads of the end-to-end benchmark (see ../README.md).

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int64_t start_ns = 0;  ///< process start, for setup_s
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (checks, stamp)
};

/// \brief Runs one workload end to end. False is a harness failure
///        (`error` says why; no result is printed); a failed check only
///        sets result->correct to false.
bool RunWorkload(const RunArgs& args, RunResult* result, std::string* error);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
