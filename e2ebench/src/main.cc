// End-to-end private-search benchmark.
//
//   e2ebench --workload <private_search|pir_lists|live_index> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Prints a machine stamp, the check verdicts and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits non-zero, without a result, on a harness failure.

#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/cpuinfo.h"
#include "harness.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  for (char& c : s) {
    if (c == '"') c = '\'';
  }
  return s;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunArgs args;
  args.start_ns = e2e::NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.seconds < 1) return Usage();
  e2e::InstallSignalHandlers();

  std::printf(
      "# stamp: workload=%s seed=%llu seconds=%d trace=%d nproc=%u "
      "cpu=\"%s\" kernel=%s build=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      CpuModel().c_str(), embellish::KernelName(embellish::SelectedKernel()),
      E2EBENCH_BUILD_TYPE);
  std::fflush(stdout);

  e2e::RunResult result;
  std::string error;
  if (!e2e::RunWorkload(args, &result, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
