// mvbench — the repository benchmark's measuring binary (perfbench/README.md).
//
//   mvbench --workload <compile|serve_storm|fleet_rollout> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints the run's seed-determined counts on a line starting with "counts ",
// then, as the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report end-to-end metrics, traced runs per-layer
// metrics. Exits 1 when an output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/vm/superblock.h"

namespace mvbench {
namespace {

void PrintJsonNumberMap(const std::map<std::string, double>& values) {
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

void PrintResult(const RunResult& result) {
  std::printf("counts ");
  PrintJsonNumberMap(result.counts);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), metric.value,
                metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "mvbench: %s\nusage: mvbench --workload <compile|serve_storm|fleet_rollout> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const RunConfig&, Tracer&, RunResult*) = nullptr;
  if (config.workload == "compile") {
    run = RunCompile;
  } else if (config.workload == "serve_storm") {
    run = RunServeStorm;
  } else if (config.workload == "fleet_rollout") {
    run = RunFleetRollout;
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (config.seconds <= 0) {
    return Usage("--seconds must be positive");
  }

  // The production dispatch tier, set explicitly.
  mv::SetDefaultDispatchEngine(mv::DispatchEngine::kThreaded);
  RunResult result;
  Tracer tracer;
  run(config, tracer, &result);
  if (config.trace && !trace_out.empty()) {
    result.CheckOk(tracer.WriteTsv(trace_out), "write trace");
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  PrintResult(result);
  return result.check_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) { return mvbench::Main(argc, argv); }
