// Shared plumbing of the repository benchmark (perfbench/README.md): run
// configuration, result accumulation, sample statistics and the host clock.
#ifndef MULTIVERSE_PERFBENCH_BENCH_H_
#define MULTIVERSE_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obj/linker.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace mvbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// One named metric value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every output check held
  // End-to-end (untraced run) or per-layer (traced run). Host times and
  // rates are at the calibration host's speed (rounds.h, HostScale).
  Metrics metrics;
  // Counts that depend only on the workload and the seed, never on host
  // speed: printed on their own line so the determinism test can compare
  // two runs exactly.
  std::map<std::string, double> counts;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed output check; the run then reports correct=false.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  // Records a failed call into the system under test as a failed check.
  template <typename T>
  bool CheckOk(const mv::Result<T>& result, const std::string& what) {
    Check(result.ok(), what + ": " + (result.ok() ? "" : result.status().ToString()));
    return result.ok();
  }
  bool CheckOk(const mv::Status& status, const std::string& what) {
    Check(status.ok(), what + ": " + status.ToString());
    return status.ok();
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

// Deterministic per-(seed, stream, index) draw.
inline uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t index) {
  return mv::SplitMix64(mv::SplitMix64(seed ^ (stream * 0x9e3779b97f4a7c15ull)) + index);
}

// Folds one generated input into a digest of a run's inputs. The digest is
// reported among the counts (52 bits, exact as a double) so a test can tell
// that two seeds really produced different inputs.
inline uint64_t FoldInput(uint64_t digest, uint64_t value) {
  return mv::SplitMix64(digest ^ value) & ((1ull << 52) - 1);
}

// Size of an image's multiverse descriptor sections (.mv.*).
inline uint64_t DescriptorBytes(const mv::Image& image) {
  uint64_t bytes = 0;
  for (const auto& [name, placement] : image.sections) {
    if (name.rfind(".mv.", 0) == 0) {
      bytes += placement.size;
    }
  }
  return bytes;
}

class Tracer;

// The three workloads (compile.cc, serve_storm.cc, fleet_rollout.cc). Spans
// of a traced run go into `tracer`.
void RunCompile(const RunConfig& config, Tracer& tracer, RunResult* result);
void RunServeStorm(const RunConfig& config, Tracer& tracer, RunResult* result);
void RunFleetRollout(const RunConfig& config, Tracer& tracer, RunResult* result);

}  // namespace mvbench

#endif  // MULTIVERSE_PERFBENCH_BENCH_H_
