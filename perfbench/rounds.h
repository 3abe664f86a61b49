// The measured phase shared by every workload: whole rounds of the workload's
// script, repeated until the run's time budget is spent, with the host's
// speed sampled after every round.
#ifndef MULTIVERSE_PERFBENCH_ROUNDS_H_
#define MULTIVERSE_PERFBENCH_ROUNDS_H_

#include <sys/resource.h>

#include <algorithm>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/trace.h"

namespace mvbench {

// Fixed host work owned by the benchmark and independent of the code under
// test, timed next to the measured work to follow the host's speed. Each
// workload uses the kind its own time goes to: kMemory faults in and zeroes
// 16 MiB of fresh pages (guest-memory construction), kDispatch runs a
// switch-dispatched loop (guest execution). Returns the work's wall time in
// seconds, 0 on failure.
enum class Reference { kMemory, kDispatch };
double ReferenceSeconds(Reference kind);

// The one host-speed normalisation (README.md, "Host speed"): a host time
// measured next to the reference timings `around` is multiplied by the
// reference's nominal time over their median. The nominal times are the
// references' medians on the host the benchmark was calibrated on (a 4-vCPU
// x86-64 VM at 2.0 GHz); they only keep the reported units (s, ms, us) and
// cancel in every comparison between runs. 1 when no timing succeeded.
inline double HostScale(Reference kind, const std::vector<double>& around) {
  const double nominal = kind == Reference::kMemory ? 11.8e-3 : 2.0e-3;
  const double median = Percentile(around, 0.5);
  return median > 0 ? nominal / median : 1;
}

// Set-up repetitions, each followed by a kMemory reference timing: every
// workload's set-up is mostly VM construction.
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> reference_s;

  // Median of one sample per repetition, each scaled by its own
  // repetition's reference timing.
  double ScaledMedian(const std::vector<double>& per_repetition) const {
    std::vector<double> scaled;
    for (size_t i = 0; i < per_repetition.size(); ++i) {
      scaled.push_back(per_repetition[i] * HostScale(Reference::kMemory, {reference_s[i]}));
    }
    return Percentile(scaled, 0.5);
  }
  double Seconds() const { return ScaledMedian(seconds); }
};

// Runs `setup` `repeats` times, timing each run and the reference work after
// it. `reset` frees the previous repetition's state first, outside the timed
// region, so each repetition builds one set of the workload's objects and
// does not pay for the previous one's teardown. The last repetition's state
// is the one the measured phase uses.
template <typename Reset, typename Fn>
SetupTimes TimeSetup(int repeats, Reset&& reset, Fn&& setup) {
  SetupTimes times;
  for (int i = 0; i < repeats; ++i) {
    reset();
    const int64_t start = NowNs();
    setup();
    times.seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    times.reference_s.push_back(ReferenceSeconds(Reference::kMemory));
  }
  return times;
}

struct RoundLog {
  Reference reference = Reference::kDispatch;
  std::vector<double> round_s;      // wall time of each round
  std::vector<bool> round_traced;   // whether the round recorded spans
  std::vector<double> reference_s;  // reference time after each round
  std::vector<double> scale;        // HostScale of each round
  // The process's peak resident set once the deterministic window has run:
  // set-up plus the same work for every run of a seed. Later rounds repeat
  // that work on state that does not grow, but the benchmark's own latency
  // samples grow with the number of rounds the host fits in, so they are
  // left out.
  double peak_rss_mb = 0;

  int rounds() const { return static_cast<int>(round_s.size()); }

  // A time measured in one round is scaled by the reference timings of
  // rounds r-1..r+1, which follows the host's drift within the run.
  void ComputeScales() {
    scale.clear();
    for (int r = 0; r < rounds(); ++r) {
      const auto lo = static_cast<size_t>(std::max(0, r - 1));
      const auto hi = static_cast<size_t>(std::min(rounds() - 1, r + 1));
      scale.push_back(HostScale(reference, std::vector<double>(reference_s.begin() + lo,
                                                               reference_s.begin() + hi + 1)));
    }
  }
  double Scale(int round) const { return scale[static_cast<size_t>(round)]; }
  // A time summed over many rounds (a per-layer span total) is scaled by
  // every reference timing of the run.
  double RunScale() const { return HostScale(reference, reference_s); }

  // Summed scaled wall time of the untraced rounds (all rounds of an
  // untraced run).
  double UntracedSeconds() const {
    double seconds = 0;
    for (int r = 0; r < rounds(); ++r) {
      seconds += round_traced[r] ? 0 : round_s[r] * Scale(r);
    }
    return seconds;
  }
  // Mean traced round over mean untraced round, as a percentage increase.
  double OverheadPct() const {
    double traced = 0;
    double untraced = 0;
    int traced_rounds = 0;
    for (int r = 0; r < rounds(); ++r) {
      (round_traced[r] ? traced : untraced) += round_s[r] * Scale(r);
      traced_rounds += round_traced[r] ? 1 : 0;
    }
    const int untraced_rounds = rounds() - traced_rounds;
    if (traced_rounds == 0 || untraced_rounds == 0 || untraced <= 0) {
      return 0;
    }
    return ((traced / traced_rounds) / (untraced / untraced_rounds) - 1) * 100;
  }
  // Share of the traced rounds' wall time spent inside layer spans.
  double CoveredShare(const Tracer& tracer) const {
    double traced = 0;
    for (int r = 0; r < rounds(); ++r) {
      traced += round_traced[r] ? round_s[r] : 0;
    }
    return traced > 0 ? tracer.LayerSelfNs() * 1e-9 / traced : 0;
  }
};

// Per-operation host-time samples tagged with their round.
class RoundSamples {
 public:
  void Add(int round, double value) {
    rounds_.push_back(round);
    values_.push_back(value);
  }
  size_t size() const { return values_.size(); }
  // The samples, each scaled by its round's HostScale.
  std::vector<double> Scaled(const RoundLog& log) const {
    std::vector<double> out(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
      out[i] = values_[i] * log.Scale(rounds_[i]);
    }
    return out;
  }

 private:
  std::vector<int> rounds_;
  std::vector<double> values_;
};

// Calls round(index, traced) until `config.seconds` have passed and at least
// `min_rounds` rounds ran; stops early once an output check has failed. After
// every round it times the reference work. The first `min_rounds` rounds are
// the deterministic window: whatever a workload counts over them depends only
// on the workload and the seed. In a traced run even rounds record spans and
// odd rounds run untraced, so the same run gives the layer spans and the
// tracing overhead; an untraced run records nothing.
template <typename Fn>
RoundLog RunRounds(const RunConfig& config, Tracer* tracer, const RunResult& result,
                   int min_rounds, Reference reference, Fn&& round) {
  RoundLog log;
  log.reference = reference;
  const auto budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  const int64_t start = NowNs();
  while (result.check_failures.empty() &&
         (log.rounds() < min_rounds || NowNs() - start < budget_ns)) {
    const bool traced = config.trace && log.rounds() % 2 == 0;
    Tracer::SetActive(traced ? tracer : nullptr);
    const int64_t round_start = NowNs();
    round(log.rounds(), traced);
    const double seconds = static_cast<double>(NowNs() - round_start) * 1e-9;
    Tracer::SetActive(nullptr);
    log.round_s.push_back(seconds);
    log.round_traced.push_back(traced);
    log.reference_s.push_back(ReferenceSeconds(reference));
    if (log.rounds() == min_rounds) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      log.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  log.ComputeScales();
  return log;
}

}  // namespace mvbench

#endif  // MULTIVERSE_PERFBENCH_ROUNDS_H_
