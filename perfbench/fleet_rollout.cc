// Workload `fleet_rollout`: a 64-instance fleet (one pinned tenant) takes
// repeated CommitCoordinator rollouts that alternate {fast_path=1,
// log_level=1} with its inverse, while a seeded chaos script crashes one in
// eight instances per rollout. Unlike serve_storm, each of many instances
// commits once per rollout (one cold plan, then replays), every commit is
// journaled to a durable WAL, and crash recovery rebuilds instances from
// source.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/rounds.h"
#include "perfbench/trace.h"
#include "src/core/plan_cache.h"
#include "src/fleet/chaos.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/fleet.h"

namespace mvbench {
namespace {

constexpr int kInstances = 64;
constexpr int kWaves = 4;
constexpr double kCanaryPct = 12.5;
// Fleet requests served after every rollout.
constexpr uint64_t kServeSlice = 256;
// Rounds (pairs of rollouts) whose counts must repeat exactly for a seed.
constexpr int kWindowRounds = 2;

const mv::Fleet::Assignment kOn = {{"fast_path", 1}, {"log_level", 1}};
const mv::Fleet::Assignment kOff = {{"fast_path", 0}, {"log_level", 0}};

struct JournalTotals {
  uint64_t bytes = 0;
  uint64_t records = 0;
};

JournalTotals Journals(mv::Fleet& fleet) {
  JournalTotals totals;
  for (int i = 0; i < fleet.size(); ++i) {
    totals.bytes += fleet.journal(i)->bytes().size();
    totals.records += fleet.journal(i)->record_count();
  }
  return totals;
}

// Per-instance journal sizes at boot.
std::vector<size_t> JournalSizes(mv::Fleet& fleet) {
  std::vector<size_t> sizes;
  for (int i = 0; i < fleet.size(); ++i) {
    sizes.push_back(fleet.journal(i)->bytes().size());
  }
  return sizes;
}

// Scripts a first-attempt crash (clean or torn) on one in eight of the
// rollout targets; quarantine_after leaves every one of them room to recover.
std::vector<int> ScriptCrashes(uint64_t seed, uint64_t rollout, const std::vector<int>& targets,
                               mv::ChaosSchedule* chaos) {
  std::vector<int> pool = targets;
  const size_t crashes = (pool.size() + 7) / 8;
  std::vector<int> crashed;
  for (size_t k = 0; k < crashes; ++k) {
    const uint64_t draw = Draw(seed, 7, rollout * 64 + k);
    const size_t pick = k + draw % (pool.size() - k);
    std::swap(pool[k], pool[pick]);
    crashed.push_back(pool[k]);
    const auto kind =
        (draw >> 40) % 2 == 0 ? mv::ChaosEventKind::kCrash : mv::ChaosEventKind::kCrashTorn;
    for (int wave = 0; wave < kWaves; ++wave) {
      chaos->Script(wave, pool[k], /*attempt=*/1, kind);
    }
  }
  return crashed;
}

struct Hook {
  int64_t ns = 0;
  int instance = 0;
  int wave = 0;
};

// Host-time samples derived from the flip hook of traced rollouts.
struct HookSamples {
  std::vector<double> flip_ms;      // between consecutive flips of one wave
  std::vector<double> recovery_ms;  // same, when the later flip is a crash retry
  std::vector<double> wave_ms;
};

void AnalyzeHooks(const std::vector<Hook>& hooks, const std::vector<int>& crashed,
                  int64_t rollout_end_ns, HookSamples* out) {
  int64_t wave_start = hooks.empty() ? 0 : hooks.front().ns;
  for (size_t i = 1; i <= hooks.size(); ++i) {
    const bool wave_ends = i == hooks.size() || hooks[i].wave != hooks[i - 1].wave;
    if (wave_ends) {
      const int64_t end = i == hooks.size() ? rollout_end_ns : hooks[i].ns;
      out->wave_ms.push_back(static_cast<double>(end - wave_start) * 1e-6);
      if (i < hooks.size()) {
        wave_start = hooks[i].ns;
      }
      continue;
    }
    const double gap = static_cast<double>(hooks[i].ns - hooks[i - 1].ns) * 1e-6;
    const bool retry =
        std::find(crashed.begin(), crashed.end(), hooks[i].instance) != crashed.end();
    (retry ? out->recovery_ms : out->flip_ms).push_back(gap);
  }
}

}  // namespace

void RunFleetRollout(const RunConfig& config, Tracer& tracer, RunResult* result) {
  std::unique_ptr<mv::Fleet> fleet;
  std::vector<double> build_ms;
  uint64_t pinned_tenant = 0;
  const SetupTimes setup = TimeSetup(7, [&] { fleet.reset(); }, [&] {
    mv::FleetOptions options;
    options.instances = kInstances;
    options.cores_per_instance = 2;
    options.vm_memory = 1ull << 20;
    options.stream_seed = Draw(config.seed, 4, 0);
    const int64_t start = NowNs();
    mv::Result<std::unique_ptr<mv::Fleet>> built =
        mv::Fleet::Build({{"fleet_kernel", mv::FleetRequestKernelSource()}}, options);
    build_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    if (!result->CheckOk(built, "fleet build")) {
      return;
    }
    fleet = std::move(*built);
    pinned_tenant = Draw(config.seed, 5, 0) % static_cast<uint64_t>(options.tenants);
    result->CheckOk(fleet->PinTenant(pinned_tenant, {{"log_level", 1}}), "pin tenant");
  });
  if (!result->check_failures.empty()) {
    return;
  }
  const std::vector<int> targets = fleet->UnpinnedInstances();
  const JournalTotals journals_at_boot = Journals(*fleet);
  const std::vector<size_t> journal_sizes_at_boot = JournalSizes(*fleet);
  const mv::CommitFastPathStats fast_at_boot = mv::GlobalCommitCounters::Instance().totals;

  // Untraced rounds only.
  RoundSamples rollout_ms;
  RoundSamples round_trip_ms;
  RoundSamples serve_s;
  uint64_t untraced_requests = 0;
  uint64_t traced_requests = 0;
  HookSamples hooks;
  std::vector<double> flip_cycles;  // per rollout of the window
  uint64_t crash_recoveries = 0;    // over the window
  uint64_t identity_mismatches = 0;
  uint64_t quarantined = 0;
  JournalTotals window_journals;
  mv::CommitFastPathStats window_fast;
  uint64_t input_digest = FoldInput(0, pinned_tenant);  // plus the window's crash script

  const RoundLog log = RunRounds(config, &tracer, *result, kWindowRounds, Reference::kDispatch,
                                 [&](int round, bool traced) {
    int64_t rollout_ns = 0;  // the round trip: the rollout and its inverse
    for (int direction = 0; direction < 2; ++direction) {
      const uint64_t rollout = static_cast<uint64_t>(round) * 2 + direction;
      if (traced) {
        Tracer::Active()->set_request(rollout);
      }
      mv::ChaosSchedule chaos(Draw(config.seed, 6, rollout), /*crash_pct=*/0,
                              /*degrade_pct=*/0);
      const std::vector<int> crashed = ScriptCrashes(config.seed, rollout, targets, &chaos);
      if (round < kWindowRounds) {
        for (int instance : crashed) {
          input_digest = FoldInput(input_digest, static_cast<uint64_t>(instance));
        }
      }
      mv::RolloutPolicy policy;
      policy.canary_pct = kCanaryPct;
      policy.waves = kWaves;
      policy.quarantine_after = 4;
      policy.commit_timeout_cycles = 5'000'000;
      policy.chaos = &chaos;
      mv::CommitCoordinator coordinator(fleet.get(), policy);
      std::vector<Hook> fired;
      coordinator.set_flip_hook(
          [&fired](int instance, int wave) { fired.push_back({NowNs(), instance, wave}); });
      const mv::HealthSummary before = fleet->metrics().Fleet();

      // Every rollout pushes a configuration the cache has not planned: one
      // cold plan, then replays on the other instances.
      {
        ScopedSpan span("core.plan_cache.invalidate");
        fleet->runtime(targets.front()).InvalidatePlanCache();
      }
      const int64_t start = NowNs();
      mv::Result<mv::RolloutReport> report = mv::Status::Internal("not rolled out");
      {
        ScopedSpan span("fleet.rollout");
        report = coordinator.Rollout(direction == 0 ? kOn : kOff, mv::kFleetHandler,
                                     mv::kFleetLoadFn);
      }
      const int64_t end = NowNs();
      result->attempted += targets.size();
      if (!result->CheckOk(report, "rollout")) {
        result->failed += targets.size();
        return;
      }
      rollout_ns += end - start;
      if (!traced) {
        rollout_ms.Add(round, static_cast<double>(end - start) * 1e-6);
      } else {
        AnalyzeHooks(fired, crashed, end, &hooks);
      }
      result->Check(report->advanced_to_full, "rollout did not advance: " + report->breach);
      // The coordinator's identity proof: every advanced instance on the
      // first advanced one's text and config fingerprint, the pinned tenant
      // on its pre-rollout ones.
      result->Check(report->identity_mismatches == 0 && report->quarantined_instances == 0,
                    "rollout " + std::to_string(rollout) + " left " +
                        std::to_string(report->identity_mismatches) + " identity mismatches, " +
                        std::to_string(report->quarantined_instances) + " quarantined");
      result->Check(report->crash_recoveries == crashed.size(),
                    "a scripted crash was not recovered");
      identity_mismatches += report->identity_mismatches;
      quarantined += report->quarantined_instances;
      result->failed += report->identity_mismatches + report->quarantined_instances;
      if (round < kWindowRounds) {
        flip_cycles.push_back(report->fleet_flip_cycles);
        crash_recoveries += report->crash_recoveries;
      }
      // Every advanced instance runs bit-identical text.
      const uint64_t checksum = fleet->TextChecksum(targets.front());
      for (int instance : targets) {
        result->Check(fleet->TextChecksum(instance) == checksum,
                      "instance " + std::to_string(instance) +
                          " text differs from the first advanced instance");
      }

      const std::vector<mv::Request> requests = fleet->GenerateRequests(kServeSlice);
      const int64_t serve_start = NowNs();
      {
        ScopedSpan span("fleet.serve");
        result->CheckOk(fleet->Serve(requests, mv::kFleetHandler), "fleet serve");
      }
      result->attempted += requests.size();
      if (traced) {
        traced_requests += requests.size();
      } else {
        serve_s.Add(round, static_cast<double>(NowNs() - serve_start) * 1e-9);
        untraced_requests += requests.size();
      }
      const mv::InstanceHealth delta = fleet->metrics().Fleet().totals.Delta(before.totals);
      result->failed += delta.dropped_requests + delta.torn_requests;
      result->Check(delta.dropped_requests == 0 && delta.torn_requests == 0,
                    "fleet requests dropped or torn during rollout " + std::to_string(rollout));
    }
    if (!traced) {
      round_trip_ms.Add(round, static_cast<double>(rollout_ns) * 1e-6);
    }
    if (round < kWindowRounds) {
      const JournalTotals now = Journals(*fleet);
      window_journals.bytes += now.bytes - journals_at_boot.bytes;
      window_journals.records += now.records - journals_at_boot.records;
    }
    if (round == kWindowRounds - 1) {
      window_fast = mv::GlobalCommitCounters::Instance().totals;
    }
    // After the round trip every instance is back at its boot configuration,
    // so each journal's history since boot is sealed and nets to nothing.
    // Dropping it keeps rounds alike: crash recovery replays the whole log,
    // and a log that grew all run would slow later rounds.
    for (int i = 0; i < fleet->size(); ++i) {
      fleet->journal(i)->TruncateTo(journal_sizes_at_boot[static_cast<size_t>(i)]);
    }
  });
  const mv::HealthSummary health = fleet->metrics().Fleet();

  const double flip_cycles_p50 = Percentile(flip_cycles, 0.5);
  const uint64_t hits = window_fast.plan_cache_hits - fast_at_boot.plan_cache_hits;
  const uint64_t misses = window_fast.plan_cache_misses - fast_at_boot.plan_cache_misses;
  result->counts["input_digest"] = static_cast<double>(input_digest);
  result->counts["flip_cycles"] = flip_cycles_p50;
  result->counts["crash_recoveries"] = static_cast<double>(crash_recoveries);
  result->counts["journal_records"] = static_cast<double>(window_journals.records);
  result->counts["plan_cache_hits"] = static_cast<double>(hits);
  result->counts["plan_cache_misses"] = static_cast<double>(misses);

  const mv::Image& image = fleet->program(0).image();
  const uint64_t descriptor_bytes = DescriptorBytes(image);
  if (!config.trace) {
    result->Set("setup_s", setup.Seconds(), "s");
    result->Set("peak_rss_mb", log.peak_rss_mb, "MB");
    result->Set("ops_per_s", static_cast<double>(round_trip_ms.size()) / log.UntracedSeconds(),
                "1/s");
    result->Set("op_ms_p50", Percentile(round_trip_ms.Scaled(log), 0.5), "ms");
    result->Set("op_ms_p90", Percentile(round_trip_ms.Scaled(log), 0.9), "ms");
    result->Set("text_bytes", static_cast<double>(image.text_size), "bytes");
    result->Set("descriptor_bytes", static_cast<double>(descriptor_bytes), "bytes");
    return;
  }

  const double run_scale = log.RunScale();
  double serve_us = 0;
  for (double us : tracer.DurationsUs("fleet.serve")) {
    serve_us += us * run_scale;
  }
  const double fleet_build_ms = setup.ScaledMedian(build_ms);
  result->Set("boot_ms_per_instance", fleet_build_ms / kInstances, "ms");
  double untraced_serve_s = 0;
  for (double seconds : serve_s.Scaled(log)) {
    untraced_serve_s += seconds;
  }
  result->Set("rollout_ms", Percentile(rollout_ms.Scaled(log), 0.5), "ms");
  result->Set("requests_per_s",
              untraced_serve_s > 0 ? static_cast<double>(untraced_requests) / untraced_serve_s : 0,
              "1/s");
  result->Set("flip_cycles", flip_cycles_p50, "cycles");
  result->Set("fleet.build_ms", fleet_build_ms, "ms");
  result->Set("fleet.serve_us_per_request",
              traced_requests > 0 ? serve_us / static_cast<double>(traced_requests) : 0, "us");
  result->Set("fleet.flip_ms_p50", Percentile(hooks.flip_ms, 0.5) * run_scale, "ms");
  result->Set("fleet.flip_ms_p99", Percentile(hooks.flip_ms, 0.99) * run_scale, "ms");
  result->Set("fleet.wave_ms", Mean(hooks.wave_ms) * run_scale, "ms");
  // A retried flip's gap holds the crashed attempt, the restart and one
  // ordinary flip; the ordinary flip is taken back out.
  result->Set("fleet.recovery_ms_p50",
              (Percentile(hooks.recovery_ms, 0.5) - Percentile(hooks.flip_ms, 0.5)) * run_scale,
              "ms");
  result->Set("fleet.crash_recoveries", static_cast<double>(crash_recoveries), "count");
  result->Set("core.journal.bytes", static_cast<double>(window_journals.bytes), "bytes");
  result->Set("core.journal.records", static_cast<double>(window_journals.records), "count");
  result->Set("core.plan_cache.hits", static_cast<double>(hits), "count");
  result->Set("core.plan_cache.misses", static_cast<double>(misses), "count");
  result->Set("core.plan_cache.hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                : 0,
              "ratio");
  result->Set("core.runtime.fns_reevaluated",
              static_cast<double>(window_fast.fns_reevaluated - fast_at_boot.fns_reevaluated),
              "count");
  result->Set("core.runtime.fns_skipped",
              static_cast<double>(window_fast.fns_skipped - fast_at_boot.fns_skipped), "count");
  result->Set("core.runtime.mprotect_calls",
              static_cast<double>(window_fast.mprotect_calls - fast_at_boot.mprotect_calls),
              "count");
  result->Set("core.runtime.flush_ranges",
              static_cast<double>(window_fast.flush_ranges - fast_at_boot.flush_ranges), "count");
  result->Set("fleet.identity_mismatches", static_cast<double>(identity_mismatches), "count");
  result->Set("fleet.quarantined", static_cast<double>(quarantined), "count");
  result->Set("fleet.dropped", static_cast<double>(health.totals.dropped_requests), "count");
  result->Set("fleet.torn", static_cast<double>(health.totals.torn_requests), "count");
  result->Set("trace.overhead_pct", log.OverheadPct(), "%");
  result->Set("trace.covered_share", log.CoveredShare(tracer), "share");
}

}  // namespace mvbench
