// Workload `serve_storm`: one 2-core server Program serving an open-loop
// request stream on core 0 while a seeded flip storm over its four switches
// feeds a CommitScheduler whose commits run live (wait-free) around a
// background batch on core 1. Dispatch, the scheduler, the warm plan-cache
// commit and the live protocol do the work here; compile does none.
//
// The offered load comes only from the constants below and the seed: the
// inter-arrival, window and flip stream never depend on how fast the code
// under test commits.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/rounds.h"
#include "perfbench/trace.h"
#include "src/core/commit_scheduler.h"
#include "src/core/program.h"
#include "src/livepatch/livepatch.h"
#include "src/obj/linker.h"
#include "src/workloads/server.h"

namespace mvbench {
namespace {

constexpr uint64_t kRequestsPerRound = 1000;
// Modelled cycles between request arrivals on core 0.
constexpr double kInterArrivalCycles = 1200;
// Two flips arrive per request slot.
constexpr double kFlipGapCycles = kInterArrivalCycles / 2;
// Debounce window of the scheduler: a drain every ~16 requests.
constexpr double kWindowCycles = 16 * kInterArrivalCycles;
// Core-1 instructions executed after each foreground request.
constexpr uint64_t kCore1Quantum = 2000;
// Requests per serve_batch call on core 1, and the distinct batch bases.
constexpr uint64_t kBatchRequests = 64;
constexpr uint64_t kBatchBases = 8;
// Rounds whose counts must repeat exactly for a seed.
constexpr int kWindowRounds = 8;

struct Server {
  std::unique_ptr<mv::Program> program;
  // Plain-commits the final configuration of every round with the plan
  // cache off: the reference text the storm's cached live commits must match.
  std::unique_ptr<mv::Program> twin;
  uint64_t batch_addr = 0;
  // serve_batch(base, n) returns a value that depends only on its arguments;
  // the twin computes it undisturbed for every base the storm uses.
  std::vector<uint64_t> batch_result;
};

void StartBatch(Server* server, uint64_t batch) {
  mv::SetupCall(server->program->image(), &server->program->vm(), server->batch_addr,
                {batch % kBatchBases, kBatchRequests}, /*core=*/1);
}

mv::Status BuildServers(Server* server) {
  MV_ASSIGN_OR_RETURN(server->program, mv::BuildServer(/*cores=*/2));
  MV_ASSIGN_OR_RETURN(server->twin, mv::BuildServer(/*cores=*/2));
  server->twin->runtime().set_plan_cache_enabled(false);
  MV_ASSIGN_OR_RETURN(server->batch_addr, server->program->SymbolAddress(mv::kServerBatchFn));
  server->batch_result.clear();
  for (uint64_t base = 0; base < kBatchBases; ++base) {
    MV_ASSIGN_OR_RETURN(const uint64_t value,
                        server->twin->Call(mv::kServerBatchFn, {base, kBatchRequests}));
    server->batch_result.push_back(value);
  }
  StartBatch(server, 0);
  return mv::Status::Ok();
}

// Counts over the deterministic window.
struct WindowCounts {
  std::vector<double> request_cycles;
  std::vector<double> commit_cycles;
  uint64_t queued = 0;  // requests that started after their arrival
  uint64_t word_stores = 0;
  uint64_t waitfree_fallbacks = 0;
};

}  // namespace

void RunServeStorm(const RunConfig& config, Tracer& tracer, RunResult* result) {
  Server server;
  const SetupTimes setup = TimeSetup(
      7,
      [&] {
        server.program.reset();
        server.twin.reset();
      },
      [&] { result->CheckOk(BuildServers(&server), "build server"); });
  if (!result->check_failures.empty()) {
    return;
  }
  mv::Program* prog = server.program.get();
  mv::Vm& vm = prog->vm();

  bool in_window = true;
  WindowCounts window;
  mv::StormOptions storm;
  storm.window_cycles = kWindowCycles;
  storm.commit = [&]() -> mv::Result<mv::BatchCommitResult> {
    ScopedSpan span("livepatch.commit");
    mv::LiveCommitOptions live;
    live.protocol = mv::CommitProtocol::kWaitFree;
    live.mutator_cores = {1};
    MV_ASSIGN_OR_RETURN(mv::LiveCommitStats stats,
                        mv::multiverse_commit_live(&vm, &prog->runtime(), live));
    if (in_window) {
      window.commit_cycles.push_back(stats.CommitCycles());
      window.word_stores += stats.word_stores;
      window.waitfree_fallbacks += stats.waitfree_fallback ? 1 : 0;
    }
    mv::BatchCommitResult batch;
    batch.stats = stats.Summary();
    batch.commit_cycles = stats.CommitCycles();
    return batch;
  };
  mv::CommitScheduler scheduler(prog, storm);
  const std::vector<std::string>& switches = mv::ServerSwitches();

  RoundSamples request_us;  // untraced rounds only
  uint64_t batches_done = 0;
  uint64_t next_flip = 0;
  uint64_t input_digest = 0;  // the window's flip stream
  double now = 0;
  uint64_t core1_insns = 0;  // traced rounds only
  mv::StormStats window_storm;
  mv::CommitFastPathStats window_fast;
  uint64_t window_promotions = 0;
  uint64_t window_deopts = 0;

  const RoundLog log = RunRounds(config, &tracer, *result, kWindowRounds, Reference::kDispatch,
                                 [&](int round, bool traced) {
    for (uint64_t r = 0; r < kRequestsPerRound; ++r) {
      const uint64_t index = static_cast<uint64_t>(round) * kRequestsPerRound + r;
      const double arrival = static_cast<double>(index) * kInterArrivalCycles;
      if (traced) {
        Tracer::Active()->set_request(index);
      }
      // Control plane: every flip due by this arrival. Biased 3:1 toward off,
      // so windows often debounce back to the installed code (null batches).
      while (static_cast<double>(next_flip) * kFlipGapCycles <= arrival) {
        const uint64_t draw = Draw(config.seed, 2, next_flip);
        const std::string& name = switches[draw % switches.size()];
        const int64_t value = ((draw >> 32) & 3) == 0 ? 1 : 0;
        if (in_window) {
          input_digest = FoldInput(input_digest, draw);
        }
        ScopedSpan span("core.scheduler.submit");
        result->CheckOk(
            scheduler.Submit(name, value, static_cast<double>(next_flip) * kFlipGapCycles),
            "submit flip");
        ++next_flip;
      }

      ++result->attempted;
      const int64_t start_ns = NowNs();
      mv::Result<double> served = mv::Status::Internal("not served");
      double start = 0;
      {
        ScopedSpan request("bench.request");
        {
          ScopedSpan span("core.scheduler.poll");
          result->CheckOk(scheduler.Poll(now).status(), "poll scheduler");
        }
        now = std::max(now, scheduler.busy_until());
        start = std::max(arrival, now);
        ScopedSpan span("vm.call");
        served = mv::ServeRequestCycles(prog, index & 7, Draw(config.seed, 3, index));
      }
      if (!traced) {
        request_us.Add(round, static_cast<double>(NowNs() - start_ns) * 1e-3);
      }
      if (!result->CheckOk(served, "request dropped")) {
        ++result->failed;
        continue;
      }
      now = start + *served;
      if (in_window) {
        window.request_cycles.push_back(now - arrival);
        window.queued += start > arrival ? 1 : 0;
      }

      // Core 1 keeps serving its batch, restarting it whenever it halts.
      const uint64_t insns_before = vm.core(1).instret;
      mv::VmExit exit;
      {
        ScopedSpan span("vm.run");
        exit = vm.Run(1, kCore1Quantum);
      }
      if (traced) {
        core1_insns += vm.core(1).instret - insns_before;
      }
      if (exit.kind == mv::VmExit::Kind::kHalt) {
        result->Check(vm.core(1).regs[0] == server.batch_result[batches_done % kBatchBases],
                      "background batch " + std::to_string(batches_done) + " tore");
        ++batches_done;
        StartBatch(&server, batches_done);
      } else {
        result->Check(exit.kind == mv::VmExit::Kind::kStepLimit,
                      "background batch tore: " + exit.ToString());
      }
    }

    // Round end: drain the window, then prove the installed text equals a
    // plain, uncached commit of the same configuration on the twin.
    {
      ScopedSpan span("core.scheduler.flush");
      result->CheckOk(scheduler.Flush(now).status(), "flush scheduler");
    }
    now = std::max(now, scheduler.busy_until());
    ScopedSpan twin_span("bench.twin");
    for (const std::string& name : switches) {
      mv::Result<int64_t> value = prog->ReadGlobal(name, 4);
      if (result->CheckOk(value, "read switch " + name)) {
        result->CheckOk(server.twin->WriteGlobal(name, *value, 4), "twin switch write");
      }
    }
    result->CheckOk(server.twin->runtime().Commit().status(), "twin commit");
    result->Check(server.twin->runtime().TextChecksum() == prog->runtime().TextChecksum(),
                  "storm text differs from the uncached twin's after round " +
                      std::to_string(round));
    if (round == kWindowRounds - 1) {
      in_window = false;
      window_storm = scheduler.stats();
      window_fast = prog->runtime().fast_stats();
      window_promotions = vm.threaded_promotions();
      window_deopts = vm.threaded_deopts();
    }
  });

  // The batch in flight must finish intact too. (The guest's `served`
  // counter is no torn-request detector here: its unlocked increment races
  // between the two cores whenever a quantum ends inside it.)
  const mv::VmExit exit = vm.Run(1, 100'000'000);
  result->Check(exit.kind == mv::VmExit::Kind::kHalt &&
                    vm.core(1).regs[0] == server.batch_result[batches_done % kBatchBases],
                "background batch in flight at the end tore: " + exit.ToString());

  const double request_cycles_p99 = Percentile(window.request_cycles, 0.99);
  result->counts["input_digest"] = static_cast<double>(input_digest);
  result->counts["request_cycles_p99"] = request_cycles_p99;
  result->counts["queued_share"] =
      static_cast<double>(window.queued) / static_cast<double>(window.request_cycles.size());
  result->counts["plans_committed"] = static_cast<double>(window_storm.plans_committed);
  result->counts["flips_elided_null"] = static_cast<double>(window_storm.flips_elided_null);
  result->counts["plan_cache_hits"] = static_cast<double>(window_fast.plan_cache_hits);
  result->counts["plan_cache_misses"] = static_cast<double>(window_fast.plan_cache_misses);

  const mv::Image& image = prog->image();
  const uint64_t descriptor_bytes = DescriptorBytes(image);
  const std::vector<double> scaled_us = request_us.Scaled(log);
  const double requests_per_s = static_cast<double>(request_us.size()) / log.UntracedSeconds();
  if (!config.trace) {
    result->Set("setup_s", setup.Seconds(), "s");
    result->Set("peak_rss_mb", log.peak_rss_mb, "MB");
    result->Set("ops_per_s", requests_per_s, "1/s");
    result->Set("op_ms_p50", Percentile(scaled_us, 0.5) * 1e-3, "ms");
    result->Set("op_ms_p90", Percentile(scaled_us, 0.9) * 1e-3, "ms");
    result->Set("text_bytes", static_cast<double>(image.text_size), "bytes");
    result->Set("descriptor_bytes", static_cast<double>(descriptor_bytes), "bytes");
    return;
  }

  const double run_scale = log.RunScale();
  const std::map<std::string, double> self_ns = tracer.SelfNs();
  const auto self_us_per_call = [&](const char* name) {
    const size_t calls = tracer.DurationsUs(name).size();
    const auto it = self_ns.find(name);
    return calls == 0 || it == self_ns.end()
               ? 0.0
               : it->second * 1e-3 * run_scale / static_cast<double>(calls);
  };
  const auto scaled_durations_us = [&](const char* name) {
    std::vector<double> us = tracer.DurationsUs(name);
    for (double& value : us) {
      value *= run_scale;
    }
    return us;
  };
  const std::vector<double> call_us = scaled_durations_us("vm.call");
  const std::vector<double> commit_us = scaled_durations_us("livepatch.commit");
  double run_us = 0;
  for (double us : scaled_durations_us("vm.run")) {
    run_us += us;
  }
  result->Set("requests_per_s", requests_per_s, "1/s");
  result->Set("request_us_p50", Percentile(scaled_us, 0.5), "us");
  result->Set("request_us_p99", Percentile(scaled_us, 0.99), "us");
  result->Set("request_cycles_p99", request_cycles_p99, "cycles");
  result->Set("vm.call_us_p50", Percentile(call_us, 0.5), "us");
  result->Set("vm.call_us_p99", Percentile(call_us, 0.99), "us");
  result->Set("vm.mips", run_us > 0 ? static_cast<double>(core1_insns) / run_us : 0, "MIPS");
  result->Set("vm.threaded_promotions", static_cast<double>(window_promotions), "count");
  result->Set("vm.threaded_deopts", static_cast<double>(window_deopts), "count");
  result->Set("core.scheduler.submit_us", self_us_per_call("core.scheduler.submit"), "us");
  result->Set("core.scheduler.poll_us", self_us_per_call("core.scheduler.poll"), "us");
  result->Set("core.scheduler.flips_submitted", static_cast<double>(window_storm.flips_submitted),
              "count");
  result->Set("core.scheduler.flips_elided_null",
              static_cast<double>(window_storm.flips_elided_null), "count");
  result->Set("core.scheduler.plans_committed", static_cast<double>(window_storm.plans_committed),
              "count");
  result->Set("core.scheduler.coalescing_ratio", window_storm.CoalescingRatio(), "ratio");
  result->Set("livepatch.commit_us_p50", Percentile(commit_us, 0.5), "us");
  result->Set("livepatch.commit_us_p99", Percentile(commit_us, 0.99), "us");
  result->Set("livepatch.commit_cycles_p99", Percentile(window.commit_cycles, 0.99), "cycles");
  result->Set("livepatch.word_stores", static_cast<double>(window.word_stores), "count");
  result->Set("livepatch.waitfree_fallbacks", static_cast<double>(window.waitfree_fallbacks),
              "count");
  const double lookups =
      static_cast<double>(window_fast.plan_cache_hits + window_fast.plan_cache_misses);
  result->Set("core.plan_cache.hits", static_cast<double>(window_fast.plan_cache_hits), "count");
  result->Set("core.plan_cache.misses", static_cast<double>(window_fast.plan_cache_misses),
              "count");
  result->Set("core.plan_cache.hit_ratio",
              lookups > 0 ? static_cast<double>(window_fast.plan_cache_hits) / lookups : 0,
              "ratio");
  result->Set("core.runtime.fns_reevaluated", static_cast<double>(window_fast.fns_reevaluated),
              "count");
  result->Set("core.runtime.fns_skipped", static_cast<double>(window_fast.fns_skipped), "count");
  result->Set("core.runtime.mprotect_calls", static_cast<double>(window_fast.mprotect_calls),
              "count");
  result->Set("core.runtime.flush_ranges", static_cast<double>(window_fast.flush_ranges),
              "count");
  result->Set("trace.overhead_pct", log.OverheadPct(), "%");
  result->Set("trace.covered_share", log.CoveredShare(tracer), "share");
}

}  // namespace mvbench
