// Workload `compile`: builds the in-repo mvc corpus, one program after
// another, in a seeded order. The compiler, VM construction, link/load and
// attach layers do almost all the work here; the other two workloads pay them
// only at set-up.
//
// Untraced rounds call Program::Build. Traced rounds run a layer-by-layer
// replica of it through each layer's public function, with a span around
// every call; the replica must produce the same text checksum.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/rounds.h"
#include "perfbench/trace.h"
#include "src/codegen/codegen.h"
#include "src/core/descriptors.h"
#include "src/core/program.h"
#include "src/fleet/fleet.h"
#include "src/opt/passes.h"
#include "src/support/diagnostics.h"
#include "src/support/str.h"
#include "src/workloads/grep.h"
#include "src/workloads/kernel.h"
#include "src/workloads/libc.h"
#include "src/workloads/python.h"
#include "src/workloads/server.h"

namespace mvbench {
namespace {

// One switch-heavy function with the full 2^n cross product of boolean
// switches (the variant-explosion study of paper §7.1).
std::string ScalingSource(int num_switches) {
  std::string source;
  for (int i = 0; i < num_switches; ++i) {
    source += mv::StrFormat("__attribute__((multiverse)) bool s%d;\n", i);
  }
  source += "long out;\n__attribute__((multiverse))\nvoid f() {\n";
  for (int i = 0; i < num_switches; ++i) {
    source += mv::StrFormat("  if (s%d) { out = out + %d; }\n", i, i + 1);
  }
  source += "}\nvoid caller() { f(); }\n";
  return source;
}

struct Entry {
  std::string name;
  std::string span;  // "bench.build.<name>"
  std::vector<mv::ProgramSource> sources;
  mv::BuildOptions options;
  bool wide = false;
  // Reference outputs of Program::Build, taken at set-up.
  uint64_t checksum = 0;
  uint64_t text_bytes = 0;
  uint64_t descriptor_bytes = 0;
};

Entry MakeEntry(const std::string& name, std::string source) {
  Entry entry;
  entry.name = name;
  entry.span = "bench.build." + name;
  entry.sources = {{name, std::move(source)}};
  return entry;
}

std::vector<Entry> Corpus() {
  std::vector<Entry> corpus;
  corpus.push_back(MakeEntry("spinlock", mv::SpinlockKernelSource(mv::SpinBinding::kMultiverse)));
  corpus.push_back(MakeEntry("pvops", mv::PvopsKernelSource(mv::PvBinding::kMultiverse)));
  corpus.push_back(MakeEntry("grep", mv::GrepSource()));
  corpus.push_back(MakeEntry("musl", mv::LibcSource()));
  corpus.push_back(MakeEntry("cpython", mv::PythonGcSource()));
  corpus.push_back(MakeEntry("server", mv::ServerSource()));
  corpus.push_back(MakeEntry("fleet_kernel", mv::FleetRequestKernelSource()));
  corpus.push_back(MakeEntry("scaling6", ScalingSource(6)));
  Entry wide = MakeEntry("wide", ScalingSource(10));
  wide.options.specializer.max_variants_per_function = 1024;
  wide.wide = true;
  corpus.push_back(std::move(wide));
  return corpus;
}

// What one traced build produced, beyond its spans.
struct ReplicaOutput {
  uint64_t checksum = 0;
  uint64_t ir_insns_out = 0;
  uint64_t codegen_text_bytes = 0;
};

// Program::Build, one public call at a time, each inside a layer span.
mv::Status BuildReplica(const Entry& entry, ReplicaOutput* out) {
  const mv::BuildOptions& options = entry.options;
  std::unique_ptr<mv::Vm> vm;
  mv::Image image;
  std::unique_ptr<mv::MultiverseRuntime> runtime;
  {
    ScopedSpan build(entry.span.c_str());
    std::vector<mv::ObjectFile> objects;
    for (const mv::ProgramSource& src : entry.sources) {
      mv::DiagnosticSink diag;
      mv::Result<mv::Module> module = mv::Status::Internal("not compiled");
      {
        ScopedSpan span("frontend");
        module = mv::CompileToIr(src.source, src.name, options.frontend, &diag);
      }
      MV_RETURN_IF_ERROR(module.status());
      if (options.specialize) {
        ScopedSpan span("core.specializer");
        MV_RETURN_IF_ERROR(mv::SpecializeModule(&*module, options.specializer).status());
      }
      {
        ScopedSpan span("opt");
        for (mv::Function& fn : module->functions) {
          mv::RunPipeline(fn, *module);
        }
        MV_RETURN_IF_ERROR(mv::VerifyModule(*module));
      }
      for (const mv::Function& fn : module->functions) {
        for (const mv::BasicBlock& block : fn.blocks) {
          out->ir_insns_out += block.instrs.size();
        }
      }
      mv::ObjectFile obj;
      obj.name = src.name;
      mv::Result<mv::CodegenInfo> info = mv::Status::Internal("not generated");
      {
        ScopedSpan span("codegen");
        info = mv::GenerateObject(*module, &obj);
      }
      MV_RETURN_IF_ERROR(info.status());
      for (const auto& [fn_name, size] : info->function_sizes) {
        out->codegen_text_bytes += size;
      }
      {
        ScopedSpan span("core.descriptors");
        MV_RETURN_IF_ERROR(mv::EmitDescriptors(*module, *info, &obj));
      }
      objects.push_back(std::move(obj));
    }
    {
      ScopedSpan span("vm.memory");
      vm = std::make_unique<mv::Vm>(options.vm_memory, options.vm_cores);
    }
    vm->set_hypervisor_guest(options.hypervisor_guest);
    {
      ScopedSpan span("obj.link");
      MV_ASSIGN_OR_RETURN(image, mv::LinkAndLoad(objects, options.link, vm.get()));
    }
    {
      ScopedSpan span("core.runtime.attach");
      MV_ASSIGN_OR_RETURN(mv::MultiverseRuntime attached,
                          mv::MultiverseRuntime::Attach(vm.get(), image, options.attach));
      runtime = std::make_unique<mv::MultiverseRuntime>(std::move(attached));
    }
  }
  out->checksum = runtime->TextChecksum();
  runtime.reset();
  // Returning the guest memory is VM-layer work too, outside Build's latency.
  ScopedSpan span("vm.memory.free");
  vm.reset();
  return mv::Status::Ok();
}

// Build latency samples (ms) from untraced rounds.
struct Samples {
  RoundSamples all, corpus, wide;
};

// Layer span name -> per-layer metric name.
const std::pair<const char*, const char*> kLayers[] = {
    {"frontend", "frontend.ms"},
    {"core.specializer", "core.specializer.ms"},
    {"opt", "opt.ms"},
    {"codegen", "codegen.ms"},
    {"core.descriptors", "core.descriptors.ms"},
    {"vm.memory", "vm.memory_ms"},
    {"obj.link", "obj.link_ms"},
    {"core.runtime.attach", "core.runtime.attach_ms"},
};

}  // namespace

void RunCompile(const RunConfig& config, Tracer& tracer, RunResult* result) {
  std::vector<Entry> corpus;
  size_t variants_generated = 0;
  size_t variants_kept = 0;
  const SetupTimes setup = TimeSetup(5, [&] { corpus.clear(); }, [&] {
    corpus = Corpus();
    variants_generated = variants_kept = 0;
    for (Entry& entry : corpus) {
      mv::Result<std::unique_ptr<mv::Program>> program =
          mv::Program::Build(entry.sources, entry.options);
      if (!result->CheckOk(program, "set-up build of " + entry.name)) {
        continue;
      }
      entry.checksum = (*program)->runtime().TextChecksum();
      entry.text_bytes = (*program)->image().text_size;
      entry.descriptor_bytes = DescriptorBytes((*program)->image());
      variants_generated += (*program)->specialize_stats().variants_generated;
      variants_kept += (*program)->specialize_stats().variants_kept;
    }
  });
  if (!result->check_failures.empty()) {
    return;
  }
  uint64_t text_bytes = 0;
  uint64_t descriptor_bytes = 0;
  for (const Entry& entry : corpus) {
    text_bytes += entry.text_bytes;
    descriptor_bytes += entry.descriptor_bytes;
  }

  Samples samples;
  std::map<std::string, ReplicaOutput> replica_out;  // per program, from traced builds
  uint64_t input_digest = 0;  // the first round's build order
  const RoundLog log = RunRounds(config, &tracer, *result, /*min_rounds=*/1, Reference::kMemory,
                                 [&](int round, bool traced) {
    // Wide twice: a fifth of the builds, so op_ms_p90 lands inside its
    // latency group instead of on the edge between the two groups.
    std::vector<size_t> order;
    for (size_t i = 0; i < corpus.size(); ++i) {
      order.insert(order.end(), corpus[i].wide ? 2 : 1, i);
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[Draw(config.seed, 1, round * 64 + i) % i]);
    }
    if (round == 0) {
      for (size_t index : order) {
        input_digest = FoldInput(input_digest, index);
      }
    }
    for (size_t index : order) {
      const Entry& entry = corpus[index];
      ++result->attempted;
      if (traced) {
        ReplicaOutput out;
        if (!result->CheckOk(BuildReplica(entry, &out), "traced build of " + entry.name)) {
          ++result->failed;
          continue;
        }
        result->Check(out.checksum == entry.checksum,
                      "traced replica's text checksum differs from Program::Build's for " +
                          entry.name);
        replica_out[entry.name] = out;
        continue;
      }
      const int64_t start = NowNs();
      mv::Result<std::unique_ptr<mv::Program>> program =
          mv::Program::Build(entry.sources, entry.options);
      const double ms = static_cast<double>(NowNs() - start) * 1e-6;
      if (!result->CheckOk(program, "build of " + entry.name)) {
        ++result->failed;
        continue;
      }
      result->Check((*program)->runtime().TextChecksum() == entry.checksum,
                    "text checksum of " + entry.name + " changed between builds");
      samples.all.Add(round, ms);
      (entry.wide ? samples.wide : samples.corpus).Add(round, ms);
    }
  });

  result->counts["input_digest"] = static_cast<double>(input_digest);
  result->counts["text_bytes"] = static_cast<double>(text_bytes);
  result->counts["descriptor_bytes"] = static_cast<double>(descriptor_bytes);
  if (!config.trace) {
    result->Set("setup_s", setup.Seconds(), "s");
    result->Set("peak_rss_mb", log.peak_rss_mb, "MB");
    result->Set("ops_per_s", static_cast<double>(samples.all.size()) / log.UntracedSeconds(),
                "1/s");
    result->Set("op_ms_p50", Percentile(samples.all.Scaled(log), 0.5), "ms");
    result->Set("op_ms_p90", Percentile(samples.all.Scaled(log), 0.9), "ms");
    result->Set("text_bytes", static_cast<double>(text_bytes), "bytes");
    result->Set("descriptor_bytes", static_cast<double>(descriptor_bytes), "bytes");
    return;
  }

  // Mean self time per build, separately for the corpus programs and the
  // wide scaling source.
  const auto is_wide = [](const char* root) { return std::string(root) == "bench.build.wide"; };
  const std::map<std::string, double> corpus_ns =
      tracer.SelfNs([&](const char* root) { return !is_wide(root); });
  const std::map<std::string, double> wide_ns = tracer.SelfNs(is_wide);
  size_t corpus_builds = 0;
  size_t wide_builds = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent < 0 && std::string(span.name).rfind("bench.build.", 0) == 0) {
      ++(is_wide(span.name) ? wide_builds : corpus_builds);
    }
  }
  const double run_scale = log.RunScale();
  const auto per_build_ms = [&](const std::map<std::string, double>& ns, const char* layer,
                                size_t builds) {
    const auto it = ns.find(layer);
    return it == ns.end() || builds == 0
               ? 0.0
               : it->second * 1e-6 * run_scale / static_cast<double>(builds);
  };
  for (const auto& [layer, metric] : kLayers) {
    result->Set(metric, per_build_ms(corpus_ns, layer, corpus_builds), "ms");
    result->Set(std::string("wide.") + metric, per_build_ms(wide_ns, layer, wide_builds), "ms");
  }
  for (const Entry& entry : corpus) {
    result->Set("build." + entry.name + ".ms", Mean(tracer.DurationsUs(entry.span)) * 1e-3 * run_scale,
                "ms");
  }
  result->Set("core.specializer.variants_generated", static_cast<double>(variants_generated),
              "count");
  result->Set("core.specializer.variants_kept", static_cast<double>(variants_kept), "count");
  uint64_t ir_insns_out = 0;
  uint64_t codegen_text_bytes = 0;
  for (const auto& [name, out] : replica_out) {
    ir_insns_out += out.ir_insns_out;
    codegen_text_bytes += out.codegen_text_bytes;
  }
  result->Set("opt.ir_insns_out", static_cast<double>(ir_insns_out), "count");
  result->Set("codegen.text_bytes", static_cast<double>(codegen_text_bytes), "bytes");
  result->Set("build_ms_p50", Percentile(samples.corpus.Scaled(log), 0.5), "ms");
  result->Set("build_ms_p90", Percentile(samples.corpus.Scaled(log), 0.9), "ms");
  result->Set("wide_build_ms_p50", Percentile(samples.wide.Scaled(log), 0.5), "ms");
  result->Set("trace.overhead_pct", log.OverheadPct(), "%");
  result->Set("trace.covered_share", log.CoveredShare(tracer), "share");
}

}  // namespace mvbench
