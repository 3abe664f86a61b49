#include "perfbench/trace.h"

#include <cstdio>
#include <cstring>

#include "perfbench/bench.h"

namespace mvbench {
namespace {

Tracer* g_active = nullptr;

bool IsLayer(const char* name) { return std::strncmp(name, "bench.", 6) != 0; }

}  // namespace

Tracer* Tracer::Active() { return g_active; }
void Tracer::SetActive(Tracer* tracer) { g_active = tracer; }

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a stray id anyway.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

std::map<std::string, double> Tracer::SelfNs(
    const std::function<bool(const char* root)>& keep_root) const {
  // A parent is always recorded before its children, so one forward pass
  // resolves every span's root.
  std::vector<double> child_ns(spans_.size(), 0);
  std::vector<size_t> root(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) {
      const auto parent = static_cast<size_t>(span.parent);
      child_ns[parent] += static_cast<double>(span.end_ns - span.start_ns);
      root[i] = root[parent];
    } else {
      root[i] = i;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (keep_root && !keep_root(spans_[root[i]].name)) {
      continue;
    }
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i];
  }
  return self;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

double Tracer::LayerSelfNs() const {
  double total = 0;
  for (const auto& [name, ns] : SelfNs()) {
    if (IsLayer(name.c_str())) {
      total += ns;
    }
  }
  return total;
}

mv::Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return mv::Status::Internal("cannot open trace output " + path);
  }
  std::fprintf(file, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s\t%lld\t%lld\t%d\t%llu\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  if (std::fclose(file) != 0) {
    return mv::Status::Internal("cannot write trace output " + path);
  }
  return mv::Status::Ok();
}

}  // namespace mvbench
