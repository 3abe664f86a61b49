// In-memory trace spans recorded by the benchmark around its calls into each
// layer's public functions. Spans are kept in memory while a traced round
// runs and written out at exit; per-layer self time (a span's duration minus
// the part its children cover) is computed from them.
//
// Span names starting with "bench." are the benchmark's own grouping spans
// (one per request, per program build, ...); every other name is a layer.
#ifndef MULTIVERSE_PERFBENCH_TRACE_H_
#define MULTIVERSE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace mvbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // static or run-lifetime storage
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
  };

  // The tracer spans are recorded into; null while tracing is off.
  static Tracer* Active();
  static void SetActive(Tracer* tracer);

  int32_t Begin(const char* name);
  void End(int32_t id);
  // Request id stamped on spans begun from now on.
  void set_request(uint64_t request) { request_ = request; }

  const std::vector<Span>& spans() const { return spans_; }

  // Summed self time per span name, in nanoseconds, over the spans whose
  // root span's name satisfies `keep_root` (all spans when it is empty).
  std::map<std::string, double> SelfNs(
      const std::function<bool(const char* root)>& keep_root = {}) const;
  // Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Total self time of layer spans (every name not starting with "bench.").
  double LayerSelfNs() const;

  // One span per line: name, start_ns, end_ns, parent, request.
  mv::Status WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

// Records one span for its lifetime when a tracer is active; free otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : tracer_(Tracer::Active()) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_ = -1;
};

}  // namespace mvbench

#endif  // MULTIVERSE_PERFBENCH_TRACE_H_
