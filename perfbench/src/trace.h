// In-memory span recorder for the benchmark's traced mode.
//
// A span brackets one call the benchmark makes into a layer's public
// function. Each span records its name, start and end (steady clock),
// the enclosing span on the same thread, and the thread-CPU time spent
// inside it, so wall minus CPU is the time the call was blocked. Spans
// stay in memory until the run ends; WriteTsv dumps them and the Reduce
// helpers turn them into per-layer metrics.
//
// A Tracer belongs to one thread. A disabled tracer records nothing and
// costs one branch per span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();          // steady clock
std::int64_t ThreadCpuNs();    // CLOCK_THREAD_CPUTIME_ID

struct Span {
  const char* name = nullptr;  // static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;     // thread CPU inside the span
  int parent = -1;             // index of the enclosing span, -1 = top
};

// Per-name aggregate of finished spans.
struct SpanStats {
  std::uint64_t count = 0;
  double wall_sum_ns = 0.0;
  double cpu_sum_ns = 0.0;
  std::vector<double> wall_ns;  // one entry per span, for percentiles
  bool top_level = false;       // at least one span had no parent
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Starts or stops recording (open spans still close normally).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Preallocates room for `spans` spans, so recording never stalls the
  // traced thread on a reallocation.
  void Reserve(std::size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }

  // Opens a span and returns its id (-1 when disabled).
  int Begin(const char* name);
  // Closes the span `id` (the innermost open one).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, SpanStats> ByName() const;

  // Sum over top-level span names of (span count x median wall time):
  // the part of the traced end-to-end time the top-level calls explain.
  double TopLevelMedianSumNs() const;

  // One line per span: name, start, end, parent, wall, cpu (ns).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
