#include "trace.h"

#include <time.h>

#include <cstdio>

#include "report.h"

namespace perfbench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  // cpu_ns holds the start reading until End turns it into a delta.
  span.cpu_ns = ThreadCpuNs();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  span.cpu_ns = ThreadCpuNs() - span.cpu_ns;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, SpanStats> Tracer::ByName() const {
  std::map<std::string, SpanStats> out;
  for (const Span& span : spans_) {
    SpanStats& stats = out[span.name];
    const double wall = static_cast<double>(span.end_ns - span.start_ns);
    ++stats.count;
    stats.wall_sum_ns += wall;
    stats.cpu_sum_ns += static_cast<double>(span.cpu_ns);
    stats.wall_ns.push_back(wall);
    if (span.parent < 0) stats.top_level = true;
  }
  return out;
}

double Tracer::TopLevelMedianSumNs() const {
  double sum = 0.0;
  for (const auto& [name, stats] : ByName()) {
    if (!stats.top_level) continue;
    sum += static_cast<double>(stats.count) * Percentile(stats.wall_ns, 0.5);
  }
  return sum;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\twall_ns\tcpu_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%lld\t%lld\t%d\t%lld\t%lld\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.end_ns - span.start_ns),
                 static_cast<long long>(span.cpu_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
