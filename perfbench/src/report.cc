#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "trace.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::TraceSummary(const Tracer& tracer, double traced_e2e_s) {
  const double median_sum_s = tracer.TopLevelMedianSumNs() * 1e-9;
  double wall_sum_s = 0.0;
  for (const auto& [name, stats] : tracer.ByName()) {
    if (stats.top_level) wall_sum_s += stats.wall_sum_ns * 1e-9;
  }
  auto share_left = [traced_e2e_s](double explained_s) {
    return traced_e2e_s > 0.0 ? (traced_e2e_s - explained_s) / traced_e2e_s
                              : 0.0;
  };
  Metric("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  Metric("trace.e2e_s", traced_e2e_s, "s");
  Metric("trace.top_span_median_sum_s", median_sum_s, "s");
  Metric("trace.residual_frac", share_left(median_sum_s), "fraction");
  Metric("trace.top_span_wall_s", wall_sum_s, "s");
  Metric("trace.uncovered_frac", share_left(wall_sum_s), "fraction");
}

void Report::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), value, e.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Consume(std::uint64_t value) {
  static volatile std::uint64_t sink = 0;
  sink = sink + value;
}

}  // namespace perfbench
