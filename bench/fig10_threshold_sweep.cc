// Reproduces paper Fig. 10: application throughput under different Hard
// Limoncello threshold configurations (lower/upper as % of saturation).
// The deployed 60/80 configuration should win or tie. The sweep is the
// ThresholdTuner's, which also names the configuration it would deploy.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "fleet/threshold_tuner.h"
#include "util/table.h"

namespace limoncello::bench {
namespace {

std::string Label(double lower, double upper) {
  char label[16];
  std::snprintf(label, sizeof(label), "%.0f/%.0f", 100.0 * lower,
                100.0 * upper);
  return label;
}

void Run() {
  FleetOptions options = DefaultFleetOptions(23);
  options.fill = 0.62;  // loaded fleet: thresholds matter here
  const TunerResult result = ThresholdTuner(PlatformConfig::Platform1(),
                                            options)
                                 .Tune(ThresholdTuner::PaperGrid());

  Table table({"config(LT/UT)", "throughput_increase(%)",
               "prefetcher_off_ticks(%)", "toggles"});
  for (const ThresholdEvaluation& e : result.evaluations) {
    table.AddRow({Label(e.candidate.lower, e.candidate.upper),
                  Table::Num(e.throughput_gain_pct, 2),
                  Table::Num(100.0 * e.prefetcher_off_fraction, 1),
                  Table::Num(static_cast<std::int64_t>(e.toggles))});
  }
  table.Print("Fig. 10: throughput by threshold configuration");
  std::printf("\nTuner's pick: %s\n",
              Label(result.best.lower_threshold, result.best.upper_threshold)
                  .c_str());
  std::printf(
      "\nPaper: 60/80 delivered the best application throughput; 50/70 "
      "toggles too\neagerly at moderate load, 70/90 reacts too late.\n");
}

}  // namespace
}  // namespace limoncello::bench

int main() {
  limoncello::bench::Run();
  return 0;
}
