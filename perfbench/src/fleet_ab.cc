// fleet_ab: the Fig. 16 A/B set-up on the analytic fleet.
//
// Layers: fleet (FleetSimulator), core (the per-machine daemons inside
// MachineModel::Tick) and util/thread_pool (the epoch loop). A 20,000-
// machine fleet keeps the SoA state far larger than a core's L2. One
// repetition is a kBaseline arm followed by a kFullLimoncello arm, each
// built fresh (the constructor is this workload's set-up) and run at 4
// threads. Repetitions use the same seed, so every repetition must give
// bit-identical FleetMetrics; that is the output check.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/fleet_simulator.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

using limoncello::DeploymentMode;
using limoncello::FleetMetrics;
using limoncello::FleetOptions;
using limoncello::FleetSimulator;

constexpr int kThreads = 4;

struct Arm {
  const char* label;
  DeploymentMode mode;
};
constexpr Arm kArms[] = {{"baseline", DeploymentMode::kBaseline},
                         {"limoncello", DeploymentMode::kFullLimoncello}};

struct ArmRun {
  FleetMetrics metrics;
  double ctor_s = 0.0;
  double run_s = 0.0;
};

ArmRun RunArm(const FleetOptions& base, DeploymentMode mode, int threads,
              Tracer& tracer) {
  FleetOptions options = base;
  options.num_threads = threads;
  ArmRun arm;
  const std::int64_t t0 = NowNs();
  std::int64_t t1 = 0;
  {
    int span = tracer.Begin("fleet.ctor");
    FleetSimulator sim(limoncello::PlatformConfig::Platform1(), mode,
                       limoncello::bench::DeployedControllerConfig(), options);
    tracer.End(span);
    t1 = NowNs();
    span = tracer.Begin("fleet.run");
    arm.metrics = sim.Run();
    tracer.End(span);
    arm.run_s = static_cast<double>(NowNs() - t1) * 1e-9;
  }
  arm.ctor_s = static_cast<double>(t1 - t0) * 1e-9;
  return arm;
}

// Appends the bytes of every fleet-wide result to `out`, so two runs
// compare bit for bit.
void AppendBits(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

std::string Fingerprint(const FleetMetrics& m) {
  std::string out;
  const double scalars[] = {m.served_qps_sum,
                            m.offered_qps_sum,
                            m.latency_ns.Mean(),
                            m.bandwidth_gbps.Mean(),
                            m.bandwidth_utilization.Mean(),
                            m.TotalCategoryCycles()};
  AppendBits(out, scalars, sizeof(scalars));
  const std::uint64_t counts[] = {m.saturated_machine_ticks,
                                  m.machine_ticks,
                                  m.prefetcher_off_ticks,
                                  m.controller_toggles,
                                  m.latency_ns.Count()};
  AppendBits(out, counts, sizeof(counts));
  for (const auto& machine : m.machines) {
    AppendBits(out, &machine.served_qps_sum, sizeof(double));
    AppendBits(out, &machine.latency_ns_sum, sizeof(double));
    AppendBits(out, &machine.prefetcher_off_ticks, sizeof(std::uint64_t));
  }
  return out;
}

double Frac(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void RunFleetAb(const Options& options, Report& report) {
  FleetOptions fleet = limoncello::bench::DefaultFleetOptions(options.seed);
  fleet.num_machines = options.smoke ? 400 : 20000;
  fleet.ticks = options.smoke ? 20 : 90;
  fleet.fill = 0.62;
  fleet.rebalance_period_ticks = 60;
  // One diurnal cycle per arm, so a short arm still sweeps load levels.
  fleet.diurnal_period_ns =
      static_cast<limoncello::SimTimeNs>(fleet.ticks) * fleet.tick_ns;
  const std::uint64_t expected_ticks =
      static_cast<std::uint64_t>(fleet.num_machines) *
      static_cast<std::uint64_t>(fleet.ticks);

  Tracer tracer(options.trace);
  Tracer untraced(false);
  std::string reference[2];
  FleetMetrics first[2];
  std::vector<double> ctor_s;
  std::vector<double> pair_us;  // Run() time of both arms of a pair
  // Machine-ticks per host second, one entry per pair: the median is
  // robust to a pair slowed by the host.
  std::vector<double> pair_rate;
  std::vector<double> arm_run_s[2];
  double run_total_s = 0.0;
  std::uint64_t ticks_total = 0;

  auto check = [&](int arm, const ArmRun& run, const char* what) {
    ++report.attempted;
    if (run.metrics.machine_ticks != expected_ticks) {
      ++report.failed;
      report.Fail(std::string(kArms[arm].label) + " " + what +
                  ": machine_ticks != machines x ticks");
      return;
    }
    const std::string print = Fingerprint(run.metrics);
    if (reference[arm].empty()) {
      reference[arm] = print;
      first[arm] = run.metrics;
    } else if (print != reference[arm]) {
      ++report.failed;
      report.Fail(std::string(kArms[arm].label) + " " + what +
                  ": FleetMetrics differ from the first repetition");
    }
  };

  // In the traced run, one untraced pair first: its Run() time is the
  // reference for the tracing overhead.
  double untraced_run_s = 0.0;
  if (options.trace) {
    for (int arm = 0; arm < 2; ++arm) {
      const ArmRun run = RunArm(fleet, kArms[arm].mode, kThreads, untraced);
      check(arm, run, "untraced");
      untraced_run_s += run.run_s;
    }
  }

  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  double traced_pair_s = 0.0;
  int pairs = 0;
  do {
    double pair_s = 0.0;
    for (int arm = 0; arm < 2; ++arm) {
      const ArmRun run = RunArm(fleet, kArms[arm].mode, kThreads, tracer);
      check(arm, run, "4-thread");
      ctor_s.push_back(run.ctor_s);
      pair_s += run.run_s;
      arm_run_s[arm].push_back(run.run_s);
      run_total_s += run.run_s;
      ticks_total += run.metrics.machine_ticks;
    }
    if (pairs == 0) traced_pair_s = pair_s;
    pair_us.push_back(pair_s * 1e6);
    pair_rate.push_back(2.0 * static_cast<double>(expected_ticks) / pair_s);
    ++pairs;
  } while (NowNs() < deadline);
  const double window_s = static_cast<double>(NowNs() - start) * 1e-9;

  if (!options.trace) {
    report.Metric("setup_s", Percentile(ctor_s, 0.5), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("work_per_s", Percentile(pair_rate, 0.5), "1/s");
    report.Metric("op_p50_us", Percentile(pair_us, 0.5), "us");
    report.Metric("op_p90_us", Percentile(pair_us, 0.90), "us");
    return;
  }

  // Traced run: the same pair at one thread must be bit-identical, and
  // gives the pool's parallel efficiency.
  Tracer serial(true);
  double serial_pair_s = 0.0;
  for (int arm = 0; arm < 2; ++arm) {
    const ArmRun run = RunArm(fleet, kArms[arm].mode, 1, serial);
    check(arm, run, "1-thread");
    serial_pair_s += run.run_s;
  }
  tracer.WriteTsv(options.run_dir + "/spans-fleet_ab.tsv");
  serial.WriteTsv(options.run_dir + "/spans-fleet_ab-1thread.tsv");

  const auto by_name = tracer.ByName();
  const auto ctor = by_name.find("fleet.ctor");
  report.Metric("fleet.ctor_s",
                ctor == by_name.end() ? 0.0
                                      : Percentile(ctor->second.wall_ns, 0.5) *
                                            1e-9,
                "s");
  report.Metric("fleet.run_s.baseline", Percentile(arm_run_s[0], 0.5), "s");
  report.Metric("fleet.run_s.limoncello", Percentile(arm_run_s[1], 0.5), "s");
  report.Metric("fleet.ns_per_machine_tick",
                run_total_s * 1e9 / static_cast<double>(ticks_total), "ns");
  report.Metric("util.thread_pool.parallel_efficiency",
                serial_pair_s / (kThreads * traced_pair_s), "fraction");
  report.Metric("fleet.qps_gain_pct",
                100.0 * (first[1].served_qps_sum / first[0].served_qps_sum -
                         1.0),
                "%");
  for (int arm = 0; arm < 2; ++arm) {
    const FleetMetrics& m = first[arm];
    const std::string suffix = std::string(".") + kArms[arm].label;
    report.Metric("fleet.controller_toggles" + suffix,
                  static_cast<double>(m.controller_toggles), "count");
    report.Metric("fleet.prefetcher_off_frac" + suffix,
                  Frac(m.prefetcher_off_ticks, m.machine_ticks), "fraction");
    report.Metric("fleet.saturated_frac" + suffix, m.SaturatedFraction(),
                  "fraction");
    report.Metric("fleet.latency_ns_mean" + suffix, m.latency_ns.Mean(), "ns");
  }
  report.TraceSummary(tracer, window_s);
  report.Metric("trace.overhead_frac",
                untraced_run_s > 0.0 ? traced_pair_s / untraced_run_s - 1.0
                                     : 0.0,
                "fraction");
}

}  // namespace perfbench
