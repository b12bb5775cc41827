// socket_loop: one detailed 8-core socket in closed loop under a
// LimoncelloDaemon.
//
// Layers: sim (Cache, prefetch engines, MemoryController inside
// Socket::Step), telemetry (SocketUtilizationSource), msr (the
// MsrPrefetchActuator read-modify-write) and core (the daemon's FSM).
// The wiring is examples/quickstart.cpp's: one daemon tick per 100 us
// socket epoch. Every core runs FunctionCatalog::FleetDefault()'s fleet
// mix; load phases alternate between the catalog's own working sets
// (far larger than the 16 MiB LLC: bandwidth saturates and prefetchers
// go off) and the same mix shrunk to fit the 1 MiB L2 (prefetchers come
// back). One repetition is a fixed script of phases on a fresh socket;
// repetitions share the seed, so their simulated counters must agree
// bit for bit.
#include <memory>
#include <string>
#include <vector>

#include "core/actuator.h"
#include "core/daemon.h"
#include "msr/prefetch_control.h"
#include "report.h"
#include "sim/machine/socket.h"
#include "telemetry/telemetry.h"
#include "trace.h"
#include "workloads/function_catalog.h"

namespace perfbench {
namespace {

using namespace limoncello;

constexpr int kCores = 8;
constexpr SimTimeNs kEpochNs = 100 * kNsPerUs;
constexpr int kPhases = 4;  // heavy, light, heavy, light

// The fleet catalog with every working set shrunk to fit the L2.
FunctionCatalog L2ResidentCatalog() {
  const FunctionCatalog fleet = FunctionCatalog::FleetDefault();
  FunctionCatalog small;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    FunctionSpec spec = fleet.spec(static_cast<FunctionId>(i));
    spec.working_set_bytes = 256 * kKiB;
    spec.mean_stream_bytes = std::min(spec.mean_stream_bytes, 4096.0);
    // More compute per access: an L2-resident mix otherwise issues so
    // many accesses per epoch that it dominates the host time.
    spec.gap_instructions_mean *= 4.0;
    small.Add(std::move(spec));
  }
  return small;
}

struct Totals {
  PmuCounters pmu;
  Cache::Stats l1, l2, llc;
  std::uint64_t disables = 0;
  std::uint64_t enables = 0;
  int epochs = 0;
  int epochs_prefetchers_off = 0;
  double utilization_sum = 0.0;
};

std::string Fingerprint(const Totals& t) {
  std::string out;
  auto add = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  add(&t.pmu.instructions, sizeof(std::uint64_t));
  add(&t.pmu.core_cycles, sizeof(std::uint64_t));
  add(&t.pmu.idle_cycles, sizeof(std::uint64_t));
  add(&t.pmu.lines_touched, sizeof(std::uint64_t));
  add(t.pmu.dram_bytes, sizeof(t.pmu.dram_bytes));
  add(&t.pmu.dram_requests, sizeof(std::uint64_t));
  add(&t.pmu.dram_latency_ns_sum, sizeof(double));
  for (const Cache::Stats* s : {&t.l1, &t.l2, &t.llc}) {
    add(s, sizeof(Cache::Stats));
  }
  add(&t.disables, sizeof(std::uint64_t));
  add(&t.enables, sizeof(std::uint64_t));
  add(&t.utilization_sum, sizeof(double));
  return out;
}

struct Rep {
  Totals totals;
  double setup_s = 0.0;
  double loop_s = 0.0;              // host time in Step + RunTick
  std::vector<double> epoch_us;     // host time of each closed-loop epoch
};

// Heavy phases are twice as long as light ones, so the median epoch is
// a heavy one and the tail holds the (costlier to simulate) light ones.
struct Script {
  int heavy_epochs;
  int light_epochs;
  int Epochs() const { return 2 * (heavy_epochs + light_epochs); }
};

Rep RunScript(const Options& options, const FunctionCatalog& heavy,
              const FunctionCatalog& light, const Script& script,
              Tracer& tracer) {
  Rep rep;
  const std::int64_t t0 = NowNs();
  SocketConfig config;
  config.num_cores = kCores;
  config.memory.peak_gbps = 12.0;
  Socket socket(config, heavy.size(), Rng(options.seed));
  ControllerConfig controller;
  controller.upper_threshold = 0.80;
  controller.lower_threshold = 0.60;
  controller.tick_period_ns = kEpochNs;
  controller.sustain_duration_ns = 5 * kEpochNs;
  PrefetchControl control(&socket.msr_device(),
                          PlatformMsrLayout::kIntelStyle, 0, kCores);
  MsrPrefetchActuator actuator(&control, kCores);
  SocketUtilizationSource telemetry(&socket);
  LimoncelloDaemon daemon(controller, &telemetry, &actuator);
  daemon.set_trace_recording(false);
  rep.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;

  Totals& t = rep.totals;
  rep.epoch_us.reserve(static_cast<std::size_t>(script.Epochs()));
  for (int phase = 0; phase < kPhases; ++phase) {
    const bool is_heavy = phase % 2 == 0;
    const FunctionCatalog& catalog = is_heavy ? heavy : light;
    const int epochs = is_heavy ? script.heavy_epochs : script.light_epochs;
    for (int core = 0; core < kCores; ++core) {
      socket.SetWorkload(
          core, catalog.MakeFleetMix(Rng(options.seed * 1000003ULL +
                                         static_cast<std::uint64_t>(
                                             phase * kCores + core))));
    }
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const std::int64_t e0 = NowNs();
      {
        ScopedSpan span(tracer, "sim.step");
        socket.Step(kEpochNs);
      }
      LimoncelloDaemon::TickRecord record;
      {
        ScopedSpan span(tracer, "core.daemon_tick");
        record = daemon.RunTick(socket.now());
      }
      const std::int64_t e1 = NowNs();
      rep.epoch_us.push_back(static_cast<double>(e1 - e0) * 1e-3);
      rep.loop_s += static_cast<double>(e1 - e0) * 1e-9;
      ++t.epochs;
      if (!socket.AllPrefetchersEnabled()) ++t.epochs_prefetchers_off;
      t.utilization_sum += socket.last_epoch().utilization;
    }
  }
  t.pmu = socket.counters();
  t.l1 = socket.AggregateL1Stats();
  t.l2 = socket.AggregateL2Stats();
  t.llc = socket.LlcStats();
  t.disables = daemon.stats().disables;
  t.enables = daemon.stats().enables;
  return rep;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void RunSocketLoop(const Options& options, Report& report) {
  const FunctionCatalog heavy = FunctionCatalog::FleetDefault();
  const FunctionCatalog light = L2ResidentCatalog();
  const Script script = options.smoke ? Script{12, 8} : Script{30, 15};

  Tracer tracer(options.trace);
  Tracer untraced(false);
  std::string reference;
  Totals first;
  std::vector<double> setup_s;
  std::vector<double> epoch_us;
  double loop_s = 0.0;
  std::uint64_t instructions = 0;
  // Simulated instructions per host second, one entry per repetition:
  // the median is robust to a repetition slowed by the host.
  std::vector<double> rep_rate;

  auto check = [&](const Rep& rep) {
    ++report.attempted;
    const Totals& t = rep.totals;
    if (t.disables < 2 || t.enables < 2) {
      ++report.failed;
      report.Fail("script toggled " + std::to_string(t.disables) +
                  " disable(s) and " + std::to_string(t.enables) +
                  " enable(s); needs at least 2 of each");
      return;
    }
    const std::string print = Fingerprint(t);
    if (reference.empty()) {
      reference = print;
      first = t;
    } else if (print != reference) {
      ++report.failed;
      report.Fail("simulated counters differ between repetitions of one seed");
    }
  };

  double untraced_epoch_s = 0.0;
  if (options.trace) {
    const Rep rep = RunScript(options, heavy, light, script,
                              untraced);
    check(rep);
    untraced_epoch_s = rep.loop_s / script.Epochs();
  }

  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  do {
    const Rep rep = RunScript(options, heavy, light, script, tracer);
    check(rep);
    rep_rate.push_back(static_cast<double>(rep.totals.pmu.instructions) /
                       rep.loop_s);
    setup_s.push_back(rep.setup_s);
    epoch_us.insert(epoch_us.end(), rep.epoch_us.begin(), rep.epoch_us.end());
    loop_s += rep.loop_s;
    instructions += rep.totals.pmu.instructions;
  } while (NowNs() < deadline);
  const double window_s = static_cast<double>(NowNs() - start) * 1e-9;

  if (!options.trace) {
    report.Metric("setup_s", Percentile(setup_s, 0.5), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("work_per_s", Percentile(rep_rate, 0.5), "1/s");
    report.Metric("op_p50_us", Percentile(epoch_us, 0.5), "us");
    report.Metric("op_p90_us", Percentile(epoch_us, 0.90), "us");
    return;
  }

  tracer.WriteTsv(options.run_dir + "/spans-socket_loop.tsv");
  const auto by_name = tracer.ByName();
  const SpanStats& step = by_name.at("sim.step");
  const SpanStats& tick = by_name.at("core.daemon_tick");
  const Totals& t = first;
  const double accesses =
      static_cast<double>(t.l1.demand_hits + t.l1.demand_misses);
  const double reps = static_cast<double>(setup_s.size());
  report.Metric("sim.step_us.p50", Percentile(step.wall_ns, 0.5) * 1e-3, "us");
  report.Metric("sim.step_us.p99", Percentile(step.wall_ns, 0.99) * 1e-3,
                "us");
  report.Metric("sim.ns_per_access", Ratio(step.wall_sum_ns, accesses * reps),
                "ns");
  report.Metric("core.daemon_tick_us", Percentile(tick.wall_ns, 0.5) * 1e-3,
                "us");
  report.Metric("socket.sim_mips",
                Ratio(static_cast<double>(instructions), loop_s) * 1e-6,
                "MIPS");
  report.Metric("socket.ipc",
                Ratio(static_cast<double>(t.pmu.instructions),
                      static_cast<double>(t.pmu.core_cycles)),
                "instr/cycle");
  report.Metric("sim.l1.miss_rate", t.l1.DemandMissRate(), "fraction");
  report.Metric("sim.l2.miss_rate", t.l2.DemandMissRate(), "fraction");
  report.Metric("sim.llc.miss_rate", t.llc.DemandMissRate(), "fraction");
  report.Metric("sim.l2.prefetch_accuracy", t.l2.PrefetchAccuracy(),
                "fraction");
  report.Metric("sim.llc.prefetch_accuracy", t.llc.PrefetchAccuracy(),
                "fraction");
  report.Metric("sim.l2.pollution_evictions",
                static_cast<double>(t.l2.prefetch_pollution_evictions),
                "count");
  const char* kClasses[kNumTrafficClasses] = {"demand", "hw_prefetch",
                                              "sw_prefetch", "writeback"};
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    report.Metric(std::string("sim.dram.bytes.") + kClasses[c],
                  static_cast<double>(t.pmu.dram_bytes[c]), "bytes");
  }
  report.Metric("sim.dram.latency_ns_mean", t.pmu.AvgDramLatencyNs(), "ns");
  report.Metric("sim.dram.utilization_mean",
                Ratio(t.utilization_sum, t.epochs), "fraction");
  report.Metric("core.toggles", static_cast<double>(t.disables + t.enables),
                "count");
  report.Metric("core.prefetchers_off_frac",
                Ratio(t.epochs_prefetchers_off, t.epochs), "fraction");
  report.TraceSummary(tracer, window_s);
  report.Metric("trace.overhead_frac",
                Ratio(loop_s / static_cast<double>(epoch_us.size()),
                      untraced_epoch_s) -
                    1.0,
                "fraction");
}

}  // namespace perfbench
