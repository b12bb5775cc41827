// limoncellod — the Limoncello controller daemon.
//
// Modes:
//   --mode=sim   (default) run against a simulated machine under bursty
//                load; useful for demos, controller tuning, and CI.
//   --mode=real  run against this host's MSRs (/dev/cpu/N/msr, needs the
//                msr kernel module and root). Telemetry comes from a
//                sample file that a sidecar appends utilization values
//                to (--telemetry-file). Use --dry-run to log intended
//                MSR writes without performing them.
//
// Examples:
//   limoncellod --ticks=120 --upper=0.8 --lower=0.6 --sustain-sec=5
//   limoncellod --mode=real --telemetry-file=/run/membw.txt --dry-run
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "control/control_plane.h"
#include "control/endpoint_sim.h"
#include "core/daemon.h"
#include "core/file_utilization_source.h"
#include "core/perf_csv_source.h"
#include "faults/transport_chaos.h"
#include "fleet/machine_model.h"
#include "msr/linux_msr_device.h"
#include "recovery/recovery_manager.h"
#include "transport/socket_addr.h"
#include "transport/socket_listener.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace limoncello {
namespace {

// SIGTERM/SIGINT request a graceful exit: finish the current tick, flush
// a final journal snapshot, print the stats summary, return 0. Installed
// without SA_RESTART so the tick-period nanosleep wakes immediately.
volatile std::sig_atomic_t g_shutdown_signal = 0;

void HandleShutdownSignal(int signum) { g_shutdown_signal = signum; }

void InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  (void)sigaction(SIGTERM, &action, nullptr);
  (void)sigaction(SIGINT, &action, nullptr);
  // Socket mode writes to peers that can vanish mid-frame. Every send
  // in the tree already passes MSG_NOSIGNAL; ignoring SIGPIPE as well
  // means even a future bare write cannot kill the daemon.
  (void)std::signal(SIGPIPE, SIG_IGN);
}

// End-of-run stats summary, printed on both bounded completion and
// signal-driven shutdown.
void PrintDaemonSummary(const LimoncelloDaemon::Stats& stats) {
  LIMONCELLO_LOG_INFO(
      "summary: %llu ticks, %llu disables, %llu enables, %llu missed / "
      "%llu invalid / %llu stale samples, %llu fail-safes, %llu "
      "actuation failures, %llu reboots detected, %llu warm restores, "
      "%llu recovery reconciles",
      static_cast<unsigned long long>(stats.ticks),
      static_cast<unsigned long long>(stats.disables),
      static_cast<unsigned long long>(stats.enables),
      static_cast<unsigned long long>(stats.missed_samples),
      static_cast<unsigned long long>(stats.invalid_samples),
      static_cast<unsigned long long>(stats.stale_samples),
      static_cast<unsigned long long>(stats.failsafe_resets),
      static_cast<unsigned long long>(stats.actuation_failures),
      static_cast<unsigned long long>(stats.reboots_detected),
      static_cast<unsigned long long>(stats.warm_restores),
      static_cast<unsigned long long>(stats.recovery_reconciles));
}

// Satellite of the recovery work: an invalid config is now a startup
// error with every violated constraint spelled out, not a CHECK crash
// (or silent misbehaviour) at tick time.
bool ValidateConfigOrLog(const ControllerConfig& config) {
  const std::vector<std::string> errors = config.Validate();
  if (errors.empty()) return true;
  LIMONCELLO_LOG_ERROR("invalid controller configuration (%zu error%s):",
                       errors.size(), errors.size() == 1 ? "" : "s");
  for (const std::string& error : errors) {
    LIMONCELLO_LOG_ERROR("  - %s", error.c_str());
  }
  return false;
}

// Wraps an actuator to log (and optionally suppress) MSR writes. A dry
// run stops at the log and never reaches `inner` (null then).
class LoggingActuator : public PrefetchActuator {
 public:
  LoggingActuator(PrefetchActuator* inner, bool dry_run)
      : inner_(inner), dry_run_(dry_run) {}

  bool DisablePrefetchers() override {
    LIMONCELLO_LOG_INFO("actuate: DISABLE hardware prefetchers%s",
                        dry_run_ ? " (dry run)" : "");
    return dry_run_ ? true : inner_->DisablePrefetchers();
  }
  bool EnablePrefetchers() override {
    LIMONCELLO_LOG_INFO("actuate: ENABLE hardware prefetchers%s",
                        dry_run_ ? " (dry run)" : "");
    return dry_run_ ? true : inner_->EnablePrefetchers();
  }
  std::optional<bool> StateMatches(bool want_enabled) override {
    // Dry runs never touched the MSRs, so a readback would always
    // disagree with the FSM; report "unknown" instead.
    return dry_run_ ? std::nullopt : inner_->StateMatches(want_enabled);
  }

 private:
  PrefetchActuator* inner_;
  bool dry_run_;
};

ControllerConfig ConfigFromFlags(const FlagParser& flags) {
  ControllerConfig config;
  config.upper_threshold = flags.GetDouble("upper").value_or(0.80);
  config.lower_threshold = flags.GetDouble("lower").value_or(0.60);
  config.sustain_duration_ns =
      flags.GetInt("sustain-sec").value_or(5) * kNsPerSec;
  config.tick_period_ns = flags.GetInt("tick-sec").value_or(1) * kNsPerSec;
  config.max_missed_samples =
      static_cast<int>(flags.GetInt("max-missed-samples").value_or(5));
  return config;
}

int RunSim(const FlagParser& flags) {
  const int ticks = static_cast<int>(flags.GetInt("ticks").value_or(120));
  const ControllerConfig config = ConfigFromFlags(flags);
  if (!ValidateConfigOrLog(config)) return 2;

  // Optional chaos mode: a deterministic fault schedule (telemetry
  // corruption, MSR write failures, crash/reboot) driven by --chaos-seed,
  // exercising the daemon's hardening paths end to end.
  const bool chaos = flags.GetBool("chaos").value_or(false);
  FaultPlan fault_plan;
  if (chaos) {
    FaultSpec spec;
    spec.telemetry_dropout_rate = 0.02;
    spec.telemetry_nan_rate = 0.01;
    spec.telemetry_stale_rate = 0.008;
    spec.telemetry_spike_rate = 0.008;
    spec.msr_transient_rate = 0.015;
    spec.msr_core_fault_rate = 0.008;
    spec.crash_rate = 0.008;
    const std::uint64_t chaos_seed = static_cast<std::uint64_t>(
        flags.GetInt("chaos-seed").value_or(1));
    fault_plan = FaultPlan::Generate(spec, ticks, Rng(chaos_seed));
    LIMONCELLO_LOG_INFO(
        "chaos mode: seed %llu -> %zu telemetry faults, %zu MSR faults, "
        "%zu crashes scheduled",
        static_cast<unsigned long long>(chaos_seed),
        fault_plan.telemetry_faults().size(), fault_plan.msr_faults().size(),
        fault_plan.crashes().size());
  }

  // A machine under bursty diurnal load; its daemon is the one we run.
  MachineModel machine(PlatformConfig::Platform1(),
                       DeploymentMode::kHardLimoncello, config, Rng(42),
                       chaos ? &fault_plan : nullptr);
  const auto services = ServiceSpec::FleetArchetypes();
  for (int i = 0; i < 5; ++i) {
    MachineModel::Task task;
    task.service_index = i;
    task.spec = &services[static_cast<std::size_t>(i)];
    task.share = 1.0;
    machine.AddTask(task);
  }
  LoadProcess::Options lp;
  lp.diurnal_period_ns = (ticks / 2) * kNsPerSec;
  lp.burst_probability = 0.03;
  std::vector<std::unique_ptr<LoadProcess>> loads;
  for (std::size_t s = 0; s < services.size(); ++s) {
    loads.push_back(std::make_unique<LoadProcess>(lp, Rng(9).Fork(s)));
  }

  LIMONCELLO_LOG_INFO(
      "sim mode: %d ticks, thresholds %.0f%%/%.0f%%, sustain %lld s",
      ticks, 100.0 * config.lower_threshold,
      100.0 * config.upper_threshold,
      static_cast<long long>(config.sustain_duration_ns / kNsPerSec));

  std::vector<double> factors(services.size(), 1.0);
  bool last_state = true;
  bool last_down = false;
  for (int t = 0; t < ticks; ++t) {
    if (g_shutdown_signal != 0) {
      LIMONCELLO_LOG_INFO("signal %d: stopping at tick %d",
                          static_cast<int>(g_shutdown_signal), t);
      break;
    }
    const SimTimeNs now = static_cast<SimTimeNs>(t) * config.tick_period_ns;
    for (std::size_t s = 0; s < services.size(); ++s) {
      factors[s] = loads[s]->Tick(now);
    }
    const auto r = machine.Tick(now, factors);
    if (r.down != last_down) {
      LIMONCELLO_LOG_INFO("t=%4d s  machine %s", t,
                          r.down ? "DOWN (crash)" : "rebooted");
      last_down = r.down;
    }
    if (r.prefetchers_on != last_state) {
      LIMONCELLO_LOG_INFO("t=%4d s  prefetchers -> %s", t,
                          r.prefetchers_on ? "ON" : "OFF");
      last_state = r.prefetchers_on;
    }
    LIMONCELLO_LOG_DEBUG(
        "t=%4d s  bw=%6.1f GB/s (util %5.1f%%)  latency=%6.1f ns  pf=%s",
        t, r.bandwidth_gbps, 100.0 * r.bandwidth_utilization, r.latency_ns,
        r.prefetchers_on ? "on" : "off");
  }
  const LimoncelloDaemon* daemon = machine.daemon();
  PrintDaemonSummary(daemon->stats());
  if (machine.injector() != nullptr) {
    const FaultInjector::Stats& injected = machine.injector()->stats();
    const MachineModel::FaultRecovery& recovery = machine.fault_recovery();
    LIMONCELLO_LOG_INFO(
        "chaos: injected %llu telemetry / %llu MSR-write faults, "
        "%llu crashes (%llu reboots); daemon saw %llu invalid + %llu "
        "stale samples, %llu actuation failures, detected %llu reboots",
        static_cast<unsigned long long>(injected.telemetry_faults),
        static_cast<unsigned long long>(injected.msr_write_faults),
        static_cast<unsigned long long>(injected.crashes),
        static_cast<unsigned long long>(injected.reboots),
        static_cast<unsigned long long>(daemon->stats().invalid_samples),
        static_cast<unsigned long long>(daemon->stats().stale_samples),
        static_cast<unsigned long long>(daemon->stats().actuation_failures),
        static_cast<unsigned long long>(daemon->stats().reboots_detected));
    LIMONCELLO_LOG_INFO(
        "chaos: %llu down ticks, %llu diverged ticks over %llu episodes "
        "(max %llu ticks to reconverge)",
        static_cast<unsigned long long>(recovery.down_ticks),
        static_cast<unsigned long long>(recovery.diverged_ticks),
        static_cast<unsigned long long>(recovery.reconverge_events),
        static_cast<unsigned long long>(recovery.max_reconverge_ticks));
  }
  return 0;
}

// The optional per-endpoint journal of both control-plane loops
// (--state-file): construction warm-restarts the plane's endpoints from
// it, AppendDirty journals the endpoints each tick changed (one write in
// a steady tick), and Flush writes the shutdown snapshot.
class PlaneJournal {
 public:
  PlaneJournal(const FlagParser& flags, ControlPlane* plane) : plane_(plane) {
    const auto state_file = flags.GetString("state-file");
    if (!state_file.has_value()) return;
    const EndpointRecoveryResult recovered =
        RecoverEndpointStates(*state_file, plane_);
    LIMONCELLO_LOG_INFO(
        "endpoint journal %s: %d endpoint(s) warm-restored, %d rejected "
        "(%llu torn, %llu corrupt, %llu version-mismatched record(s) "
        "tolerated)",
        state_file->c_str(), recovered.adopted, recovered.rejected,
        static_cast<unsigned long long>(recovered.replay.torn_records),
        static_cast<unsigned long long>(recovered.replay.corrupt_records),
        static_cast<unsigned long long>(
            recovered.replay.version_mismatches));
    EndpointStateJournal::Options jo;
    jo.path = *state_file;
    journal_ = std::make_unique<EndpointStateJournal>(jo);
  }

  bool enabled() const { return journal_ != nullptr; }

  void AppendDirty() {
    if (journal_ == nullptr) return;
    dirty_.clear();
    plane_->CollectDirtyEndpoints(&dirty_);
    (void)journal_->AppendBatch(dirty_);
  }

  void Flush() {
    if (journal_ == nullptr) return;
    if (journal_->WriteSnapshot(plane_->ExportAllEndpoints())) {
      LIMONCELLO_LOG_INFO("flushed endpoint snapshot to %s",
                          journal_->path().c_str());
    } else {
      LIMONCELLO_LOG_WARN("failed to flush endpoint snapshot to %s",
                          journal_->path().c_str());
    }
  }

 private:
  ControlPlane* plane_;
  std::unique_ptr<EndpointStateJournal> journal_;
  std::vector<EndpointPersistentState> dirty_;
};

// Multi-endpoint sim: one ControlPlane managing --endpoints simulated
// machines over the framed wire protocol, with optional transport chaos.
// The single-socket path (--endpoints=1) never enters here — it stays on
// RunSim bit for bit.
int RunControlSim(const FlagParser& flags) {
  const int ticks = static_cast<int>(flags.GetInt("ticks").value_or(240));
  const int num_endpoints =
      static_cast<int>(flags.GetInt("endpoints").value_or(1));
  const ControllerConfig config = ConfigFromFlags(flags);
  if (!ValidateConfigOrLog(config)) return 2;

  ControlPlaneOptions options;
  options.num_endpoints = num_endpoints;
  options.num_shards = static_cast<int>(
      flags.GetInt("shards").value_or(std::min(num_endpoints, 8)));
  options.config = config;
  const int samples_per_batch =
      static_cast<int>(flags.GetInt("samples-per-batch").value_or(4));
  if (options.num_shards < 1 || samples_per_batch < 1 ||
      samples_per_batch > static_cast<int>(TelemetryBatch::kMaxSamples)) {
    LIMONCELLO_LOG_ERROR(
        "--shards must be >= 1 and --samples-per-batch in [1, %u]",
        TelemetryBatch::kMaxSamples);
    return 2;
  }

  // The endpoint fleet: diurnal + bursty utilization, forked per
  // endpoint from one seed so the run reproduces bit for bit.
  const Rng root(42);
  std::vector<std::unique_ptr<SimulatedEndpoint>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(num_endpoints));
  for (int i = 0; i < num_endpoints; ++i) {
    SimulatedEndpoint::Options eo;
    eo.endpoint_id = static_cast<std::uint32_t>(i);
    eo.samples_per_batch = samples_per_batch;
    eo.diurnal_period_ticks = std::max(2, ticks / 2);
    endpoints.push_back(std::make_unique<SimulatedEndpoint>(
        eo, root.Fork(static_cast<std::uint64_t>(i))));
  }

  ControlPlane plane(options, [&endpoints](std::uint32_t id, bool enable) {
    return endpoints[id]->Actuate(enable);
  });

  // Optional chaos: per-endpoint transport fault schedules (drop,
  // reorder, duplicate, truncate, stale) replayed on each wire.
  const bool chaos = flags.GetBool("chaos").value_or(false);
  std::vector<FaultPlan> plans;
  if (chaos) {
    FaultSpec spec;
    spec.transport_drop_rate = 0.02;
    spec.transport_reorder_rate = 0.01;
    spec.transport_duplicate_rate = 0.01;
    spec.transport_truncate_rate = 0.01;
    spec.transport_stale_rate = 0.01;
    const std::uint64_t chaos_seed = static_cast<std::uint64_t>(
        flags.GetInt("chaos-seed").value_or(1));
    const Rng chaos_root(chaos_seed);
    plans.reserve(static_cast<std::size_t>(num_endpoints));
    for (int i = 0; i < num_endpoints; ++i) {
      plans.push_back(FaultPlan::Generate(
          spec, ticks, chaos_root.Fork(static_cast<std::uint64_t>(i))));
    }
  }
  std::uint64_t now_ns = 0;
  std::vector<std::unique_ptr<ChaosTransport>> wires;
  wires.reserve(static_cast<std::size_t>(num_endpoints));
  for (int i = 0; i < num_endpoints; ++i) {
    wires.push_back(std::make_unique<ChaosTransport>(
        chaos ? &plans[static_cast<std::size_t>(i)] : nullptr,
        [&plane, &now_ns](const unsigned char* data, std::size_t size) {
          (void)plane.IngestFrame(data, size, now_ns);
        }));
  }

  PlaneJournal journal(flags, &plane);

  LIMONCELLO_LOG_INFO(
      "control-plane mode: %d endpoints over %d shard(s), %d ticks, "
      "batch of %d, thresholds %.0f%%/%.0f%%%s",
      num_endpoints, options.num_shards, ticks, samples_per_batch,
      100.0 * config.lower_threshold, 100.0 * config.upper_threshold,
      chaos ? ", transport chaos on" : "");

  std::array<unsigned char, kMaxTelemetryFrameBytes> frame;
  for (int t = 0; t < ticks; ++t) {
    if (g_shutdown_signal != 0) {
      LIMONCELLO_LOG_INFO("signal %d: stopping at tick %d",
                          static_cast<int>(g_shutdown_signal), t);
      break;
    }
    now_ns = static_cast<std::uint64_t>(t) *
             static_cast<std::uint64_t>(config.tick_period_ns);
    for (int i = 0; i < num_endpoints; ++i) {
      const std::size_t size = endpoints[static_cast<std::size_t>(i)]->Tick(
          frame.data());
      if (size > 0) {
        wires[static_cast<std::size_t>(i)]->Send(frame.data(), size);
      }
    }
    plane.DrainAll(now_ns);
    plane.AdvanceTick();
    journal.AppendDirty();
  }
  for (auto& wire : wires) wire->Flush();
  plane.DrainAll(now_ns);
  journal.Flush();

  const ControlPlane::Stats stats = plane.SnapshotStats();
  LIMONCELLO_LOG_INFO(
      "summary: %llu ticks, %llu frames ingested (%llu shed, %llu "
      "rejected, %llu backpressure signals), %llu decoded (%llu decode "
      "failures, %llu sequence rejects), %llu samples",
      static_cast<unsigned long long>(plane.tick()),
      static_cast<unsigned long long>(stats.frames_ingested),
      static_cast<unsigned long long>(stats.frames_shed),
      static_cast<unsigned long long>(stats.frames_rejected),
      static_cast<unsigned long long>(stats.backpressure_signals),
      static_cast<unsigned long long>(stats.frames_decoded),
      static_cast<unsigned long long>(stats.decode_failures),
      static_cast<unsigned long long>(stats.sequence_rejects),
      static_cast<unsigned long long>(stats.samples_accepted));
  LIMONCELLO_LOG_INFO(
      "summary: %llu disables, %llu enables, %llu actuation failures, "
      "%llu command overflows, %llu stale-endpoint fail-safes, %llu "
      "warm restores",
      static_cast<unsigned long long>(stats.disables),
      static_cast<unsigned long long>(stats.enables),
      static_cast<unsigned long long>(stats.actuation_failures),
      static_cast<unsigned long long>(stats.command_overflows),
      static_cast<unsigned long long>(stats.stale_endpoint_failsafes),
      static_cast<unsigned long long>(stats.warm_restores));
  if (chaos) {
    ChaosTransport::Stats wire_totals;
    for (const auto& wire : wires) {
      const ChaosTransport::Stats& s = wire->stats();
      wire_totals.sent += s.sent.value();
      wire_totals.delivered += s.delivered.value();
      wire_totals.dropped += s.dropped.value();
      wire_totals.reordered += s.reordered.value();
      wire_totals.duplicated += s.duplicated.value();
      wire_totals.truncated += s.truncated.value();
      wire_totals.staled += s.staled.value();
    }
    LIMONCELLO_LOG_INFO(
        "chaos: %llu frames sent -> %llu delivered (%llu dropped, %llu "
        "reordered, %llu duplicated, %llu truncated, %llu stale "
        "re-deliveries)",
        static_cast<unsigned long long>(wire_totals.sent),
        static_cast<unsigned long long>(wire_totals.delivered),
        static_cast<unsigned long long>(wire_totals.dropped),
        static_cast<unsigned long long>(wire_totals.reordered),
        static_cast<unsigned long long>(wire_totals.duplicated),
        static_cast<unsigned long long>(wire_totals.truncated),
        static_cast<unsigned long long>(wire_totals.staled));
  }
  return 0;
}

// Socket mode: the same ControlPlane as RunControlSim, but fed by real
// exporter processes over a UNIX or TCP listener instead of in-process
// function calls. The in-process --endpoints path above is untouched —
// it stays bit-identical — while this loop trades determinism for a
// genuine process boundary: wall-clock ticks, kill -9-able peers, and
// the journal + staleness fail-safe healing around both.
int RunListen(const FlagParser& flags) {
  const std::string listen_text = flags.GetString("listen").value_or("");
  const SocketAddress address = ParseSocketAddress(listen_text);
  if (!address.valid()) {
    LIMONCELLO_LOG_ERROR(
        "--listen=%s is not a socket path or host:port address",
        listen_text.c_str());
    return 2;
  }
  const int num_endpoints =
      static_cast<int>(flags.GetInt("endpoints").value_or(8));
  if (num_endpoints < 1) {
    LIMONCELLO_LOG_ERROR("--listen needs --endpoints >= 1");
    return 2;
  }
  ControllerConfig config = ConfigFromFlags(flags);
  // Socket runs are paced by the wall clock; sub-second ticks keep the
  // kill-storm reconvergence window short enough for CI.
  const long long tick_ms = flags.GetInt("tick-ms").value_or(0);
  if (tick_ms > 0) {
    config.tick_period_ns = tick_ms * 1000 * 1000;
    config.sustain_duration_ns = std::max<SimTimeNs>(
        config.sustain_duration_ns, 2 * config.tick_period_ns);
  }
  if (!ValidateConfigOrLog(config)) return 2;

  ControlPlaneOptions options;
  options.num_endpoints = num_endpoints;
  options.num_shards = static_cast<int>(
      flags.GetInt("shards").value_or(std::min(num_endpoints, 8)));
  options.config = config;
  if (options.num_shards < 1) {
    LIMONCELLO_LOG_ERROR("--shards must be >= 1");
    return 2;
  }

  SocketListener::Options listener_options;
  listener_options.address = address;
  SocketListener listener(listener_options);
  // The plane actuates through the listener's learned endpoint routes;
  // a missing route or slow consumer reports failure into the plane's
  // capped-exponential retry.
  ControlPlane plane(options, [&listener](std::uint32_t id, bool enable) {
    return listener.SendActuation(id, enable);
  });
  listener.BindPlane(&plane);

  PlaneJournal journal(flags, &plane);

  if (!listener.Start()) {
    LIMONCELLO_LOG_ERROR("cannot listen on %s: %s", listen_text.c_str(),
                         std::strerror(errno));
    return 3;
  }
  LIMONCELLO_LOG_INFO(
      "listen mode: %s (%s), %d endpoints over %d shard(s), tick %lld ms%s",
      listen_text.c_str(),
      address.kind == SocketAddress::Kind::kUnix ? "unix" : "tcp",
      num_endpoints, options.num_shards,
      static_cast<long long>(config.tick_period_ns / 1000000),
      journal.enabled() ? ", journaled" : "");

  using Clock = std::chrono::steady_clock;
  const auto tick_period =
      std::chrono::nanoseconds(static_cast<long long>(config.tick_period_ns));
  const auto started = Clock::now();
  auto next_tick = started + tick_period;
  const long long max_ticks = flags.GetInt("ticks").value_or(0);
  long long ticks_run = 0;
  auto now_ns = [&started]() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             started)
            .count());
  };
  while (g_shutdown_signal == 0 &&
         (max_ticks == 0 || ticks_run < max_ticks)) {
    const auto now = Clock::now();
    int timeout_ms = 0;
    if (now < next_tick) {
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_tick -
                                                                now)
              .count() +
          1);
    }
    if (listener.PollOnce(timeout_ms, now_ns()) < 0) {
      LIMONCELLO_LOG_ERROR("listener socket died; shutting down");
      break;
    }
    if (Clock::now() >= next_tick) {
      plane.DrainAll(now_ns());
      plane.AdvanceTick();
      journal.AppendDirty();
      ++ticks_run;
      next_tick += tick_period;
      // A long poll stall (debugger, VM pause) must not cause a tick
      // sprint that instantly trips every staleness timer.
      if (Clock::now() > next_tick + 10 * tick_period) {
        next_tick = Clock::now() + tick_period;
      }
    }
  }
  if (g_shutdown_signal != 0) {
    LIMONCELLO_LOG_INFO("signal %d: stopping after %lld tick(s)",
                        static_cast<int>(g_shutdown_signal), ticks_run);
  }
  plane.DrainAll(now_ns());
  journal.Flush();

  // Reconvergence banner: an endpoint is converged when it is out of
  // fail-safe and its last accepted batch is fresher than the staleness
  // window. The socket smoke test greps this line.
  int converged = 0;
  for (int i = 0; i < num_endpoints; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    const EndpointPersistentState state = plane.ExportEndpoint(id);
    const bool fresh =
        state.have_sequence &&
        plane.tick() - state.last_update_tick <=
            static_cast<std::uint64_t>(
                std::max(1, config.max_missed_samples));
    if (fresh && !plane.EndpointInFailsafe(id)) ++converged;
  }
  LIMONCELLO_LOG_INFO("reconverged %d/%d endpoints", converged,
                      num_endpoints);

  const ControlPlane::Stats stats = plane.SnapshotStats();
  const SocketListener::Stats wire = listener.SnapshotStats();
  LIMONCELLO_LOG_INFO(
      "summary: %llu ticks, %llu frames ingested (%llu shed, %llu "
      "rejected), %llu decoded (%llu decode failures, %llu sequence "
      "rejects), %llu samples, %llu stale-endpoint fail-safes, %llu "
      "warm restores",
      static_cast<unsigned long long>(plane.tick()),
      static_cast<unsigned long long>(stats.frames_ingested),
      static_cast<unsigned long long>(stats.frames_shed),
      static_cast<unsigned long long>(stats.frames_rejected),
      static_cast<unsigned long long>(stats.frames_decoded),
      static_cast<unsigned long long>(stats.decode_failures),
      static_cast<unsigned long long>(stats.sequence_rejects),
      static_cast<unsigned long long>(stats.samples_accepted),
      static_cast<unsigned long long>(stats.stale_endpoint_failsafes),
      static_cast<unsigned long long>(stats.warm_restores));
  LIMONCELLO_LOG_INFO(
      "transport: %llu accepts, %llu disconnects, %llu bytes in, %llu "
      "frames (%llu resync bytes, %llu corrupt, %llu oversize, %llu "
      "partial-frame drops), %llu actuations queued (%llu partial "
      "flushes, %llu no-route, %llu slow-consumer)",
      static_cast<unsigned long long>(wire.accepts),
      static_cast<unsigned long long>(wire.disconnects),
      static_cast<unsigned long long>(wire.bytes_received),
      static_cast<unsigned long long>(wire.frames_ingested),
      static_cast<unsigned long long>(wire.resync_bytes),
      static_cast<unsigned long long>(wire.corrupt_frames),
      static_cast<unsigned long long>(wire.oversize_rejects),
      static_cast<unsigned long long>(wire.partial_frame_drops),
      static_cast<unsigned long long>(wire.actuations_queued),
      static_cast<unsigned long long>(wire.actuation_partial_flushes),
      static_cast<unsigned long long>(wire.actuation_no_route),
      static_cast<unsigned long long>(wire.actuation_slow_consumer));
  return 0;
}

int RunReal(const FlagParser& flags) {
  const auto telemetry_path = flags.GetString("telemetry-file");
  const auto perf_csv_path = flags.GetString("perf-csv");
  if (!telemetry_path.has_value() && !perf_csv_path.has_value()) {
    LIMONCELLO_LOG_ERROR(
        "--mode=real requires --telemetry-file=<path> or "
        "--perf-csv=<path>");
    return 2;
  }
  const bool dry_run = flags.GetBool("dry-run").value_or(false);
  const ControllerConfig config = ConfigFromFlags(flags);
  if (!ValidateConfigOrLog(config)) return 2;

  LinuxMsrDevice device;
  if (!device.available() && !dry_run) {
    LIMONCELLO_LOG_ERROR(
        "no /dev/cpu/*/msr access (need the msr module and root); "
        "re-run with --dry-run to test the control loop");
    return 3;
  }
  const int cpus = device.available() ? device.num_cpus() : 1;
  // A dry run never writes, so it never builds the MSR path: on a host
  // without /dev/cpu/*/msr there is no device to build it over.
  std::unique_ptr<PrefetchControl> control;
  std::unique_ptr<MsrPrefetchActuator> msr_actuator;
  if (!dry_run) {
    control = std::make_unique<PrefetchControl>(
        &device, PlatformMsrLayout::kIntelStyle, 0, cpus);
    msr_actuator = std::make_unique<MsrPrefetchActuator>(control.get(), cpus);
  }
  LoggingActuator actuator(msr_actuator.get(), dry_run);

  std::unique_ptr<UtilizationSource> telemetry;
  std::string telemetry_desc;
  if (perf_csv_path.has_value()) {
    PerfCsvOptions perf_options;
    perf_options.saturation_gbps =
        flags.GetDouble("saturation-gbps").value_or(100.0);
    perf_options.interval_ns = config.tick_period_ns;
    telemetry = std::make_unique<PerfCsvUtilizationSource>(*perf_csv_path,
                                                           perf_options);
    telemetry_desc = "perf csv " + *perf_csv_path;
  } else {
    telemetry = std::make_unique<FileUtilizationSource>(*telemetry_path);
    telemetry_desc = "sample file " + *telemetry_path;
  }
  LimoncelloDaemon daemon(config, telemetry.get(), &actuator);

  // Crash-safe state: with --state-file the daemon journals its FSM +
  // retry state and warm-restarts from the newest valid record,
  // reconciling the recovered intent against the hardware before the
  // first tick (DESIGN.md §11).
  std::unique_ptr<RecoveryManager> recovery;
  const auto state_file = flags.GetString("state-file");
  if (state_file.has_value()) {
    RecoveryOptions recovery_options;
    recovery_options.state_file = *state_file;
    recovery_options.snapshot_period_ticks = static_cast<int>(
        flags.GetInt("snapshot-period-ticks").value_or(8));
    if (recovery_options.snapshot_period_ticks < 1) {
      LIMONCELLO_LOG_ERROR("--snapshot-period-ticks must be >= 1");
      return 2;
    }
    recovery = std::make_unique<RecoveryManager>(recovery_options, &daemon);
    const RecoveryResult result = recovery->RecoverAndReconcile();
    const JournalReplay& replay = result.replay;
    if (result.warm) {
      LIMONCELLO_LOG_INFO(
          "warm restart from %s: restored %s @ tick %llu "
          "(prefetchers %s, %llu toggles); hardware %s",
          state_file->c_str(),
          ControllerStateName(daemon.controller().state()),
          static_cast<unsigned long long>(daemon.stats().ticks),
          daemon.controller().PrefetchersShouldBeEnabled() ? "on" : "off",
          static_cast<unsigned long long>(
              daemon.controller().toggle_count()),
          ReconcileStatusName(result.reconcile));
    } else {
      LIMONCELLO_LOG_INFO(
          "cold start (%s): %s; hardware %s", state_file->c_str(),
          !replay.file_found ? "no journal"
          : result.rejected_state
              ? "journal record failed state validation"
              : "journal held no valid record",
          ReconcileStatusName(result.reconcile));
    }
    if (!replay.Clean()) {
      LIMONCELLO_LOG_WARN(
          "journal damage tolerated: %llu torn, %llu corrupt, %llu "
          "version-mismatched record(s); kept %llu valid",
          static_cast<unsigned long long>(replay.torn_records),
          static_cast<unsigned long long>(replay.corrupt_records),
          static_cast<unsigned long long>(replay.version_mismatches),
          static_cast<unsigned long long>(replay.valid_records));
    }
  }

  const int ticks = static_cast<int>(flags.GetInt("ticks").value_or(0));
  LIMONCELLO_LOG_INFO(
      "real mode (%s): %d cpus, telemetry from %s, %s",
      dry_run ? "dry run" : "live", cpus, telemetry_desc.c_str(),
      ticks > 0 ? "bounded run" : "running until interrupted");

  // NOTE: this loop uses wall-clock sleeps; a bounded --ticks run is
  // provided for testing. SIGTERM/SIGINT exit it cleanly: the handler
  // interrupts the nanosleep (no SA_RESTART) and the loop breaks at the
  // next check, flushing a final journal snapshot on the way out.
  for (int t = 0; ticks == 0 || t < ticks; ++t) {
    if (g_shutdown_signal != 0) {
      LIMONCELLO_LOG_INFO("signal %d: stopping at tick %d",
                          static_cast<int>(g_shutdown_signal), t);
      break;
    }
    const auto record =
        daemon.RunTick(static_cast<SimTimeNs>(t) * config.tick_period_ns);
    if (recovery != nullptr) recovery->OnTickComplete(record);
    if (record.sample_ok) {
      LIMONCELLO_LOG_DEBUG("t=%d util=%.1f%% state=%s", t,
                           100.0 * record.utilization,
                           ControllerStateName(record.state));
    } else {
      LIMONCELLO_LOG_WARN("t=%d telemetry sample missing", t);
    }
#ifndef LIMONCELLO_NO_SLEEP
    // Sleep one tick period between samples.
    const auto seconds =
        static_cast<unsigned>(config.tick_period_ns / kNsPerSec);
    if (seconds > 0 && !(ticks > 0 && t + 1 >= ticks) &&
        g_shutdown_signal == 0) {
      // std::this_thread would drag in <thread>; keep it POSIX.
      struct timespec ts = {static_cast<time_t>(seconds), 0};
      nanosleep(&ts, nullptr);
    }
#endif
  }
  if (recovery != nullptr) {
    if (recovery->FlushSnapshot()) {
      LIMONCELLO_LOG_INFO("flushed final state snapshot to %s",
                          recovery->journal().path().c_str());
    } else {
      LIMONCELLO_LOG_WARN("failed to flush final state snapshot to %s",
                          recovery->journal().path().c_str());
    }
  }
  PrintDaemonSummary(daemon.stats());
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("mode", "sim (default) or real")
      .Define("ticks", "number of controller ticks (0 = forever in real mode)")
      .Define("upper", "upper threshold as a fraction of saturation (0.80)")
      .Define("lower", "lower threshold as a fraction of saturation (0.60)")
      .Define("sustain-sec", "sustain duration in seconds (5)")
      .Define("tick-sec", "telemetry period in seconds (1)")
      .Define("max-missed-samples", "missed samples before fail-safe (5)")
      .Define("chaos",
              "sim mode: inject a deterministic fault load (telemetry "
              "corruption, MSR failures, crash/reboot; with "
              "--endpoints>1, transport faults on every wire)")
      .Define("chaos-seed", "sim mode with --chaos: fault schedule seed (1)")
      .Define("endpoints",
              "sim mode: machines managed by one control plane (1 = the "
              "classic single-socket daemon loop)")
      .Define("listen",
              "run the control plane behind a socket listener: a UNIX "
              "socket path or host:port; exporters connect with "
              "limoncello-exporter (see DESIGN.md section 16)")
      .Define("tick-ms",
              "with --listen: control tick period in milliseconds "
              "(overrides --tick-sec; sub-second ticks keep kill-storm "
              "reconvergence windows short)")
      .Define("shards",
              "sim mode with --endpoints>1: control-plane shards "
              "(default min(endpoints, 8))")
      .Define("samples-per-batch",
              "sim mode with --endpoints>1: samples per telemetry batch "
              "frame (4)")
      .Define("telemetry-file", "real mode: file with utilization samples")
      .Define("state-file",
              "CRC-protected state journal enabling warm restart: the "
              "daemon journal in real mode, the per-endpoint journal "
              "with --endpoints>1 (see DESIGN.md sections 11 and 15)")
      .Define("snapshot-period-ticks",
              "real mode with --state-file: journal cadence on quiet "
              "ticks (8; actuations always journal)")
      .Define("perf-csv", "real mode: perf stat -I -x, output file")
      .Define("saturation-gbps",
              "real mode with --perf-csv: socket saturation bandwidth (100)")
      .Define("dry-run", "real mode: log MSR writes without performing them")
      .Define("threads",
              "worker threads for fleet simulations (0 = auto; overrides "
              "LIMONCELLO_THREADS)")
      .Define("verbose", "log every tick")
      .Define("help", "show this help");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.Help(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::fprintf(stdout, "%s", flags.Help(argv[0]).c_str());
    return 0;
  }
  if (flags.GetBool("verbose").value_or(false)) {
    SetLogLevel(LogLevel::kDebug);
  }
  InstallShutdownHandlers();
  // Process-wide default thread count: any FleetSimulator created with
  // num_threads = 0 (auto) picks this up ahead of the environment.
  SetDefaultThreadCount(
      static_cast<int>(flags.GetInt("threads").value_or(0)));
  const std::string mode = flags.GetString("mode").value_or("sim");
  if (flags.GetString("listen").has_value()) return RunListen(flags);
  const long long endpoints = flags.GetInt("endpoints").value_or(1);
  if (mode == "sim" && endpoints > 1) return RunControlSim(flags);
  if (mode == "sim") return RunSim(flags);
  if (mode == "real") return RunReal(flags);
  LIMONCELLO_LOG_ERROR("unknown --mode=%s (want sim or real)",
                       mode.c_str());
  return 2;
}

}  // namespace
}  // namespace limoncello

int main(int argc, char** argv) { return limoncello::Main(argc, argv); }
