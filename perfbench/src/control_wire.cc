// control_wire: the real limoncellod listen mode under an open-loop
// telemetry generator.
//
// Layers: transport (socket reads, FrameReassembler, actuation writes),
// control (queue, decode + CRC, the per-endpoint FSM drain), recovery
// (journal appends) and util/crc32. The benchmark process is the only
// load: one thread, 4 UNIX connections, each carrying a quarter of the
// endpoints. Every endpoint sends one kSamplesPerBatch-sample batch
// every kSamplesPerBatch ms on a fixed schedule (open loop: a stalled
// daemon does not slow the generator), far inside the staleness
// fail-safe window. Each endpoint's utilization is a seeded
// square wave with jitter; a shadow HysteresisController per endpoint,
// built with the daemon's exact ControllerConfig, predicts which frame
// trips each toggle, and the generator matches the LAC1 actuation
// frames it reads back against those predictions.
//
// The untraced run execs limoncellod. The traced run hosts the same
// SocketListener + ControlPlane + EndpointStateJournal loop in-process
// (on its own thread) so spans can bracket each call into the layers.
#include <fcntl.h>
#include <linux/sockios.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <spawn.h>
#include <sys/ioctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "control/actuation_frame.h"
#include "control/control_plane.h"
#include "control/telemetry_batch.h"
#include "core/hysteresis_controller.h"
#include "recovery/recovery_manager.h"
#include "recovery/state_journal.h"
#include "report.h"
#include "trace.h"
#include "transport/frame_reassembler.h"
#include "transport/socket_addr.h"
#include "transport/socket_listener.h"
#include "util/crc32.h"
#include "util/posix_io.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace limoncello;

constexpr int kConnections = 4;
constexpr int kTickMs = 1;
// The staleness fail-safe window, in plane ticks. limoncellod's default
// (5 ticks = 5 ms here) is shorter than a scheduling hiccup on a shared
// host; a fail-safe caused by the host, not the plane, would be counted
// as a plane failure. 50 ms keeps it a property of the plane.
constexpr int kMaxMissedSamples = 50;
// The generator sends every this often, all frames due by then, so the
// plane reads frames in batches as it would from real exporters.
constexpr std::int64_t kSendSlotNs = 100'000;
constexpr std::uint32_t kSamplesPerBatch = 8;
// The offered load: endpoints x 1000 samples/s. Fixed at about half the
// rate at which the daemon's backlog starts to grow on the reference
// host (see README.md); stored, not re-derived per run.
constexpr int kEndpoints = 1536;
constexpr int kSmokeEndpoints = 16;
constexpr int kSetups = 5;
// Measurement attempts before an invalid run (see Invalidity) is
// reported as such; each attempt starts a fresh daemon.
constexpr int kAttempts = 3;
constexpr double kWarmupS = 0.5;
constexpr double kTailS = 0.3;
constexpr std::int64_t kLateNs = 100'000'000;  // 100 ms
// The backlog grows when its mean over the window's last quarter exceeds
// twice the first quarter's by more than this.
constexpr double kBacklogGrowthBytes = 64 * 1024;
constexpr std::int64_t kBacklogSampleNs = 10'000'000;
constexpr std::int64_t kDrainNs = 30'000'000;

// The daemon's ControllerConfig for `--tick-ms=1 --sustain-sec=0
// --max-missed-samples=50`: listen mode clamps the sustain window to two
// ticks.
ControllerConfig DaemonControllerConfig() {
  ControllerConfig config;
  config.upper_threshold = 0.80;
  config.lower_threshold = 0.60;
  config.tick_period_ns = kTickMs * 1000 * 1000;
  config.sustain_duration_ns = 2 * config.tick_period_ns;
  config.max_missed_samples = kMaxMissedSamples;
  return config;
}

// ---------------------------------------------------------------------------
// The open-loop generator.

struct Prediction {
  bool enable;
  std::int64_t due_ns;
  bool measured;  // due inside the measurement window
  bool required;  // due before the window closed: must be observed
};

struct Endpoint {
  explicit Endpoint(const ControllerConfig& config) : shadow(config) {}
  HysteresisController shadow;
  Rng rng{0};
  int half_period_ms = 100;
  int phase_ms = 0;
  double high = 0.9;
  double low = 0.4;
  std::uint64_t sequence = 0;
  std::uint32_t sample = 0;  // index of the next sample (1 per ms)
  bool reassert_seen = false;
  std::deque<Prediction> pending;
};

struct Connection {
  int fd = -1;
  std::vector<unsigned char> out;
  std::size_t out_head = 0;
  std::unique_ptr<FrameReassembler> reassembler;
  bool eof = false;
};

struct GeneratorResult {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_required = 0;  // due before the window closed
  std::uint64_t window_samples = 0;
  std::uint64_t predicted = 0;        // required predictions
  std::uint64_t missing = 0;          // required, never observed
  std::uint64_t late = 0;             // observed > 100 ms after due
  std::uint64_t wrong = 0;            // direction mismatch / unpredicted
  std::uint64_t reasserts = 0;
  std::size_t max_backlog_bytes = 0;
  // Backlog samples from the first and last quarter of the window.
  std::vector<double> backlog_first;
  std::vector<double> backlog_last;
  std::vector<double> toggle_us;      // measured toggle latencies
  // The same latencies split by the second of the window the tripping
  // frame was due in.
  std::vector<std::vector<double>> toggle_us_by_second;
  std::vector<double> lag_us;         // send time - due time, per frame
  std::vector<std::vector<double>> lag_us_by_second;
  std::vector<unsigned char> recorded;  // connection 0's bytes, for codecs
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  // Plane CPU time (ns) and window samples sent, read at the window's
  // start, each second and its end.
  std::vector<std::pair<std::int64_t, std::uint64_t>> cpu_probes;

  // Seconds of the window in which the generator kept to its schedule:
  // lag p99 within one plane tick. In the other seconds the host stalled
  // the generator, so the plane did not see the offered load.
  std::vector<bool> OnScheduleSeconds() const {
    std::vector<bool> on_schedule;
    for (const std::vector<double>& second : lag_us_by_second) {
      on_schedule.push_back(Percentile(second, 0.99) <= kTickMs * 1000.0);
    }
    return on_schedule;
  }

  // Toggle latency quantile q: the median, over the on-schedule seconds,
  // of each second's quantile. (A second holds thousands of toggles, so
  // its p99 has tens of samples beyond it.)
  double ToggleQuantileUs(double q) const {
    const std::vector<bool> on_schedule = OnScheduleSeconds();
    std::vector<double> per_second;
    for (std::size_t i = 0; i < toggle_us_by_second.size(); ++i) {
      if (i < on_schedule.size() && on_schedule[i] &&
          !toggle_us_by_second[i].empty()) {
        per_second.push_back(Percentile(toggle_us_by_second[i], q));
      }
    }
    return Percentile(per_second, 0.5);
  }

  // Accepted samples per plane CPU-second, one entry per on-schedule
  // second in [first, last).
  std::vector<double> SamplesPerCpuSecond(std::size_t first,
                                          std::size_t last) const {
    const std::vector<bool> on_schedule = OnScheduleSeconds();
    std::vector<double> rates;
    for (std::size_t i = first; i < last && i + 1 < cpu_probes.size(); ++i) {
      if (i >= on_schedule.size() || !on_schedule[i]) continue;
      const double cpu_s = static_cast<double>(cpu_probes[i + 1].first -
                                               cpu_probes[i].first) *
                           1e-9;
      const double samples = static_cast<double>(cpu_probes[i + 1].second -
                                                 cpu_probes[i].second);
      if (cpu_s > 0.0) rates.push_back(samples / cpu_s);
    }
    return rates;
  }
};

class Generator {
 public:
  Generator(int endpoints, std::uint64_t seed, bool record)
      : config_(DaemonControllerConfig()), record_(record) {
    Rng rng(seed);
    for (int i = 0; i < endpoints; ++i) {
      Endpoint ep(config_);
      ep.rng = rng.Fork(0x5100 + static_cast<std::uint64_t>(i));
      ep.half_period_ms = 50 + static_cast<int>(ep.rng.NextBounded(101));
      ep.phase_ms = static_cast<int>(
          ep.rng.NextBounded(static_cast<std::uint64_t>(2 * ep.half_period_ms)));
      ep.high = ep.rng.NextDouble(0.88, 0.98);
      ep.low = ep.rng.NextDouble(0.20, 0.50);
      endpoints_.push_back(std::move(ep));
    }
  }

  // Opens the connections, retrying while the listener comes up.
  bool Connect(const SocketAddress& address, double timeout_s) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    for (int c = 0; c < kConnections; ++c) {
      Connection conn;
      while ((conn.fd = ConnectSocket(address)) < 0) {
        if (NowNs() > deadline) return false;
        usleep(500);
      }
      if (!SetNonBlocking(conn.fd)) return false;
      FrameReassembler::Options ro;
      ro.magic = kActuationFrameMagic;
      ro.max_payload_bytes = kActuationFramePayloadBytes;
      ro.read_chunk_bytes = kReadChunk;
      conn.reassembler = std::make_unique<FrameReassembler>(ro);
      conns_.push_back(std::move(conn));
    }
    return true;
  }

  ~Generator() { Close(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void Close() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) close(conn.fd);
      conn.fd = -1;
    }
  }

  // Sends on schedule for warm-up + `seconds` + tail. `cpu_probe()`
  // returns the plane's CPU time so far; it is read when the
  // measurement window opens, every second inside it, and when it
  // closes. After the last send `stop()` (which must make the plane
  // exit) is called, and actuations are read until `finished()` or a
  // timeout.
  template <typename CpuProbeFn, typename StopFn, typename FinishedFn>
  GeneratorResult Run(double seconds, CpuProbeFn cpu_probe, StopFn stop,
                      FinishedFn finished) {
    GeneratorResult result;
    const std::int64_t period_ns =
        static_cast<std::int64_t>(kSamplesPerBatch) * 1000 * 1000;
    // Every buffer the loop appends to is sized up front: a reallocation
    // mid-run would stall the schedule by milliseconds.
    const double run_s = kWarmupS + seconds + kTailS;
    const std::size_t frames = static_cast<std::size_t>(
        run_s * 1e9 / static_cast<double>(period_ns) *
        static_cast<double>(endpoints_.size()) * 1.05);
    result.lag_us.reserve(frames);
    result.toggle_us.reserve(frames / 4);
    if (record_) result.recorded.reserve(kRecordBytes);
    for (Connection& conn : conns_) conn.out.reserve(1 << 20);
    const std::int64_t t0 = NowNs() + 1'000'000;
    result.window_start_ns = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
    result.window_end_ns =
        result.window_start_ns + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t window_seconds =
        static_cast<std::size_t>((result.window_end_ns -
                                  result.window_start_ns - 1) /
                                 1'000'000'000LL) +
        1;
    result.lag_us_by_second.resize(window_seconds);
    result.toggle_us_by_second.resize(window_seconds);
    for (std::size_t i = 0; i < window_seconds; ++i) {
      result.lag_us_by_second[i].reserve(frames / window_seconds);
      result.toggle_us_by_second[i].reserve(frames / 4 / window_seconds);
    }
    const std::int64_t send_end =
        result.window_end_ns + static_cast<std::int64_t>(kTailS * 1e9);
    const std::int64_t n = static_cast<std::int64_t>(endpoints_.size());
    std::int64_t next = 0;  // frame counter: endpoint next % n, round next / n
    auto due_of = [&](std::int64_t k) {
      return t0 + (k / n) * period_ns + (k % n) * period_ns / n;
    };
    bool sending = true;
    std::int64_t next_send = t0;
    std::int64_t next_probe = result.window_start_ns;
    std::int64_t stop_at = 0;
    bool stopped = false;
    std::int64_t give_up = 0;
    std::int64_t next_backlog_sample = t0;
    while (true) {
      const std::int64_t now = NowNs();
      if (now >= next_backlog_sample) {
        SampleBacklog(now, result);
        next_backlog_sample = now + kBacklogSampleNs;
      }
      if (next_probe > 0 && now >= next_probe) {
        result.cpu_probes.push_back({cpu_probe(), result.window_samples});
        next_probe = next_probe == result.window_end_ns ? 0
                     : std::min<std::int64_t>(next_probe + 1'000'000'000,
                                result.window_end_ns);
      }
      if (sending && now >= next_send) {
        next_send = now + kSendSlotNs;
        while (due_of(next) <= now) {
          const std::int64_t due = due_of(next);
          if (due >= send_end) {
            sending = false;
            // Give the plane up to kDrainNs (well inside the staleness
            // window) to read what is in flight, then stop it.
            stop_at = now + kDrainNs;
            break;
          }
          Endpoint& ep = endpoints_[static_cast<std::size_t>(next % n)];
          const int conn = static_cast<int>((next % n) % kConnections);
          EncodeFrame(static_cast<std::uint32_t>(next % n), ep, due,
                      conns_[static_cast<std::size_t>(conn)], result);
          if (due >= result.window_start_ns && due < result.window_end_ns) {
            const double lag = static_cast<double>(now - due) * 1e-3;
            result.lag_us.push_back(lag);
            result.lag_us_by_second[static_cast<std::size_t>(
                                        (due - result.window_start_ns) /
                                        1'000'000'000LL)]
                .push_back(lag);
            result.window_samples += kSamplesPerBatch;
          }
          ++next;
        }
      }
      if (!stopped) {
        for (int c = 0; c < kConnections; ++c) {
          Flush(conns_[static_cast<std::size_t>(c)], c, result);
        }
      }
      if (!sending && !stopped && (now >= stop_at || Backlog() == 0)) {
        stop();
        stopped = true;
        give_up = now + 5'000'000'000LL;
      }
      if (stopped && (finished() || now > give_up)) break;

      // While sending, poll for actuations without sleeping: on a shared
      // VM a sleeping vCPU can take milliseconds to wake, which would show
      // up as generator lag. Draining waits briefly.
      const std::int64_t wait_ns = sending ? 0 : 200'000;
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        const Connection& conn = conns_[static_cast<std::size_t>(c)];
        fds[c].fd = conn.eof ? -1 : conn.fd;
        fds[c].events = POLLIN;
        if (conn.out.size() > conn.out_head) fds[c].events |= POLLOUT;
        fds[c].revents = 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      if (ppoll(fds, kConnections, &ts, nullptr) > 0) {
        for (int c = 0; c < kConnections; ++c) {
          if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
            Read(conns_[static_cast<std::size_t>(c)], result);
          }
        }
      }
    }
    // Everything due before the window closed must have been observed.
    for (Endpoint& ep : endpoints_) {
      for (const Prediction& p : ep.pending) {
        if (p.required) ++result.missing;
      }
    }
    return result;
  }

 private:
  // Bytes sent but not yet read by the plane: the generator's own
  // buffers plus each socket's send queue.
  std::size_t Backlog() const {
    std::size_t bytes = 0;
    for (const Connection& conn : conns_) {
      int queued = 0;
      if (ioctl(conn.fd, SIOCOUTQ, &queued) == 0 && queued > 0) {
        bytes += static_cast<std::size_t>(queued);
      }
      bytes += conn.out.size() - conn.out_head;
    }
    return bytes;
  }

  void SampleBacklog(std::int64_t now, GeneratorResult& result) const {
    if (now < result.window_start_ns || now >= result.window_end_ns) return;
    const std::size_t bytes = Backlog();
    result.max_backlog_bytes = std::max(result.max_backlog_bytes, bytes);
    const std::int64_t quarter =
        (result.window_end_ns - result.window_start_ns) / 4;
    if (now < result.window_start_ns + quarter) {
      result.backlog_first.push_back(static_cast<double>(bytes));
    } else if (now >= result.window_end_ns - quarter) {
      result.backlog_last.push_back(static_cast<double>(bytes));
    }
  }

  static constexpr std::size_t kReadChunk = 4096;
  static constexpr std::size_t kRecordBytes = 8u << 20;

  void EncodeFrame(std::uint32_t id, Endpoint& ep, std::int64_t due,
                   Connection& conn, GeneratorResult& result) {
    TelemetryBatch batch;
    batch.endpoint_id = id;
    batch.sequence = ++ep.sequence;
    batch.base_tick = ep.sample;
    batch.num_samples = kSamplesPerBatch;
    for (std::uint32_t s = 0; s < kSamplesPerBatch; ++s) {
      const std::uint32_t k = ep.sample++;
      const bool high =
          ((static_cast<int>(k) + ep.phase_ms) / ep.half_period_ms) % 2 == 0;
      const double u =
          (high ? ep.high : ep.low) + ep.rng.NextDouble(-0.05, 0.05);
      batch.utilization[s] = u;
      const ControllerAction action = ep.shadow.Tick(u);
      if (action == ControllerAction::kNone) continue;
      Prediction p;
      p.enable = action == ControllerAction::kEnablePrefetchers;
      p.due_ns = due;
      p.measured = due >= result.window_start_ns && due < result.window_end_ns;
      p.required = due < result.window_end_ns;
      if (p.required) ++result.predicted;
      ep.pending.push_back(p);
    }
    const std::size_t old = conn.out.size();
    conn.out.resize(old + kMaxTelemetryFrameBytes);
    const std::size_t size = EncodeTelemetryBatch(batch, conn.out.data() + old);
    conn.out.resize(old + size);
    ++result.frames_sent;
    if (due < result.window_end_ns) ++result.frames_required;
  }

  void Flush(Connection& conn, int index, GeneratorResult& result) {
    while (conn.out_head < conn.out.size()) {
      const ssize_t sent = SendSome(conn.fd, conn.out.data() + conn.out_head,
                                    conn.out.size() - conn.out_head);
      if (sent <= 0) break;
      if (record_ && index == 0 &&
          result.recorded.size() + static_cast<std::size_t>(sent) <=
              kRecordBytes) {
        result.recorded.insert(result.recorded.end(),
                               conn.out.begin() + conn.out_head,
                               conn.out.begin() + conn.out_head + sent);
      }
      conn.out_head += static_cast<std::size_t>(sent);
    }
    if (conn.out_head == conn.out.size()) {
      conn.out.clear();
      conn.out_head = 0;
    }
  }

  void Read(Connection& conn, GeneratorResult& result) {
    unsigned char buffer[kReadChunk];
    for (;;) {
      const ssize_t got = ReadChunk(conn.fd, buffer, sizeof(buffer));
      if (got == 0) {
        conn.eof = true;
        return;
      }
      if (got < 0) return;
      const std::int64_t now = NowNs();
      conn.reassembler->Ingest(
          buffer, static_cast<std::size_t>(got),
          [&](const unsigned char* frame, std::size_t size) {
            ActuationCommandFrame command;
            if (DecodeActuationCommand(frame, size, &command) !=
                    ActuationDecodeStatus::kOk ||
                command.endpoint_id >= endpoints_.size()) {
              ++result.wrong;
              return;
            }
            Observe(endpoints_[command.endpoint_id], command.enable, now,
                    result);
          });
    }
  }

  void Observe(Endpoint& ep, bool enable, std::int64_t now,
               GeneratorResult& result) {
    if (!ep.reassert_seen) {
      // The listener re-asserts the plane's intent (on, for a fresh
      // daemon) when it first binds the endpoint to a connection.
      ep.reassert_seen = true;
      ++result.reasserts;
      if (!enable) ++result.wrong;
      return;
    }
    if (ep.pending.empty() || ep.pending.front().enable != enable) {
      ++result.wrong;
      return;
    }
    const Prediction p = ep.pending.front();
    ep.pending.pop_front();
    const std::int64_t latency = now - p.due_ns;
    if (latency > kLateNs) ++result.late;
    if (p.measured) {
      const double us = static_cast<double>(latency) * 1e-3;
      result.toggle_us.push_back(us);
      result.toggle_us_by_second[static_cast<std::size_t>(
                                     (p.due_ns - result.window_start_ns) /
                                     1'000'000'000LL)]
          .push_back(us);
    }
  }

  ControllerConfig config_;
  bool record_;
  std::vector<Endpoint> endpoints_;
  std::vector<Connection> conns_;
};

// ---------------------------------------------------------------------------
// The daemon as a child process.

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Kill(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool Spawn(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 2, 1);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0 && !exited_; }

  void Terminate() {
    if (running()) kill(pid_, SIGTERM);
  }

  // Non-blocking reap; true once the child has exited.
  bool Poll() {
    if (pid_ <= 0 || exited_) return true;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      exited_ = true;
      status_ = status;
    }
    return exited_;
  }

  // Waits up to timeout_s for exit; SIGKILLs after that.
  bool Wait(double timeout_s) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (!Poll()) {
      if (NowNs() > deadline) {
        Kill();
        return false;
      }
      usleep(1000);
    }
    return true;
  }

  bool ExitedCleanly() const {
    return exited_ && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

  // Peak RSS (VmHWM) of the running child, in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  // CPU time consumed by the child so far, in ns.
  std::int64_t CpuNs() const {
    std::ifstream sched("/proc/" + std::to_string(pid_) + "/schedstat");
    long long on_cpu_ns = -1;
    if (sched >> on_cpu_ns && on_cpu_ns >= 0) return on_cpu_ns;
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    const std::size_t close_paren = text.rfind(')');
    if (close_paren == std::string::npos) return 0;
    std::vector<std::string> fields;
    std::size_t pos = close_paren + 2;
    while (pos < text.size()) {
      const std::size_t end = text.find(' ', pos);
      fields.push_back(text.substr(pos, end - pos));
      if (end == std::string::npos) break;
      pos = end + 1;
    }
    if (fields.size() < 13) return 0;
    const double ticks = std::strtod(fields[11].c_str(), nullptr) +
                         std::strtod(fields[12].c_str(), nullptr);
    return static_cast<std::int64_t>(ticks * 1e9 /
                                     static_cast<double>(sysconf(_SC_CLK_TCK)));
  }

 private:
  void Kill() {
    if (!running()) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    exited_ = true;
    status_ = status;
  }

  pid_t pid_ = -1;
  bool exited_ = false;
  int status_ = 0;
};

// The daemon's end-of-run banner.
struct Banner {
  bool found = false;
  int reconverged = -1;
  int endpoints = -1;
  unsigned long long ingested = 0, shed = 0, rejected = 0, decoded = 0,
                     decode_failures = 0, sequence_rejects = 0, samples = 0,
                     failsafes = 0;
};

Banner ParseBanner(const std::string& log_path) {
  Banner banner;
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t at = line.find("reconverged ");
    if (at != std::string::npos) {
      std::sscanf(line.c_str() + at, "reconverged %d/%d endpoints",
                  &banner.reconverged, &banner.endpoints);
    }
    at = line.find("summary: ");
    if (at != std::string::npos) {
      unsigned long long ticks = 0;
      banner.found =
          std::sscanf(line.c_str() + at,
                      "summary: %llu ticks, %llu frames ingested (%llu shed, "
                      "%llu rejected), %llu decoded (%llu decode failures, "
                      "%llu sequence rejects), %llu samples, %llu "
                      "stale-endpoint fail-safes",
                      &ticks, &banner.ingested, &banner.shed, &banner.rejected,
                      &banner.decoded, &banner.decode_failures,
                      &banner.sequence_rejects, &banner.samples,
                      &banner.failsafes) == 9;
    }
  }
  return banner;
}

// ---------------------------------------------------------------------------
// The traced run: limoncellod's listen loop, in-process, with spans.

struct PlaneRun {
  std::atomic<bool> ready{false};
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  // Spans are recorded only once this is set: the first half of the
  // window runs untraced, as the reference for the tracing overhead.
  std::atomic<bool> trace_on{false};
  // Written by the plane thread, read after join.
  std::unique_ptr<Tracer> tracer;
  std::vector<std::pair<double, std::uint64_t>> queue_wait;  // (us, frames)
  std::uint64_t queue_depth_max = 0;
  ControlPlane::Stats stats;
  SocketListener::Stats wire;
  std::uint64_t journal_appends = 0;
  int reconverged = 0;
  std::int64_t trace_start_ns = 0;
  std::int64_t loop_end_ns = 0;
};

void PlaneLoop(const SocketAddress& address, int endpoints,
               const std::string& state_file, PlaneRun& run) {
  run.tracer = std::make_unique<Tracer>(true);
  Tracer& tracer = *run.tracer;
  tracer.Reserve(4u << 20);
  tracer.set_enabled(false);
  const ControllerConfig config = DaemonControllerConfig();
  ControlPlaneOptions options;
  options.num_endpoints = endpoints;
  options.num_shards = std::min(endpoints, 8);
  options.config = config;
  SocketListener::Options listener_options;
  listener_options.address = address;
  SocketListener listener(listener_options);
  ControlPlane plane(options, [&](std::uint32_t id, bool enable) {
    ScopedSpan span(tracer, "transport.send_actuation");
    return listener.SendActuation(id, enable);
  });
  listener.BindPlane(&plane);
  (void)RecoverEndpointStates(state_file, &plane);
  EndpointStateJournal::Options jo;
  jo.path = state_file;
  EndpointStateJournal journal(jo);
  if (!listener.Start()) {
    run.failed = true;
    run.done = true;
    return;
  }
  run.ready = true;

  const std::int64_t tick_ns = config.tick_period_ns;
  const std::int64_t started = NowNs();
  std::int64_t next_tick = started + tick_ns;
  std::vector<EndpointPersistentState> dirty;
  std::vector<std::pair<std::int64_t, std::uint64_t>> polls;  // (end, frames)
  std::uint64_t frames_seen = 0;
  auto now_ns = [started] {
    return static_cast<std::uint64_t>(NowNs() - started);
  };
  while (!run.stop.load(std::memory_order_acquire)) {
    if (!tracer.enabled() && run.trace_on.load(std::memory_order_acquire)) {
      tracer.set_enabled(true);
      run.trace_start_ns = NowNs();
    }
    const std::int64_t now = NowNs();
    int timeout_ms = 0;
    if (now < next_tick) {
      timeout_ms = static_cast<int>((next_tick - now) / 1000000 + 1);
    }
    int rc = 0;
    {
      ScopedSpan span(tracer, "transport.poll");
      rc = listener.PollOnce(timeout_ms, now_ns());
    }
    if (rc < 0) {
      run.failed = true;
      break;
    }
    const std::uint64_t frames = listener.SnapshotStats().frames_ingested;
    if (frames > frames_seen) polls.push_back({NowNs(), frames - frames_seen});
    frames_seen = frames;
    if (NowNs() >= next_tick) {
      const std::int64_t drain_start = NowNs();
      const BoundedControlQueue::Counters q = plane.SnapshotQueueCounters();
      const std::uint64_t pushed =
          q.telemetry_pushed.value() + q.commands_pushed.value();
      const std::uint64_t popped =
          q.telemetry_popped.value() + q.commands_popped.value();
      run.queue_depth_max =
          std::max(run.queue_depth_max, pushed > popped ? pushed - popped : 0);
      for (const auto& [end, count] : polls) {
        run.queue_wait.push_back(
            {static_cast<double>(drain_start - end) * 1e-3, count});
      }
      polls.clear();
      {
        ScopedSpan span(tracer, "control.drain");
        plane.DrainAll(now_ns());
      }
      {
        ScopedSpan span(tracer, "control.advance_tick");
        plane.AdvanceTick();
      }
      {
        ScopedSpan span(tracer, "recovery.journal_append");
        dirty.clear();
        plane.CollectDirtyEndpoints(&dirty);
        for (const EndpointPersistentState& record : dirty) {
          (void)journal.Append(record);
        }
      }
      next_tick += tick_ns;
      if (NowNs() > next_tick + 10 * tick_ns) next_tick = NowNs() + tick_ns;
    }
  }
  run.loop_end_ns = NowNs();
  plane.DrainAll(now_ns());
  (void)journal.WriteSnapshot(plane.ExportAllEndpoints());
  for (int i = 0; i < endpoints; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    const EndpointPersistentState state = plane.ExportEndpoint(id);
    const bool fresh =
        state.have_sequence &&
        plane.tick() - state.last_update_tick <=
            static_cast<std::uint64_t>(std::max(1, config.max_missed_samples));
    if (fresh && !plane.EndpointInFailsafe(id)) ++run.reconverged;
  }
  run.stats = plane.SnapshotStats();
  run.wire = listener.SnapshotStats();
  run.journal_appends = journal.stats().appends.value();
  listener.Stop();
  run.done = true;
}

double WeightedPercentile(std::vector<std::pair<double, std::uint64_t>> v,
                          double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  for (const auto& e : v) total += e.second;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (const auto& e : v) {
    seen += e.second;
    if (static_cast<double>(seen) >= target) return e.first;
  }
  return v.back().first;
}

// Per-frame cost of each decode stage, measured on its own over the
// recorded byte stream of one connection (median of 5 passes).
struct CodecCosts {
  double reassemble_ns = 0.0;
  double decode_ns = 0.0;
  double crc_ns = 0.0;
};

CodecCosts MeasureCodecs(const std::vector<unsigned char>& bytes) {
  CodecCosts costs;
  FrameReassembler::Options ro;
  ro.magic = kTelemetryBatchMagic;
  ro.max_payload_bytes = kMaxTelemetryFrameBytes - kTelemetryBatchHeaderBytes - 4;
  ro.read_chunk_bytes = 4096;
  std::vector<std::vector<unsigned char>> frames;
  std::vector<double> reassemble, decode, crc;
  for (int pass = 0; pass < 5; ++pass) {
    FrameReassembler reassembler(ro);
    std::uint64_t count = 0;
    const bool keep = frames.empty();
    const std::int64_t t0 = NowNs();
    for (std::size_t off = 0; off < bytes.size(); off += 4096) {
      count += reassembler.Ingest(
          bytes.data() + off, std::min<std::size_t>(4096, bytes.size() - off),
          [&](const unsigned char* frame, std::size_t size) {
            if (keep) frames.emplace_back(frame, frame + size);
          });
    }
    if (count == 0) return costs;
    reassemble.push_back(static_cast<double>(NowNs() - t0) /
                         static_cast<double>(count));
  }
  TelemetryBatch batch;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::int64_t t0 = NowNs();
    for (const auto& f : frames) {
      sink += static_cast<std::uint64_t>(
          DecodeTelemetryBatch(f.data(), f.size(), &batch));
    }
    decode.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(frames.size()));
    t0 = NowNs();
    for (const auto& f : frames) {
      // The CRC covers everything after the magic, up to the CRC itself.
      sink += Crc32(f.data() + 4, f.size() - 8);
    }
    crc.push_back(static_cast<double>(NowNs() - t0) /
                  static_cast<double>(frames.size()));
  }
  Consume(sink);
  costs.reassemble_ns = Percentile(reassemble, 0.5);
  costs.decode_ns = Percentile(decode, 0.5);
  costs.crc_ns = Percentile(crc, 0.5);
  return costs;
}

// Books the generator's failures: frames the plane did not accept,
// predicted toggles missing, late or wrong, and unpredicted actuations.
// Frames still in flight when the plane is stopped are not counted:
// only frames due before the window closed must have been accepted.
void BookFailures(const GeneratorResult& g, std::uint64_t frames_accepted,
                  std::uint64_t frames_refused, Report& report) {
  const std::uint64_t not_accepted =
      frames_refused + (g.frames_required > frames_accepted
                            ? g.frames_required - frames_accepted
                            : 0);
  report.attempted = g.frames_required + g.predicted;
  report.failed = not_accepted + g.missing + g.late + g.wrong;
  if (report.failed > 0) {
    report.Fail("control_wire: " + std::to_string(not_accepted) +
                " frame(s) not accepted, " + std::to_string(g.missing) +
                " toggle(s) missing, " + std::to_string(g.late) +
                " late, " + std::to_string(g.wrong) +
                " wrong or unpredicted actuation(s)");
  }
  if (g.reasserts == 0) report.Fail("control_wire: no bind-time re-assert seen");
}

// Run health. An attempt is invalid, not a measurement, when the host
// could not sustain the offered load: the generator fell more than one
// plane tick behind its schedule at p99 in most seconds of the window,
// the backlog of bytes the plane had not read grew over the window, or
// the plane's queues overflowed (shed or refused frames, after a
// stall). Returns why, or "" when the attempt is valid.
std::string Invalidity(const GeneratorResult& g, std::uint64_t overflowed) {
  const std::vector<bool> on_schedule = g.OnScheduleSeconds();
  const auto late_seconds = static_cast<std::size_t>(
      std::count(on_schedule.begin(), on_schedule.end(), false));
  std::fprintf(stderr,
               "control_wire: %llu frames, %zu toggles measured, generator "
               "lag p50 %.1f us p99 %.1f us (behind schedule in %zu of %zu "
               "s), max backlog %zu bytes\n",
               static_cast<unsigned long long>(g.frames_sent),
               g.toggle_us.size(), Percentile(g.lag_us, 0.5),
               Percentile(g.lag_us, 0.99), late_seconds, on_schedule.size(),
               g.max_backlog_bytes);
  if (2 * late_seconds > on_schedule.size()) {
    return "generator lag p99 exceeded one plane tick in " +
           std::to_string(late_seconds) + " of " +
           std::to_string(on_schedule.size()) + " seconds";
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double first = mean(g.backlog_first);
  const double last = mean(g.backlog_last);
  if (last > 2.0 * first + kBacklogGrowthBytes) {
    return "backlog grew from " + std::to_string(first) + " to " +
           std::to_string(last) + " bytes";
  }
  if (overflowed > 0) {
    return std::to_string(overflowed) + " frame(s) shed or refused by full "
           "queues";
  }
  return "";
}

// Decides what to do with a finished attempt: retry an invalid one while
// attempts remain (returns false), otherwise book it into `report`.
bool Conclude(const GeneratorResult& g, std::uint64_t frames_accepted,
              std::uint64_t frames_overflowed, std::uint64_t frames_rejected,
              int attempt, Report& report) {
  const std::string invalid = Invalidity(g, frames_overflowed);
  if (!invalid.empty() && attempt < kAttempts) {
    std::fprintf(stderr, "control_wire: attempt %d invalid (%s); retrying\n",
                 attempt, invalid.c_str());
    return false;
  }
  BookFailures(g, frames_accepted, frames_overflowed + frames_rejected,
               report);
  if (!invalid.empty()) report.Fail("run invalid: " + invalid);
  if (g.toggle_us.size() < 1000 &&
      g.window_end_ns - g.window_start_ns >= 5'000'000'000LL) {
    report.Fail("run measured only " + std::to_string(g.toggle_us.size()) +
                " toggles (needs 1000)");
  }
  return true;
}

std::string FreshPath(const Options& options, const char* what, int k) {
  const std::string path = options.run_dir + "/ctl-" +
                           std::to_string(getpid()) + "-" + std::to_string(k) +
                           what;
  unlink(path.c_str());
  return path;
}

void RunUntraced(const Options& options, int endpoints, Report& report) {
  if (options.daemon_path.empty()) {
    report.Fail("control_wire needs --daemon=<limoncellod>");
    return;
  }
  // Every start of a fresh daemon (state file included) until its
  // connections are up is a set-up; the first kSetups - 1 only set up.
  std::vector<double> setup_s;
  for (int k = 0;; ++k) {
    const int attempt = k - (kSetups - 1) + 1;
    const std::string sock = FreshPath(options, ".sock", k);
    const std::string state = FreshPath(options, ".state", k);
    const std::string log = FreshPath(options, ".log", k);
    const SocketAddress address = ParseSocketAddress(sock);
    const std::vector<std::string> args = {
        "--listen=" + sock, "--endpoints=" + std::to_string(endpoints),
        "--tick-ms=" + std::to_string(kTickMs), "--sustain-sec=0",
        "--max-missed-samples=" + std::to_string(kMaxMissedSamples),
        "--state-file=" + state};
    const std::int64_t t0 = NowNs();
    DaemonProcess daemon;
    Generator generator(endpoints, options.seed, false);
    if (!daemon.Spawn(options.daemon_path, args, log) ||
        !generator.Connect(address, 10.0)) {
      report.Fail("cannot start limoncellod or connect to " + sock);
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    auto clean_up = [&] {
      unlink(sock.c_str());
      unlink(state.c_str());
      unlink(log.c_str());
    };
    if (attempt < 1) {
      generator.Close();
      daemon.Terminate();
      daemon.Wait(10.0);
      clean_up();
      continue;
    }

    double rss_mb = 0.0;
    const GeneratorResult g = generator.Run(
        options.seconds, [&] { return daemon.CpuNs(); },
        [&] {
          rss_mb = daemon.PeakRssMb();
          daemon.Terminate();
        },
        [&] { return daemon.Poll(); });
    generator.Close();
    const bool clean_exit = daemon.Wait(10.0) && daemon.ExitedCleanly();
    const Banner banner = ParseBanner(log);
    clean_up();
    if (!Conclude(g, banner.decoded - banner.sequence_rejects,
                  banner.shed + banner.rejected,
                  banner.decode_failures + banner.sequence_rejects, attempt,
                  report)) {
      continue;
    }
    if (!clean_exit) report.Fail("limoncellod did not exit cleanly on SIGTERM");
    if (!banner.found || banner.reconverged != endpoints ||
        banner.endpoints != endpoints) {
      report.Fail("limoncellod did not print reconverged " +
                  std::to_string(endpoints) + "/" + std::to_string(endpoints) +
                  " endpoints");
    }
    report.Metric("setup_s", Percentile(setup_s, 0.5), "s");
    report.Metric("peak_rss_mb", rss_mb, "MB");
    report.Metric("work_per_s",
                  Percentile(g.SamplesPerCpuSecond(0, g.cpu_probes.size()),
                             0.5),
                  "1/s");
    report.Metric("op_p50_us", g.ToggleQuantileUs(0.5), "us");
    report.Metric("op_p90_us", g.ToggleQuantileUs(0.90), "us");
    return;
  }
}

void RunTraced(const Options& options, int endpoints, Report& report) {
  // CPU probes come once a second; tracing starts at the probe halfway
  // through the window.
  const int untraced_intervals = static_cast<int>(options.seconds) / 2;
  std::unique_ptr<PlaneRun> attempt_run;
  GeneratorResult g;
  for (int attempt = 1;; ++attempt) {
    const std::string sock = FreshPath(options, ".sock", attempt);
    const std::string state = FreshPath(options, ".state", attempt);
    const SocketAddress address = ParseSocketAddress(sock);
    attempt_run = std::make_unique<PlaneRun>();
    PlaneRun& run = *attempt_run;
    Generator generator(endpoints, options.seed, /*record=*/true);
    std::thread plane([&] { PlaneLoop(address, endpoints, state, run); });
    while (!run.ready && !run.done) usleep(200);
    if (run.failed || !generator.Connect(address, 10.0)) {
      run.stop = true;
      plane.join();
      report.Fail("in-process plane did not come up on " + sock);
      return;
    }
    clockid_t plane_clock{};
    pthread_getcpuclockid(plane.native_handle(), &plane_clock);
    int probes = 0;
    g = generator.Run(
        options.seconds,
        [&] {
          if (probes++ == untraced_intervals) run.trace_on = true;
          timespec ts{};
          clock_gettime(plane_clock, &ts);
          return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL +
                 ts.tv_nsec;
        },
        [&] { run.stop = true; }, [&] { return run.done.load(); });
    generator.Close();
    plane.join();
    unlink(sock.c_str());
    unlink(state.c_str());
    const ControlPlane::Stats& stats = run.stats;
    if (Conclude(g,
                 stats.frames_decoded.value() - stats.sequence_rejects.value(),
                 stats.frames_shed.value() + stats.frames_rejected.value(),
                 stats.decode_failures.value() +
                     stats.sequence_rejects.value(),
                 attempt, report)) {
      break;
    }
  }
  const PlaneRun& run = *attempt_run;
  const ControlPlane::Stats& stats = run.stats;
  if (run.reconverged != endpoints) {
    report.Fail("plane reconverged " + std::to_string(run.reconverged) + "/" +
                std::to_string(endpoints) + " endpoints");
  }

  Tracer& tracer = *run.tracer;
  tracer.WriteTsv(options.run_dir + "/spans-control_wire.tsv");
  const auto by_name = tracer.ByName();
  for (const char* name :
       {"transport.poll", "control.drain", "transport.send_actuation",
        "control.advance_tick", "recovery.journal_append"}) {
    const auto it = by_name.find(name);
    const SpanStats none;
    const SpanStats& span = it == by_name.end() ? none : it->second;
    report.Metric(std::string(name) + ".calls",
                  static_cast<double>(span.count), "count");
    report.Metric(std::string(name) + ".wall_s", span.wall_sum_ns * 1e-9, "s");
    report.Metric(std::string(name) + ".cpu_s", span.cpu_sum_ns * 1e-9, "s");
  }
  report.Metric("control.queue_wait_us.p50",
                WeightedPercentile(run.queue_wait, 0.5), "us");
  report.Metric("control.queue_wait_us.p99",
                WeightedPercentile(run.queue_wait, 0.99), "us");
  report.Metric("control.queue_depth_max",
                static_cast<double>(run.queue_depth_max), "count");
  const CodecCosts codecs = MeasureCodecs(g.recorded);
  report.Metric("transport.reassemble_ns_per_frame", codecs.reassemble_ns,
                "ns");
  report.Metric("control.decode_ns_per_frame", codecs.decode_ns, "ns");
  report.Metric("util.crc32_ns_per_frame", codecs.crc_ns, "ns");
  const auto count = [&report](const char* name, std::uint64_t value) {
    report.Metric(name, static_cast<double>(value), "count");
  };
  count("control.decode_failures", stats.decode_failures.value());
  count("control.sequence_rejects", stats.sequence_rejects.value());
  count("control.frames_shed", stats.frames_shed.value());
  count("control.backpressure_signals", stats.backpressure_signals.value());
  count("control.stale_endpoint_failsafes",
        stats.stale_endpoint_failsafes.value());
  count("transport.actuation_slow_consumer",
        run.wire.actuation_slow_consumer.value());
  count("transport.actuation_no_route", run.wire.actuation_no_route.value());
  count("transport.actuation_partial_flushes",
        run.wire.actuation_partial_flushes.value());
  count("recovery.journal_appends", run.journal_appends);
  report.Metric("bench.gen_lag_us.p50", Percentile(g.lag_us, 0.5), "us");
  report.Metric("bench.gen_lag_us.p99", Percentile(g.lag_us, 0.99), "us");
  const std::vector<bool> on_schedule = g.OnScheduleSeconds();
  count("bench.behind_schedule_s",
        std::count(on_schedule.begin(), on_schedule.end(), false));
  count("ctl.toggles", g.toggle_us.size());
  report.Metric("ctl.toggle_p50_us", g.ToggleQuantileUs(0.5), "us");
  report.Metric("ctl.toggle_p99_us", g.ToggleQuantileUs(0.99), "us");
  // Plane CPU per accepted sample, per probe interval: the untraced
  // first half is the metric, the traced second half gives the
  // tracing overhead.
  const auto split = static_cast<std::size_t>(untraced_intervals);
  const double untraced_rate =
      Percentile(g.SamplesPerCpuSecond(0, split), 0.5);
  const double traced_rate =
      Percentile(g.SamplesPerCpuSecond(split, g.cpu_probes.size()), 0.5);
  report.Metric("ctl.cpu_ns_per_sample",
                1e9 / (untraced_rate > 0.0 ? untraced_rate : traced_rate),
                "ns");
  report.Metric("ctl.failed_frac",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, report.attempted)),
                "fraction");
  report.TraceSummary(tracer,
                      static_cast<double>(run.loop_end_ns - run.trace_start_ns) *
                          1e-9);
  report.Metric("trace.overhead_frac",
                untraced_rate > 0.0 && traced_rate > 0.0
                    ? untraced_rate / traced_rate - 1.0
                    : 0.0,
                "fraction");
}

}  // namespace

void RunControlWire(const Options& options, Report& report) {
  const int endpoints = options.endpoints > 0 ? options.endpoints
                        : options.smoke     ? kSmokeEndpoints
                                            : kEndpoints;
  if (options.trace) {
    RunTraced(options, endpoints, report);
  } else {
    RunUntraced(options, endpoints, report);
  }
}

}  // namespace perfbench
