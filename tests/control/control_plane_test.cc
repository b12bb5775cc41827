// ControlPlane semantics: routing, sequence rejection, staleness
// fail-safe, actuation retry, force commands, warm restart, and the
// bit-identical-across-thread-counts drain contract.
#include "control/control_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "control/telemetry_batch.h"
#include "core/daemon.h"
#include "core/hysteresis_controller.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace limoncello {
namespace {

// Tick-scaled config: one sample == one plane tick == 1 ms; two sustained
// samples beyond a threshold toggle the FSM. Keeps tests short.
ControllerConfig FastConfig() {
  ControllerConfig config;
  config.tick_period_ns = 1'000'000;
  config.sustain_duration_ns = 2'000'000;
  config.max_missed_samples = 5;
  config.retry_backoff_cap_ticks = 8;
  return config;
}

ControlPlaneOptions SmallPlane(int endpoints, int shards = 4) {
  ControlPlaneOptions options;
  options.num_endpoints = endpoints;
  options.num_shards = shards;
  options.config = FastConfig();
  return options;
}

// Records every actuation; programmable to fail per endpoint. The plane
// calls the hook concurrently for endpoints in different shards (parallel
// DrainShard), so the shared call log is appended under a lock and the
// per-endpoint flags are whole bytes: a std::vector<bool> packs
// neighbouring endpoints into one word, and writing two of its bits from
// two threads is a data race.
struct FakeFleet {
  struct Call {
    std::uint32_t endpoint_id;
    bool enable;
  };
  Mutex calls_mu;
  std::vector<Call> calls;  // appended under calls_mu
  std::vector<unsigned char> enabled;
  std::vector<unsigned char> faulty;

  explicit FakeFleet(int endpoints)
      : enabled(static_cast<std::size_t>(endpoints), true),
        faulty(static_cast<std::size_t>(endpoints), false) {}

  ControlPlane::ActuateFn Hook() {
    return [this](std::uint32_t id, bool enable) {
      {
        MutexLock lock(&calls_mu);
        calls.push_back({id, enable});
      }
      if (faulty[id]) return false;
      enabled[id] = enable;
      return true;
    };
  }
};

// Sends one batch of identical samples and drains it.
PushResult SendBatch(ControlPlane& plane, std::uint32_t endpoint_id,
                     std::uint64_t sequence, double utilization,
                     std::uint32_t num_samples = 1,
                     std::uint64_t enqueue_ns = 0) {
  TelemetryBatch batch;
  batch.endpoint_id = endpoint_id;
  batch.sequence = sequence;
  batch.num_samples = num_samples;
  for (std::uint32_t i = 0; i < num_samples; ++i) {
    batch.utilization[i] = utilization;
  }
  unsigned char frame[kMaxTelemetryFrameBytes];
  const std::size_t size = EncodeTelemetryBatch(batch, frame);
  return plane.IngestFrame(frame, size, enqueue_ns);
}

TEST(ControlPlaneTest, HighUtilizationDisablesLowReenables) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  ASSERT_TRUE(plane.EndpointIntentEnabled(0));

  // sustain = 2 ticks: 3 high samples arm + fire the disable.
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().disables, 1u);

  SendBatch(plane, 0, 2, 0.30, 3);
  plane.DrainAll(0);
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().enables, 1u);
}

TEST(ControlPlaneTest, EndpointsAreIndependent) {
  FakeFleet fleet(16);
  ControlPlane plane(SmallPlane(16), fleet.Hook());
  // Only endpoint 5 sees high utilization.
  for (std::uint32_t e = 0; e < 16; ++e) {
    SendBatch(plane, e, 1, e == 5 ? 0.95 : 0.40, 3);
  }
  plane.DrainAll(0);
  for (std::uint32_t e = 0; e < 16; ++e) {
    EXPECT_EQ(plane.EndpointIntentEnabled(e), e != 5) << e;
  }
}

TEST(ControlPlaneTest, SequenceRegressionsRejected) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  EXPECT_EQ(SendBatch(plane, 0, 5, 0.5), PushResult::kOk);
  plane.DrainAll(0);
  ASSERT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // Duplicate (same sequence) and stale (lower sequence) replays are
  // dropped at the plane, not double-applied.
  SendBatch(plane, 0, 5, 0.5);
  SendBatch(plane, 0, 3, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 1u);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 2u);

  // Progress resumes on the next fresh sequence; gaps are fine (frames
  // may legitimately be lost in transport).
  SendBatch(plane, 0, 9, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 2u);
}

TEST(ControlPlaneTest, GarbageAndForeignFramesCounted) {
  FakeFleet fleet(2);
  ControlPlane plane(SmallPlane(2), fleet.Hook());
  unsigned char junk[32] = {0xDE, 0xAD};
  plane.IngestFrame(junk, sizeof(junk), 0);
  // Valid frame for an endpoint this plane does not manage.
  SendBatch(plane, 77, 1, 0.5);
  plane.DrainAll(0);
  const ControlPlane::Stats stats = plane.SnapshotStats();
  EXPECT_EQ(stats.decode_failures, 1u);
  EXPECT_EQ(stats.unknown_endpoints, 1u);
  EXPECT_EQ(stats.samples_accepted, 0u);
}

TEST(ControlPlaneTest, StaleEndpointFailsSafeToPrefetchersOn) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  // Drive the endpoint into the disabled state...
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  plane.AdvanceTick();
  ASSERT_FALSE(plane.EndpointIntentEnabled(0));

  // ...then go silent past max_missed_samples ticks: the fail-safe
  // forces prefetchers back ON and resets the FSM.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(plane.EndpointInFailsafe(0)) << i;
    plane.AdvanceTick();
  }
  EXPECT_TRUE(plane.EndpointInFailsafe(0));
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.EndpointControllerState(0),
            ControllerState::kEnabledSteady);
  EXPECT_EQ(plane.SnapshotStats().stale_endpoint_failsafes, 1u);

  // Telemetry resuming clears the fail-safe.
  SendBatch(plane, 0, 2, 0.40);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
}

TEST(ControlPlaneTest, StalenessFailsafeForgetsSequenceWatermark) {
  // A restarted exporter process numbers its frames from 1 again. Until
  // the staleness window expires, those frames look like replays of
  // long-consumed sequences and are rejected; the fail-safe must reset
  // the watermark along with the FSM or the endpoint is rejected
  // forever — reconvergence would be unbounded.
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  SendBatch(plane, 0, 900, 0.5);
  plane.DrainAll(0);
  ASSERT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // The exporter dies and restarts: its fresh stream is rejected while
  // the plane still holds the old watermark...
  SendBatch(plane, 0, 1, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 1u);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // ...and rejected frames do not count as liveness, so the staleness
  // sweep fires within max_missed_samples ticks and forgets the
  // watermark.
  for (int i = 0; i < 6; ++i) {
    SendBatch(plane, 0, static_cast<std::uint64_t>(2 + i), 0.5);
    plane.DrainAll(0);
    plane.AdvanceTick();
  }
  EXPECT_EQ(plane.SnapshotStats().stale_endpoint_failsafes, 1u);

  // The restarted stream is now adopted: its next frame is accepted and
  // clears the fail-safe. Bounded reconvergence.
  SendBatch(plane, 0, 10, 0.5);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
  EXPECT_GE(plane.SnapshotStats().samples_accepted, 2u);
}

TEST(ControlPlaneTest, ActuationFailureRetriesWithCappedBackoff) {
  FakeFleet fleet(1);
  fleet.faulty[0] = true;
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  // Intent committed, hardware unchanged.
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  ASSERT_EQ(plane.SnapshotStats().actuation_failures, 1u);
  const std::size_t calls_after_first = fleet.calls.size();

  // Backoff doubles per failed retry: waits of 1, 2, 4... ticks. Feed
  // fresh telemetry each tick so the staleness fail-safe stays out of
  // the picture (utilization mid-band: no new FSM action).
  std::uint64_t sequence = 2;
  auto run_ticks = [&](int n) {
    for (int i = 0; i < n; ++i) {
      SendBatch(plane, 0, sequence++, 0.70);
      plane.DrainAll(0);
      plane.AdvanceTick();
    }
  };
  run_ticks(1);  // wait 1 -> retry #1 fires (fails)
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 1);
  run_ticks(2);  // wait 2 -> retry #2
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 2);
  run_ticks(4);  // wait 4 -> retry #3
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 3);

  // Repair the actuator: the next retry lands the disable.
  fleet.faulty[0] = false;
  run_ticks(8);
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_GE(plane.SnapshotStats().retry_backoff_skips, 1u);
}

TEST(ControlPlaneTest, ForceCommandsPinAndRelease) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  ControlCommand force;
  force.endpoint_id = 0;
  force.kind = CommandKind::kForceDisable;
  plane.SubmitCommand(force, 0);
  plane.DrainAll(0);
  EXPECT_TRUE(plane.EndpointForced(0));
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_FALSE(fleet.enabled[0]);

  // Telemetry keeps ticking the FSM but cannot actuate a pinned
  // endpoint: low utilization would re-enable, the pin holds.
  SendBatch(plane, 0, 1, 0.30, 3);
  plane.DrainAll(0);
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));

  // A pinned endpoint is exempt from the staleness fail-safe: the
  // operator's decision is not starved of data, it overrides data.
  for (int i = 0; i < 10; ++i) plane.AdvanceTick();
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
  EXPECT_FALSE(fleet.enabled[0]);

  // kClearForce hands control back to the FSM (which, having seen low
  // utilization, wants prefetchers on).
  force.kind = CommandKind::kClearForce;
  plane.SubmitCommand(force, 0);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointForced(0));
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().commands_applied, 2u);
}

TEST(ControlPlaneTest, ShardingIsDeterministicAndInRange) {
  ControlPlaneOptions options = SmallPlane(1000, 8);
  FakeFleet fleet(1000);
  ControlPlane plane(options, fleet.Hook());
  ControlPlane plane2(options, fleet.Hook());
  std::vector<int> per_shard(8, 0);
  for (std::uint32_t e = 0; e < 1000; ++e) {
    const int shard = plane.ShardOf(e);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, plane2.ShardOf(e));
    ++per_shard[static_cast<std::size_t>(shard)];
  }
  // The multiplicative hash spreads endpoints roughly evenly: no shard
  // is empty or holds more than a third of the fleet.
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(per_shard[static_cast<std::size_t>(shard)], 0) << shard;
    EXPECT_LT(per_shard[static_cast<std::size_t>(shard)], 334) << shard;
  }
}

TEST(ControlPlaneTest, DrainsAreBitIdenticalAcrossThreadCounts) {
  // Same frame stream, serial canonical pushes; drain with 1 vs 4
  // threads; every counter and every endpoint's final state must match.
  auto run = [](int threads) {
    FakeFleet fleet(64);
    ControlPlane plane(SmallPlane(64, 8), fleet.Hook());
    ThreadPool pool(threads);
    std::uint64_t sequence = 1;
    for (int round = 0; round < 50; ++round) {
      for (std::uint32_t e = 0; e < 64; ++e) {
        const double util = ((round + e) % 7 < 3) ? 0.95 : 0.30;
        SendBatch(plane, e, sequence, util, 2);
      }
      ++sequence;
      pool.ParallelFor(0, plane.num_shards(), [&plane](std::int64_t shard) {
        plane.DrainShard(static_cast<int>(shard), 0);
      });
      plane.AdvanceTick();
    }
    struct Outcome {
      ControlPlane::Stats stats;
      std::vector<EndpointPersistentState> states;
    };
    return Outcome{plane.SnapshotStats(), plane.ExportAllEndpoints()};
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_TRUE(serial.stats == parallel.stats);
  EXPECT_TRUE(serial.states == parallel.states);
  EXPECT_GT(serial.stats.disables.value(), 0u);
}

TEST(ControlPlaneTest, WarmRestartRestoresAndReassertsIntent) {
  FakeFleet fleet(8);
  std::vector<EndpointPersistentState> journal;
  {
    ControlPlane plane(SmallPlane(8), fleet.Hook());
    SendBatch(plane, 3, 1, 0.95, 3);  // endpoint 3 -> disabled
    ControlCommand force;
    force.endpoint_id = 6;
    force.kind = CommandKind::kForceDisable;
    plane.SubmitCommand(force, 0);
    plane.DrainAll(0);
    journal = plane.ExportAllEndpoints();
  }
  ASSERT_EQ(journal.size(), 8u);
  EXPECT_FALSE(journal[3].intent_enabled);
  EXPECT_TRUE(journal[6].force_active);

  // Hardware rebooted to BIOS default (all on) while the plane was down.
  fleet.enabled.assign(8, true);
  fleet.calls.clear();
  ControlPlane plane(SmallPlane(8), fleet.Hook());
  EXPECT_EQ(plane.RestoreEndpoints(journal), 8);
  // The journal's intent wins over the hardware: 3 and 6 re-disabled.
  EXPECT_FALSE(fleet.enabled[3]);
  EXPECT_FALSE(fleet.enabled[6]);
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_FALSE(plane.EndpointIntentEnabled(3));
  EXPECT_TRUE(plane.EndpointForced(6));
  EXPECT_EQ(plane.SnapshotStats().warm_restores, 8u);
  // Sequence tracking survives: the pre-crash sequence is still rejected.
  SendBatch(plane, 3, 1, 0.40);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 1u);
}

TEST(ControlPlaneTest, CorruptJournalRecordsColdStartTheirEndpoint) {
  FakeFleet fleet(4);
  ControlPlane plane(SmallPlane(4), fleet.Hook());
  std::vector<EndpointPersistentState> journal(3);
  journal[0].endpoint_id = 1;
  journal[0].intent_enabled = false;
  journal[1].endpoint_id = 99;  // out of range
  journal[2].endpoint_id = 2;   // inconsistent force pin
  journal[2].force_active = true;
  journal[2].force_enabled = true;
  journal[2].intent_enabled = false;
  EXPECT_EQ(plane.RestoreEndpoints(journal), 1);
  EXPECT_FALSE(plane.EndpointIntentEnabled(1));
  EXPECT_TRUE(plane.EndpointIntentEnabled(2));   // cold start
  EXPECT_FALSE(plane.EndpointForced(2));
}

TEST(ControlPlaneTest, CollectDirtyEndpointsTracksCommittedChanges) {
  FakeFleet fleet(8);
  ControlPlane plane(SmallPlane(8), fleet.Hook());
  std::vector<EndpointPersistentState> dirty;
  plane.CollectDirtyEndpoints(&dirty);
  EXPECT_TRUE(dirty.empty());

  SendBatch(plane, 2, 1, 0.95, 3);  // toggles endpoint 2
  SendBatch(plane, 5, 1, 0.40, 3);  // no toggle, but sequence moved
  plane.DrainAll(0);
  plane.CollectDirtyEndpoints(&dirty);
  ASSERT_FALSE(dirty.empty());
  bool saw2 = false;
  for (const EndpointPersistentState& s : dirty) {
    if (s.endpoint_id == 2) {
      saw2 = true;
      EXPECT_FALSE(s.intent_enabled);
    }
  }
  EXPECT_TRUE(saw2);

  // Marks are cleared by collection.
  dirty.clear();
  plane.CollectDirtyEndpoints(&dirty);
  EXPECT_TRUE(dirty.empty());
}

// Collection walks shard by shard; the records still come out by id,
// appended after whatever the caller's vector already holds, and equal
// to what ExportEndpoint reports.
TEST(ControlPlaneTest, CollectDirtyEndpointsAppendsInIdOrderAcrossShards) {
  FakeFleet fleet(64);
  ControlPlane plane(SmallPlane(64), fleet.Hook());
  const std::vector<std::uint32_t> touched = {60, 3, 17, 42, 8, 33, 9};
  for (const std::uint32_t id : touched) {
    ControlCommand force;
    force.endpoint_id = id;
    force.kind = CommandKind::kForceDisable;
    plane.SubmitCommand(force, 0);
  }
  plane.DrainAll(0);

  std::vector<EndpointPersistentState> out(1);
  out[0].endpoint_id = 999;  // the caller's earlier content stays first
  plane.CollectDirtyEndpoints(&out);
  std::vector<std::uint32_t> want = touched;
  std::sort(want.begin(), want.end());
  ASSERT_EQ(out.size(), want.size() + 1);
  EXPECT_EQ(out[0].endpoint_id, 999u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i + 1].endpoint_id, want[i]);
    EXPECT_TRUE(out[i + 1].force_active);
    EXPECT_EQ(out[i + 1], plane.ExportEndpoint(want[i]));
  }
  out.clear();
  plane.CollectDirtyEndpoints(&out);
  EXPECT_TRUE(out.empty());
}

// The single-endpoint plane must make exactly the decisions a bare
// HysteresisController makes on the same sample stream — the
// contract behind `limoncellod --endpoints=1` staying bit-identical
// to the pre-control-plane daemon path.
TEST(ControlPlaneTest, SingleEndpointMatchesBareController) {
  const ControllerConfig config = FastConfig();
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  HysteresisController reference(config);

  std::uint64_t sequence = 1;
  Rng rng(11);
  for (int tick = 0; tick < 400; ++tick) {
    const double util = rng.NextDouble();
    reference.Tick(util);
    SendBatch(plane, 0, sequence++, util);
    plane.DrainAll(0);
    plane.AdvanceTick();
    ASSERT_EQ(plane.EndpointControllerState(0), reference.state()) << tick;
    ASSERT_EQ(plane.EndpointIntentEnabled(0),
              reference.PrefetchersShouldBeEnabled())
        << tick;
  }
  const EndpointPersistentState exported = plane.ExportEndpoint(0);
  EXPECT_EQ(exported.toggle_count, reference.toggle_count());
  EXPECT_EQ(exported.timer_ns, reference.timer_ns());

  // The same contract for the single-socket daemon, on a stream with
  // silent stretches and a window in which every write fails: the daemon
  // and a 1-endpoint plane must make the same writes on the same ticks
  // and fail safe on the same ticks, and both must follow a bare FSM that
  // is reset wherever the fail-safe fires (once per silence episode).
  struct Write {
    int tick;
    bool enable;
    bool operator==(const Write&) const = default;
  };
  constexpr int kStreamTicks = 600;
  const auto silent = [](int t) {
    return (t >= 100 && t < 104) || (t >= 150 && t < 175) ||
           (t >= 230 && t < 240) || (t >= 400 && t < 408);
  };
  const auto failing = [](int t) { return t >= 200 && t < 270; };

  // Writes are stamped with the tick they belong to. The daemon's stamp
  // moves on when it reads the tick's sample, so the retries opening its
  // tick t + 1 carry t, as do the plane's, which AdvanceTick makes
  // before its tick counter moves on.
  struct StreamSource : UtilizationSource {
    std::optional<double> next;
    int tick = 0;
    int* stamp = nullptr;
    std::optional<double> SampleUtilization() override {
      *stamp = tick;
      return next;
    }
  };
  struct RecordingActuator : PrefetchActuator {
    std::function<bool(bool)> write;
    bool DisablePrefetchers() override { return write(false); }
    bool EnablePrefetchers() override { return write(true); }
  };
  int daemon_stamp = 0;
  std::vector<Write> daemon_writes;
  StreamSource source;
  source.stamp = &daemon_stamp;
  RecordingActuator actuator;
  actuator.write = [&](bool enable) {
    daemon_writes.push_back({daemon_stamp, enable});
    return !failing(daemon_stamp);
  };
  LimoncelloDaemon daemon(config, &source, &actuator);

  const ControlPlane* stream_plane = nullptr;
  std::vector<Write> plane_writes;
  ControlPlane single(SmallPlane(1), [&](std::uint32_t, bool enable) {
    const int t = static_cast<int>(stream_plane->tick());
    plane_writes.push_back({t, enable});
    return !failing(t);
  });
  stream_plane = &single;

  HysteresisController bare(config);
  int bare_silent_run = 0;
  std::vector<int> daemon_failsafes;
  std::vector<int> plane_failsafes;
  std::uint64_t stream_sequence = 1;
  Rng stream_rng(23);
  for (int t = 0; t < kStreamTicks; ++t) {
    const double util = stream_rng.NextDouble();
    const bool quiet = silent(t);
    if (quiet) {
      if (++bare_silent_run == config.max_missed_samples) bare.Reset();
    } else {
      bare_silent_run = 0;
      bare.Tick(util);
    }

    source.next = quiet ? std::nullopt : std::optional<double>(util);
    source.tick = t;
    const std::uint64_t daemon_resets = daemon.stats().failsafe_resets;
    daemon.RunTick(static_cast<SimTimeNs>(t) * config.tick_period_ns);
    if (daemon.stats().failsafe_resets > daemon_resets) {
      daemon_failsafes.push_back(t);
    }

    const std::uint64_t plane_resets =
        single.SnapshotStats().stale_endpoint_failsafes;
    if (!quiet) SendBatch(single, 0, stream_sequence++, util);
    single.DrainAll(0);
    single.AdvanceTick();
    if (single.SnapshotStats().stale_endpoint_failsafes > plane_resets) {
      plane_failsafes.push_back(t);
    }

    ASSERT_EQ(daemon.controller().state(), bare.state()) << t;
    ASSERT_EQ(single.EndpointControllerState(0), bare.state()) << t;
    ASSERT_EQ(daemon.controller().PrefetchersShouldBeEnabled(),
              bare.PrefetchersShouldBeEnabled())
        << t;
    ASSERT_EQ(single.EndpointIntentEnabled(0),
              bare.PrefetchersShouldBeEnabled())
        << t;
  }
  // The plane's last AdvanceTick also opened the next tick; let the
  // daemon open it too (on a silent tick, so its FSM stays put).
  source.tick = kStreamTicks;
  source.next = std::nullopt;
  daemon.RunTick(static_cast<SimTimeNs>(kStreamTicks) * config.tick_period_ns);
  std::erase_if(daemon_writes,
                [](const Write& w) { return w.tick >= kStreamTicks; });
  EXPECT_TRUE(daemon_writes == plane_writes);
  EXPECT_EQ(daemon_failsafes, plane_failsafes);
  EXPECT_EQ(daemon_failsafes, (std::vector<int>{154, 234, 404}));

  const LimoncelloDaemon::Stats& ds = daemon.stats();
  const ControlPlane::Stats ps = single.SnapshotStats();
  EXPECT_GT(ds.actuation_failures, 0u);
  EXPECT_GT(ds.retry_backoff_skips, 0u);
  EXPECT_EQ(ds.actuation_failures, ps.actuation_failures);
  EXPECT_EQ(ds.retry_backoff_skips, ps.retry_backoff_skips);
  EXPECT_EQ(ds.enables, ps.enables);
  EXPECT_EQ(ds.disables, ps.disables);
  EXPECT_EQ(daemon.controller().toggle_count(), bare.toggle_count());
  EXPECT_EQ(single.ExportEndpoint(0).toggle_count, bare.toggle_count());
}

TEST(ControlPlaneTest, LatencyHistogramRecordsAndQuantiles) {
  IngestLatencyHistogram histogram;
  EXPECT_EQ(histogram.ApproxQuantileNs(0.99), 0u);
  for (int i = 0; i < 90; ++i) histogram.Record(1000);  // bucket [512,1024)
  for (int i = 0; i < 10; ++i) histogram.Record(1'000'000);
  EXPECT_EQ(histogram.count(), 100u);
  // p50 lands in 1000's bucket, p99 in the slow tail's.
  EXPECT_LT(histogram.ApproxQuantileNs(0.50), 2048u);
  EXPECT_GT(histogram.ApproxQuantileNs(0.99), 500'000u);

  IngestLatencyHistogram other;
  other.Record(1000);
  histogram.Merge(other);
  EXPECT_EQ(histogram.count(), 101u);
}

}  // namespace
}  // namespace limoncello
