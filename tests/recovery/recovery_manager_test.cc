// RecoveryManager corruption fixtures: every flavour of damaged journal
// (torn final record, flipped CRC byte, truncated file, stale version,
// empty file, missing file, CRC-valid-but-impossible state) must degrade
// to a cold start — never a crash, never a daemon running invalid state —
// and the daemon must keep ticking afterwards. Also covers the journal
// cadence (actuation ticks + every Nth tick) and the startup reconcile.
#include "recovery/recovery_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/daemon.h"
#include "testing/legacy_v1.h"

namespace limoncello {
namespace {

using PersistentState = LimoncelloDaemon::PersistentState;

// Telemetry returning a scripted sequence, then a fallback forever.
class FakeTelemetry : public UtilizationSource {
 public:
  std::optional<double> SampleUtilization() override {
    if (next_ < script_.size()) return script_[next_++];
    return fallback_;
  }
  void Push(double sample) { script_.push_back(sample); }
  void set_fallback(std::optional<double> f) { fallback_ = f; }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
  std::optional<double> fallback_ = 0.7;
};

// Actuator with working readback, so reconcile outcomes are observable.
class ReadbackActuator : public PrefetchActuator {
 public:
  bool DisablePrefetchers() override {
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = false;
    return true;
  }
  bool EnablePrefetchers() override {
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = true;
    return true;
  }
  std::optional<bool> StateMatches(bool want_enabled) override {
    return enabled == want_enabled;
  }

  bool enabled = true;
  int fail_next = 0;
};

ControllerConfig FastConfig() {
  ControllerConfig config;
  config.upper_threshold = 0.8;
  config.lower_threshold = 0.6;
  config.sustain_duration_ns = 2 * kNsPerSec;
  config.tick_period_ns = kNsPerSec;
  config.max_missed_samples = 3;
  config.retry_backoff_cap_ticks = 1;
  return config;
}

std::string TempPath(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void StoreLe32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

std::vector<unsigned char> EncodeOne(const PersistentState& state) {
  std::vector<unsigned char> record(StateJournal::kRecordBytes);
  StateJournal::EncodeRecord(state, record.data());
  return record;
}

PersistentState DisabledSnapshot() {
  PersistentState state;
  state.controller_state = ControllerState::kDisabledSteady;
  state.toggle_count = 1;
  state.stats.ticks = 10;
  state.stats.disables = 1;
  return state;
}

// A cold start must leave the daemon fully operational: run a few quiet
// ticks and make sure the FSM is at power-on state and counting.
void ExpectDaemonStillTicks(LimoncelloDaemon* daemon) {
  const std::uint64_t before = daemon->stats().ticks;
  for (int i = 0; i < 3; ++i) {
    daemon->RunTick(static_cast<SimTimeNs>(i) * kNsPerSec);
  }
  EXPECT_EQ(daemon->stats().ticks, before + 3);
}

TEST(RecoveryManagerTest, MissingJournalIsAColdStart) {
  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = TempPath("missing.journal")},
                          &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_FALSE(result.rejected_state);
  EXPECT_FALSE(result.replay.file_found);
  EXPECT_EQ(result.reconcile, ReconcileStatus::kMatched);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, EmptyJournalIsAColdStart) {
  const std::string path = TempPath("empty.journal");
  WriteBytes(path, {});
  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_TRUE(result.replay.file_found);
  EXPECT_EQ(result.replay.valid_records, 0u);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, TornFinalRecordFallsBackToThePreviousOne) {
  const std::string path = TempPath("torn.journal");
  PersistentState good = DisabledSnapshot();
  PersistentState newer = DisabledSnapshot();
  newer.stats.ticks = 11;
  std::vector<unsigned char> bytes = EncodeOne(good);
  const std::vector<unsigned char> tail = EncodeOne(newer);
  bytes.insert(bytes.end(), tail.begin(), tail.begin() + 40);
  WriteBytes(path, bytes);

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  actuator.enabled = false;  // hardware still as the snapshot left it
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_TRUE(result.warm);
  EXPECT_EQ(result.replay.torn_records, 1u);
  EXPECT_EQ(daemon.stats().ticks, 10u);  // the older record won
  EXPECT_EQ(result.reconcile, ReconcileStatus::kMatched);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kDisabledSteady);
}

TEST(RecoveryManagerTest, CorruptCrcIsAColdStart) {
  const std::string path = TempPath("bad_crc.journal");
  std::vector<unsigned char> bytes = EncodeOne(DisabledSnapshot());
  bytes[StateJournal::kHeaderBytes + 7] ^= 0x40;
  WriteBytes(path, bytes);

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.replay.corrupt_records, 1u);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kEnabledSteady);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, TruncatedJournalIsAColdStart) {
  const std::string path = TempPath("truncated.journal");
  std::vector<unsigned char> bytes = EncodeOne(DisabledSnapshot());
  bytes.resize(StateJournal::kRecordBytes / 3);
  WriteBytes(path, bytes);

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.replay.torn_records, 1u);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, StaleVersionIsAColdStart) {
  const std::string path = TempPath("stale_version.journal");
  std::vector<unsigned char> bytes = EncodeOne(DisabledSnapshot());
  StoreLe32(&bytes[4], StateJournal::kVersion + 7);
  StoreLe32(&bytes[StateJournal::kHeaderBytes + StateJournal::kPayloadBytes],
            Crc32(bytes.data() + 4, 8 + StateJournal::kPayloadBytes));
  WriteBytes(path, bytes);

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.replay.version_mismatches, 1u);
  EXPECT_EQ(result.replay.valid_records, 0u);
  ExpectDaemonStillTicks(&daemon);
}

// A journal a version-1 binary wrote (IEEE CRC-32): its first record
// stops the scan as a version mismatch, and the daemon cold-starts.
TEST(RecoveryManagerTest, Version1JournalIsAColdStart) {
  const std::string path = TempPath("version1.journal");
  std::vector<unsigned char> bytes;
  for (int i = 0; i < 3; ++i) {
    std::vector<unsigned char> record = EncodeOne(DisabledSnapshot());
    RewriteAsVersion1(record.data(), record.size());
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  WriteBytes(path, bytes);

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_TRUE(result.replay.file_found);
  EXPECT_EQ(result.replay.version_mismatches, 1u);
  EXPECT_EQ(result.replay.corrupt_records, 0u);
  EXPECT_EQ(result.replay.valid_records, 0u);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kEnabledSteady);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, CrcValidButImpossibleStateIsRejected) {
  // The CRC only proves the bytes survived the disk; the values can still
  // violate the daemon's invariants (here: a backoff delay beyond the
  // config cap of 1). The daemon must refuse the record, not run it.
  const std::string path = TempPath("impossible_state.journal");
  PersistentState state = DisabledSnapshot();
  state.pending_retry = ControllerAction::kDisablePrefetchers;
  state.retry_delay_ticks = 5;
  WriteBytes(path, EncodeOne(state));

  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_TRUE(result.rejected_state);
  EXPECT_TRUE(result.replay.Clean());
  EXPECT_EQ(daemon.stats().warm_restores, 0u);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kEnabledSteady);
  ExpectDaemonStillTicks(&daemon);
}

TEST(RecoveryManagerTest, ColdStartStillReconcilesTheHardware) {
  // A predecessor disabled the prefetchers and died losing its journal:
  // the fresh daemon's power-on intent (enabled) must win.
  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  actuator.enabled = false;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = TempPath("lost.journal")}, &daemon);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_FALSE(result.warm);
  EXPECT_EQ(result.reconcile, ReconcileStatus::kReasserted);
  EXPECT_TRUE(actuator.enabled);
  EXPECT_EQ(daemon.stats().recovery_reconciles, 1u);
}

TEST(RecoveryManagerTest, OnTickCompleteJournalsActuationsAndPeriod) {
  const std::string path = TempPath("cadence.journal");
  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path, .snapshot_period_ticks = 4},
                          &daemon);

  // Eight quiet ticks between the thresholds: only ticks 4 and 8 journal.
  for (int i = 0; i < 8; ++i) {
    manager.OnTickComplete(daemon.RunTick(static_cast<SimTimeNs>(i)));
  }
  EXPECT_EQ(manager.journal().stats().appends, 2u);

  // A sustained burst actuates on its second tick (off-period): the
  // actuation itself must be journaled immediately.
  telemetry.Push(0.9);
  telemetry.Push(0.9);
  manager.OnTickComplete(daemon.RunTick(8 * kNsPerSec));
  manager.OnTickComplete(daemon.RunTick(9 * kNsPerSec));
  EXPECT_FALSE(actuator.enabled);
  EXPECT_EQ(manager.journal().stats().appends, 3u);

  const JournalReplay replay = StateJournal::Replay(path);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->controller_state,
            ControllerState::kDisabledSteady);
  EXPECT_EQ(replay.state->stats.ticks, 10u);
}

TEST(RecoveryManagerTest, FlushSnapshotCompactsToOneRecord) {
  const std::string path = TempPath("flush.journal");
  FakeTelemetry telemetry;
  ReadbackActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path, .snapshot_period_ticks = 1},
                          &daemon);
  for (int i = 0; i < 6; ++i) {
    manager.OnTickComplete(daemon.RunTick(static_cast<SimTimeNs>(i)));
  }
  EXPECT_TRUE(manager.FlushSnapshot());
  EXPECT_EQ(std::filesystem::file_size(path), StateJournal::kRecordBytes);
  const JournalReplay replay = StateJournal::Replay(path);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 6u);
}

}  // namespace
}  // namespace limoncello
