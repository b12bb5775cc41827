#include "core/daemon.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

namespace limoncello {

namespace {

// Utilization is a fraction of the saturation threshold; sockets can
// burst past 1.0, but an order of magnitude beyond is telemetry garbage
// (matches FileUtilizationSource's accepted range).
constexpr double kMaxPlausibleUtilization = 10.0;

}  // namespace

const char* ReconcileStatusName(ReconcileStatus status) {
  switch (status) {
    case ReconcileStatus::kUnknown:
      return "unknown";
    case ReconcileStatus::kMatched:
      return "matched";
    case ReconcileStatus::kReasserted:
      return "reasserted";
    case ReconcileStatus::kRetryArmed:
      return "retry_armed";
  }
  return "invalid";
}

LimoncelloDaemon::LimoncelloDaemon(const ControllerConfig& config,
                                   UtilizationSource* telemetry,
                                   PrefetchActuator* actuator)
    : telemetry_(telemetry),
      actuator_(actuator),
      core_(config) {
  LIMONCELLO_CHECK(telemetry != nullptr);
  LIMONCELLO_CHECK(actuator != nullptr);
}

bool LimoncelloDaemon::Actuate(bool enable) {
  const bool ok = enable ? actuator_->EnablePrefetchers()
                         : actuator_->DisablePrefetchers();
  if (!ok) {
    ++stats_.actuation_failures;
    return false;
  }
  ++(enable ? stats_.enables : stats_.disables);
  if (state_listener_) state_listener_(enable);
  return true;
}

std::optional<double> LimoncelloDaemon::ValidateSample(
    std::optional<double> sample) {
  if (!sample.has_value()) {
    // A gap breaks a stale run: the detector targets a pipeline that
    // keeps returning the same reading every single tick.
    stale_run_ = 0;
    have_last_sample_ = false;
    return std::nullopt;
  }
  if (!std::isfinite(*sample) || *sample < 0.0 ||
      *sample > kMaxPlausibleUtilization) {
    ++stats_.invalid_samples;
    return std::nullopt;
  }
  // Frozen-exporter detection: real utilization telemetry always
  // jitters, so a long bit-identical run means the value is stale even
  // though it still parses. Compare bit patterns, not values, so e.g.
  // a legitimately saturated 1.0 plateau with real jitter still passes.
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &*sample, sizeof(bits));
  if (have_last_sample_ && bits == last_sample_bits_) {
    if (++stale_run_ >= core_.fsm().config().max_stale_samples) {
      ++stats_.stale_samples;
      return std::nullopt;
    }
  } else {
    stale_run_ = 0;
    last_sample_bits_ = bits;
    have_last_sample_ = true;
  }
  return sample;
}

void LimoncelloDaemon::MaybeReadback() {
  const int period = core_.fsm().config().readback_period_ticks;
  if (period <= 0) return;
  if (core_.retry_pending()) return;  // already known
  if (stats_.ticks % static_cast<std::uint64_t>(period) != 0) return;
  const std::optional<bool> matches =
      actuator_->StateMatches(core_.intent_enabled());
  if (!matches.has_value() || *matches) return;
  // The hardware lost our state (most likely a reboot restored the BIOS
  // default): re-assert the intent.
  ++stats_.reboots_detected;
  if (core_.Reassert(*this)) ++stats_.state_reasserts;
}

LimoncelloDaemon::PersistentState LimoncelloDaemon::ExportState() const {
  const EndpointController::State core = core_.Export();
  PersistentState state;
  state.controller_state = core.controller_state;
  state.timer_ns = core.timer_ns;
  state.toggle_count = core.toggle_count;
  state.pending_retry = core.pending_retry;
  state.retry_delay_ticks = core.retry_delay_ticks;
  state.retry_wait_ticks = core.retry_wait_ticks;
  state.consecutive_missed = consecutive_missed_;
  state.last_sample_bits = last_sample_bits_;
  state.have_last_sample = have_last_sample_;
  state.stale_run = stale_run_;
  state.stats = stats_;
  return state;
}

bool LimoncelloDaemon::RestoreState(const PersistentState& state) {
  // The silent run restarts at the trip point, so a persisted value at or
  // past it is impossible. stale_run_ by contrast keeps counting through
  // a long freeze — only its sign is constrained. The core vets the rest.
  if (state.consecutive_missed < 0 ||
      state.consecutive_missed >= core_.fsm().config().max_missed_samples ||
      state.stale_run < 0) {
    return false;
  }
  EndpointController::State core;
  core.controller_state = state.controller_state;
  core.timer_ns = state.timer_ns;
  core.toggle_count = state.toggle_count;
  // The daemon has no pin: its intent is the FSM's opinion.
  core.intent_enabled =
      HysteresisController::EnablesPrefetchers(state.controller_state);
  core.pending_retry = state.pending_retry;
  core.retry_delay_ticks = state.retry_delay_ticks;
  core.retry_wait_ticks = state.retry_wait_ticks;
  if (!core_.Restore(core)) return false;
  consecutive_missed_ = state.consecutive_missed;
  last_sample_bits_ = state.last_sample_bits;
  have_last_sample_ = state.have_last_sample;
  stale_run_ = state.stale_run;
  stats_ = state.stats;
  ++stats_.warm_restores;
  if (state_listener_) state_listener_(core_.intent_enabled());
  return true;
}

ReconcileStatus LimoncelloDaemon::ReconcileHardwareState() {
  const std::optional<bool> matches =
      actuator_->StateMatches(core_.intent_enabled());
  if (!matches.has_value()) return ReconcileStatus::kUnknown;
  if (*matches) return ReconcileStatus::kMatched;
  ++stats_.recovery_reconciles;
  return core_.Reassert(*this) ? ReconcileStatus::kReasserted
                               : ReconcileStatus::kRetryArmed;
}

LimoncelloDaemon::TickRecord LimoncelloDaemon::RunTick(SimTimeNs now_ns) {
  TickRecord record;
  record.time_ns = now_ns;
  ++stats_.ticks;
  if (core_.AdvanceRetry(*this)) ++stats_.retry_backoff_skips;

  const std::optional<double> sample =
      ValidateSample(telemetry_->SampleUtilization());
  if (!sample.has_value()) {
    ++stats_.missed_samples;
    if (core_.OnSilentTick(++consecutive_missed_, *this)) {
      ++stats_.failsafe_resets;
    }
    // The run restarts at the trip point, so an exported run stays below
    // it; the core fires once per silence episode all the same.
    if (consecutive_missed_ >= core_.fsm().config().max_missed_samples) {
      consecutive_missed_ = 0;
    }
    record.state = core_.fsm().state();
    if (trace_recording_) {
      state_trace_.Add(now_ns, core_.intent_enabled() ? 1.0 : 0.0);
    }
    return record;
  }

  consecutive_missed_ = 0;
  record.sample_ok = true;
  record.utilization = *sample;
  record.action = core_.OnSample(*sample, *this);
  record.state = core_.fsm().state();
  // An FSM decision either matched the hardware or was attempted just
  // now; a retry left pending means that attempt failed.
  if (record.action != ControllerAction::kNone) {
    record.actuation_ok = !core_.retry_pending();
  }
  MaybeReadback();
  if (trace_recording_) {
    utilization_trace_.Add(now_ns, *sample);
    state_trace_.Add(now_ns, core_.intent_enabled() ? 1.0 : 0.0);
  }
  return record;
}

}  // namespace limoncello
