#include "core/endpoint_controller.h"

#include <algorithm>

namespace limoncello {

EndpointController::EndpointController(const ControllerConfig& config)
    : fsm_(config) {}

bool EndpointController::AdvanceRetry(EndpointActuator& hw) {
  if (!retry_pending()) return false;
  if (retry_wait_ticks_ > 0) {
    --retry_wait_ticks_;
    return true;
  }
  (void)Attempt(hw, /*due_retry=*/true);
  return false;
}

ControllerAction EndpointController::OnSample(double utilization,
                                              EndpointActuator& hw) {
  failsafe_active_ = false;
  const ControllerAction action = fsm_.Tick(utilization);
  if (action != ControllerAction::kNone && !force_active_) {
    intent_ = action == ControllerAction::kEnablePrefetchers;
    Commit(hw);
  }
  return action;
}

void EndpointController::FailSafe(EndpointActuator& hw) {
  failsafe_active_ = true;
  fsm_.Reset();
  intent_ = true;
  Commit(hw);
}

void EndpointController::Force(bool enabled, EndpointActuator& hw) {
  force_active_ = true;
  force_enabled_ = enabled;
  intent_ = enabled;
  Commit(hw);
}

void EndpointController::ClearForce(EndpointActuator& hw) {
  force_active_ = false;
  intent_ = fsm_.PrefetchersShouldBeEnabled();
  Commit(hw);
}

bool EndpointController::Reassert(EndpointActuator& hw) {
  belief_.reset();
  return Attempt(hw, /*due_retry=*/false);
}

void EndpointController::Commit(EndpointActuator& hw) {
  if (retry_pending()) {
    (void)Attempt(hw, /*due_retry=*/false);
  } else {
    retry_delay_ticks_ = 1;
    retry_wait_ticks_ = 0;
  }
}

bool EndpointController::Attempt(EndpointActuator& hw, bool due_retry) {
  if (hw.Actuate(intent_)) {
    belief_ = intent_;
    retry_delay_ticks_ = 1;
    retry_wait_ticks_ = 0;
    return true;
  }
  belief_.reset();
  // A persistent fault must not turn every tick into an MSR write storm.
  retry_delay_ticks_ =
      due_retry ? std::min(retry_delay_ticks_ * 2,
                           fsm_.config().retry_backoff_cap_ticks)
                : 1;
  retry_wait_ticks_ = retry_delay_ticks_ - 1;
  return false;
}

EndpointController::State EndpointController::Export() const {
  State state;
  state.controller_state = fsm_.state();
  state.timer_ns = fsm_.timer_ns();
  state.toggle_count = fsm_.toggle_count();
  state.intent_enabled = intent_;
  state.force_active = force_active_;
  state.force_enabled = force_enabled_;
  if (retry_pending()) {
    state.pending_retry = intent_ ? ControllerAction::kEnablePrefetchers
                                  : ControllerAction::kDisablePrefetchers;
  }
  state.retry_delay_ticks = retry_delay_ticks_;
  state.retry_wait_ticks = retry_wait_ticks_;
  return state;
}

bool EndpointController::Restore(const State& state) {
  const ControllerConfig& config = fsm_.config();
  switch (state.pending_retry) {
    case ControllerAction::kNone:
    case ControllerAction::kDisablePrefetchers:
    case ControllerAction::kEnablePrefetchers:
      break;
    default:
      return false;  // decoded from disk; may be any bit pattern
  }
  if (state.retry_delay_ticks < 1 ||
      state.retry_delay_ticks > config.retry_backoff_cap_ticks) {
    return false;
  }
  // The wait countdown is always armed below the current delay step.
  if (state.retry_wait_ticks < 0 ||
      state.retry_wait_ticks >= state.retry_delay_ticks) {
    return false;
  }
  // A pin must hold the intent it claims.
  if (state.force_active && state.force_enabled != state.intent_enabled) {
    return false;
  }
  // The FSM last: its RestoreState mutates on success, so every other
  // field must already have been vetted.
  if (!fsm_.RestoreState(state.controller_state, state.timer_ns,
                         state.toggle_count)) {
    return false;
  }
  intent_ = state.intent_enabled;
  belief_ = intent_;
  force_active_ = state.force_active;
  force_enabled_ = state.force_enabled;
  failsafe_active_ = false;
  retry_delay_ticks_ = 1;
  retry_wait_ticks_ = 0;
  return true;
}

}  // namespace limoncello
