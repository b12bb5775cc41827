#include "core/hysteresis_controller.h"

#include "util/check.h"

namespace limoncello {

const char* ControllerStateName(ControllerState state) {
  switch (state) {
    case ControllerState::kEnabledSteady:
      return "enabled_steady";
    case ControllerState::kEnabledArming:
      return "enabled_arming";
    case ControllerState::kDisabledSteady:
      return "disabled_steady";
    case ControllerState::kDisabledArming:
      return "disabled_arming";
  }
  return "unknown";
}

HysteresisController::HysteresisController(const ControllerConfig& config)
    : config_(config) {
  LIMONCELLO_CHECK(config.Valid());
}

void HysteresisController::Reset() {
  state_ = ControllerState::kEnabledSteady;
  timer_ns_ = 0;
}

bool HysteresisController::RestoreState(ControllerState state,
                                        SimTimeNs timer_ns,
                                        std::uint64_t toggle_count) {
  bool arming = false;
  switch (state) {
    case ControllerState::kEnabledSteady:
    case ControllerState::kDisabledSteady:
      break;
    case ControllerState::kEnabledArming:
    case ControllerState::kDisabledArming:
      arming = true;
      break;
    default:
      return false;  // decoded from disk; may be any bit pattern
  }
  if (timer_ns < 0) return false;
  if (!arming && timer_ns != 0) return false;
  // An arming timer at or past Δ would have already transitioned.
  if (arming && timer_ns >= config_.sustain_duration_ns) return false;
  state_ = state;
  timer_ns_ = timer_ns;
  toggle_count_ = toggle_count;
  return true;
}

ControllerAction HysteresisController::Tick(double utilization) {
  LIMONCELLO_DCHECK(utilization >= 0.0);
  const bool enabled = PrefetchersShouldBeEnabled();
  // Past the threshold that arms the next toggle: above UT while the
  // prefetchers are on, below LT while they are off.
  const bool beyond = enabled ? utilization > config_.upper_threshold
                              : utilization < config_.lower_threshold;
  if (!beyond) {
    // Any excursion ends before Δ: back to steady, timer cleared.
    state_ = enabled ? ControllerState::kEnabledSteady
                     : ControllerState::kDisabledSteady;
    timer_ns_ = 0;
    return ControllerAction::kNone;
  }
  timer_ns_ += config_.tick_period_ns;
  if (timer_ns_ < config_.sustain_duration_ns) {
    state_ = enabled ? ControllerState::kEnabledArming
                     : ControllerState::kDisabledArming;
    return ControllerAction::kNone;
  }
  // Sustained for Δ: toggle.
  state_ = enabled ? ControllerState::kDisabledSteady
                   : ControllerState::kEnabledSteady;
  timer_ns_ = 0;
  ++toggle_count_;
  return enabled ? ControllerAction::kDisablePrefetchers
                 : ControllerAction::kEnablePrefetchers;
}

}  // namespace limoncello
