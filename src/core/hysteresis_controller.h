// The Hard Limoncello hysteresis state machine (paper Fig. 8).
//
// Two forms of hysteresis keep the controller from chasing bandwidth
// bursts (paper §3, "Design"):
//   1. separate upper (disable) and lower (re-enable) thresholds, and
//   2. a sustain duration Δ the signal must hold beyond a threshold
//      before the controller changes prefetcher state.
// Any excursion back across the arming threshold resets the timer.
//
// The controller is a pure decision component: it consumes one utilization
// sample per tick and emits the action to take. Actuation (MSR writes) and
// telemetry live elsewhere, which keeps this class exhaustively testable.
#ifndef LIMONCELLO_CORE_HYSTERESIS_CONTROLLER_H_
#define LIMONCELLO_CORE_HYSTERESIS_CONTROLLER_H_

#include <cstdint>

#include "core/controller_config.h"
#include "stats/saturating.h"
#include "util/units.h"

namespace limoncello {

enum class ControllerState {
  kEnabledSteady,    // PF on,  membw below UT
  kEnabledArming,    // PF on,  membw above UT, timer running
  kDisabledSteady,   // PF off, membw above LT
  kDisabledArming,   // PF off, membw below LT, timer running
};

const char* ControllerStateName(ControllerState state);

enum class ControllerAction {
  kNone,
  kDisablePrefetchers,
  kEnablePrefetchers,
};

class HysteresisController {
 public:
  explicit HysteresisController(const ControllerConfig& config);

  // Feeds one telemetry sample (utilization as a fraction of saturation)
  // covering one tick period; returns the action to apply *now*.
  ControllerAction Tick(double utilization);

  // Resets to the power-on state (prefetchers enabled, timer clear).
  // Used by the daemon's fail-safe path.
  void Reset();

  // Adopts a state snapshot recovered from a journal. The snapshot is
  // untrusted input: the enum must name a real state and the timer must
  // satisfy the FSM's invariants (zero in steady states, inside the
  // sustain window while arming). Returns false — leaving the controller
  // untouched — on any violation.
  bool RestoreState(ControllerState state, SimTimeNs timer_ns,
                    std::uint64_t toggle_count);

  // True for the two states that keep prefetchers on.
  static bool EnablesPrefetchers(ControllerState state) {
    return state == ControllerState::kEnabledSteady ||
           state == ControllerState::kEnabledArming;
  }

  ControllerState state() const { return state_; }
  bool PrefetchersShouldBeEnabled() const {
    return EnablesPrefetchers(state_);
  }
  SimTimeNs timer_ns() const { return timer_ns_; }
  std::uint64_t toggle_count() const { return toggle_count_; }
  const ControllerConfig& config() const { return config_; }

 private:
  ControllerConfig config_;
  ControllerState state_ = ControllerState::kEnabledSteady;
  SimTimeNs timer_ns_ = 0;
  SatCounter toggle_count_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_CORE_HYSTERESIS_CONTROLLER_H_
