// The controller core of every Hard Limoncello deployment shape: the
// hysteresis FSM (paper Fig. 8) plus the intent (FSM decision or force
// pin), a belief about the hardware, the capped-exponential actuation
// retry, the silence fail-safe, and the validated export and restore of
// that state. LimoncelloDaemon steps one for its socket; ControlPlane
// holds one per endpoint. A tick is AdvanceRetry, then OnSample per
// validated sample, or OnSilentTick when none arrived. The four rules
// (retry, actuation, fail-safe, restore) are in DESIGN.md §10, "One
// controller core". A plain value: no step allocates.
#ifndef LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_
#define LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_

#include <cstdint>
#include <optional>

#include "core/hysteresis_controller.h"

namespace limoncello {

// The hardware side of one endpoint, passed to each step that may write.
class EndpointActuator {
 public:
  virtual ~EndpointActuator() = default;

  // Applies a prefetcher state; false on failure.
  virtual bool Actuate(bool enable) = 0;
};

class EndpointController {
 public:
  // Everything a warm restart carries; Restore validates every field.
  struct State {
    ControllerState controller_state = ControllerState::kEnabledSteady;
    SimTimeNs timer_ns = 0;
    std::uint64_t toggle_count = 0;
    bool intent_enabled = true;
    bool force_active = false;  // operator pin
    bool force_enabled = true;  // pinned value when force_active
    // The write still owed to the hardware, and its backoff.
    ControllerAction pending_retry = ControllerAction::kNone;
    int retry_delay_ticks = 1;
    int retry_wait_ticks = 0;
  };

  explicit EndpointController(const ControllerConfig& config);

  // Opens a tick: makes a due retry. True when this tick only waited.
  bool AdvanceRetry(EndpointActuator& hw);

  // One validated sample: ends any silence episode, ticks the FSM and,
  // unless pinned, makes its decision the intent. Returns the FSM action.
  ControllerAction OnSample(double utilization, EndpointActuator& hw);

  // Closes a tick without a valid sample; `silent_ticks` is the length of
  // the silent run so far, this tick included, in the adapter's own unit.
  // True when the fail-safe fired.
  bool OnSilentTick(std::uint64_t silent_ticks, EndpointActuator& hw) {
    if (failsafe_active_ || force_active_ ||
        silent_ticks < static_cast<std::uint64_t>(
                           fsm_.config().max_missed_samples)) {
      return false;
    }
    FailSafe(hw);
    return true;
  }

  // Operator pin: the FSM keeps tracking utilization but the pin owns
  // the intent until ClearForce hands it back to the FSM.
  void Force(bool enabled, EndpointActuator& hw);
  void ClearForce(EndpointActuator& hw);

  // Writes the intent whatever the belief says (after a restore, or on a
  // readback mismatch). False when the write failed and a retry is armed.
  bool Reassert(EndpointActuator& hw);

  State Export() const;

  // Adopts an untrusted snapshot; false, and untouched, on any violation.
  bool Restore(const State& state);

  const HysteresisController& fsm() const { return fsm_; }
  bool intent_enabled() const { return intent_; }
  bool retry_pending() const { return belief_ != intent_; }
  bool forced() const { return force_active_; }
  bool in_failsafe() const { return failsafe_active_; }

 private:
  // The hardware default (prefetchers on) and a fresh FSM.
  void FailSafe(EndpointActuator& hw);
  // Writes the intent when the belief differs from it.
  void Commit(EndpointActuator& hw);
  // One write of the intent. On failure a due retry doubles the backoff;
  // any other attempt re-arms it at 1 tick.
  bool Attempt(EndpointActuator& hw, bool due_retry);

  HysteresisController fsm_;
  bool intent_ = true;
  // What the last successful write set; unknown after a failed write.
  std::optional<bool> belief_ = true;
  bool force_active_ = false;
  bool force_enabled_ = true;
  bool failsafe_active_ = false;
  int retry_delay_ticks_ = 1;
  int retry_wait_ticks_ = 0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_
