#include "control/control_plane.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"
#include "util/wire.h"

namespace limoncello {

void IngestLatencyHistogram::Record(std::uint64_t latency_ns) {
  const int bucket =
      latency_ns == 0 ? 0 : 63 - std::countl_zero(latency_ns);
  ++buckets_[static_cast<std::size_t>(bucket)];
  ++count_;
}

void IngestLatencyHistogram::Merge(const IngestLatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)].value();
  }
  count_ += other.count_.value();
}

std::uint64_t IngestLatencyHistogram::ApproxQuantileNs(double q) const {
  if (count_.value() == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = static_cast<std::uint64_t>(
      clamped * static_cast<double>(count_.value() - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)].value();
    if (seen > rank) {
      return i >= 63 ? ~0ULL : (2ULL << i) - 1;  // bucket upper edge
    }
  }
  return ~0ULL;
}

namespace {

// Deterministic endpoint -> shard hash (Fibonacci mix). Any fixed
// function works; mixing avoids pinning consecutive ids to one shard.
std::uint32_t MixEndpointId(std::uint32_t endpoint_id) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(endpoint_id) * 0x9E3779B97F4A7C15ULL) >>
      33);
}

// Routes one endpoint's writes through the plane's hook, counting them
// in the owning shard's stats; a successful write is a committed change
// the journal must see.
class ShardActuator final : public EndpointActuator {
 public:
  ShardActuator(const ControlPlane::ActuateFn& actuate,
                ControlPlane::Stats& stats, std::uint32_t endpoint_id,
                bool& journal_dirty)
      : actuate_(actuate),
        stats_(stats),
        endpoint_id_(endpoint_id),
        journal_dirty_(journal_dirty) {}

  bool Actuate(bool enable) override {
    if (!actuate_(endpoint_id_, enable)) {
      ++stats_.actuation_failures;
      return false;
    }
    ++(enable ? stats_.enables : stats_.disables);
    journal_dirty_ = true;
    return true;
  }

 private:
  const ControlPlane::ActuateFn& actuate_;
  ControlPlane::Stats& stats_;
  std::uint32_t endpoint_id_;
  bool& journal_dirty_;
};

}  // namespace

ControlPlane::ControlPlane(const ControlPlaneOptions& options,
                           ActuateFn actuate)
    : options_(options), actuate_(std::move(actuate)) {
  LIMONCELLO_CHECK_GE(options_.num_endpoints, 1);
  LIMONCELLO_CHECK_GE(options_.num_shards, 1);
  LIMONCELLO_CHECK(options_.config.Valid());
  LIMONCELLO_CHECK(actuate_ != nullptr);
  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.queue));
  }
  // Partition endpoints across shards once; every per-endpoint slot is
  // allocated here so the ingest/drain paths never grow a vector.
  slot_of_.resize(static_cast<std::size_t>(options_.num_endpoints));
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(options_.num_endpoints); ++id) {
    Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(id))];
    MutexLock lock(&shard.mu);
    slot_of_[id] = static_cast<std::uint32_t>(shard.endpoints.size());
    shard.endpoints.emplace_back(options_.config, id);
  }
}

int ControlPlane::ShardOf(std::uint32_t endpoint_id) const {
  return static_cast<int>(MixEndpointId(endpoint_id) %
                          static_cast<std::uint32_t>(options_.num_shards));
}

// limolint:hot-path — producer side: one endpoint-id peek plus one
// queue push; no decode, no shard-state lock, no allocation.
PushResult ControlPlane::IngestFrame(const unsigned char* data,
                                     std::size_t size,
                                     std::uint64_t enqueue_time_ns) {
  // Route by a fixed-offset peek at the payload's endpoint id. A frame
  // too short to peek goes to shard 0, where decode rejects and counts
  // it; a corrupt id mis-routes a frame that decode will reject anyway
  // (the CRC protects the id, so a *valid* frame never mis-routes).
  std::uint32_t endpoint_id = 0;
  if (data != nullptr && size >= kTelemetryBatchHeaderBytes + 4) {
    endpoint_id = LoadU32(data + kTelemetryBatchHeaderBytes);
  }
  Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(endpoint_id))];
  return shard.queue.PushTelemetry(data, size, enqueue_time_ns);
}

PushResult ControlPlane::SubmitCommand(const ControlCommand& command,
                                       std::uint64_t enqueue_time_ns) {
  Shard& shard =
      *shards_[static_cast<std::size_t>(ShardOf(command.endpoint_id))];
  return shard.queue.PushCommand(command, enqueue_time_ns);
}

ControlPlane::Endpoint& ControlPlane::StateFor(Shard& shard,
                                               std::uint32_t endpoint_id) {
  LIMONCELLO_DCHECK(endpoint_id <
                    static_cast<std::uint32_t>(options_.num_endpoints));
  return shard.endpoints[slot_of_[endpoint_id]];
}

void ControlPlane::ApplyBatch(Shard& shard, const TelemetryBatch& batch,
                              std::uint64_t enqueue_time_ns,
                              std::uint64_t now_ns) {
  if (batch.endpoint_id >=
      static_cast<std::uint32_t>(options_.num_endpoints)) {
    ++shard.stats.unknown_endpoints;
    return;
  }
  Endpoint& endpoint = StateFor(shard, batch.endpoint_id);
  // At-most-once: a duplicate, stale, or reordered-behind frame carries
  // a sequence number the endpoint has already consumed. Rejecting it
  // here is what makes transport duplication/replay harmless.
  if (endpoint.have_sequence && batch.sequence <= endpoint.last_sequence) {
    ++shard.stats.sequence_rejects;
    return;
  }
  endpoint.last_sequence = batch.sequence;
  endpoint.have_sequence = true;
  endpoint.last_update_tick = tick_;
  ShardActuator hw(actuate_, shard.stats, endpoint.endpoint_id,
                   endpoint.journal_dirty);
  for (std::uint32_t i = 0; i < batch.num_samples; ++i) {
    const ControllerAction action =
        endpoint.controller.OnSample(batch.utilization[i], hw);
    ++shard.stats.samples_accepted;
    // A decision the force pin does not override is a committed change.
    if (action != ControllerAction::kNone && !endpoint.controller.forced()) {
      endpoint.journal_dirty = true;
    }
  }
  if (now_ns > enqueue_time_ns) {
    shard.latency.Record(now_ns - enqueue_time_ns);
  }
}

void ControlPlane::ApplyCommand(Shard& shard,
                                const ControlCommand& command) {
  if (command.endpoint_id >=
      static_cast<std::uint32_t>(options_.num_endpoints)) {
    ++shard.stats.unknown_endpoints;
    return;
  }
  Endpoint& endpoint = StateFor(shard, command.endpoint_id);
  ShardActuator hw(actuate_, shard.stats, endpoint.endpoint_id,
                   endpoint.journal_dirty);
  switch (command.kind) {
    case CommandKind::kForceEnable:
      endpoint.controller.Force(true, hw);
      break;
    case CommandKind::kForceDisable:
      endpoint.controller.Force(false, hw);
      break;
    case CommandKind::kClearForce:
      endpoint.controller.ClearForce(hw);
      break;
  }
  ++shard.stats.commands_applied;
  endpoint.journal_dirty = true;
}

// limolint:hot-path — consumer side: pop, decode, FSM tick, actuate.
// Bounded stack scratch; zero heap allocation (gated by
// bench_control_plane --gate).
int ControlPlane::DrainShard(int shard_index, std::uint64_t now_ns) {
  LIMONCELLO_DCHECK(shard_index >= 0 &&
                    shard_index < options_.num_shards);
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  ControlMessage message;
  TelemetryBatch batch;
  int consumed = 0;
  MutexLock lock(&shard.mu);  // limolint:allow(hot-path-blocking)
  while (shard.queue.Pop(&message)) {
    ++consumed;
    if (message.kind == ControlMessage::Kind::kCommand) {
      ApplyCommand(shard, message.command);
      continue;
    }
    const BatchDecodeStatus status = DecodeTelemetryBatch(
        message.frame.data(), message.frame_bytes, &batch);
    if (status != BatchDecodeStatus::kOk) {
      ++shard.stats.decode_failures;
      continue;
    }
    ++shard.stats.frames_decoded;
    ApplyBatch(shard, batch, message.enqueue_time_ns, now_ns);
  }
  return consumed;
}

int ControlPlane::DrainAll(std::uint64_t now_ns) {
  int consumed = 0;
  for (int s = 0; s < options_.num_shards; ++s) {
    consumed += DrainShard(s, now_ns);
  }
  return consumed;
}

void ControlPlane::AdvanceTick() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    for (Endpoint& endpoint : shard.endpoints) {
      ShardActuator hw(actuate_, shard.stats, endpoint.endpoint_id,
                       endpoint.journal_dirty);
      // Close the tick. The silent run is the ticks since the last
      // accepted batch, 0 when the closing tick had one.
      if (endpoint.controller.OnSilentTick(tick_ - endpoint.last_update_tick,
                                            hw)) {
        // Forget the sequence watermark along with the FSM: a silent
        // endpoint that comes back is usually a restarted exporter whose
        // sequence numbers begin again at 1, and holding the old
        // watermark would reject every frame it ever sends. Stale
        // replays of the *previous* incarnation are already absorbed —
        // the fail-safe has reset the FSM to the state a fresh stream
        // would rebuild anyway.
        endpoint.have_sequence = false;
        endpoint.last_sequence = 0;
        endpoint.journal_dirty = true;
        ++shard.stats.stale_endpoint_failsafes;
      }
      // Open the next: a due retry fires before its telemetry drains.
      if (endpoint.controller.retry_pending() &&
          endpoint.controller.AdvanceRetry(hw)) {
        ++shard.stats.retry_backoff_skips;
      }
    }
  }
  ++tick_;
}

EndpointPersistentState ControlPlane::ExportEndpoint(
    std::uint32_t endpoint_id) {
  LIMONCELLO_CHECK(endpoint_id <
                   static_cast<std::uint32_t>(options_.num_endpoints));
  Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(endpoint_id))];
  MutexLock lock(&shard.mu);
  return RecordOf(StateFor(shard, endpoint_id));
}

EndpointPersistentState ControlPlane::RecordOf(const Endpoint& endpoint) {
  const EndpointController::State core = endpoint.controller.Export();
  EndpointPersistentState record;
  record.endpoint_id = endpoint.endpoint_id;
  record.controller_state = core.controller_state;
  record.timer_ns = core.timer_ns;
  record.toggle_count = core.toggle_count;
  record.intent_enabled = core.intent_enabled;
  record.force_active = core.force_active;
  record.force_enabled = core.force_enabled;
  record.last_sequence = endpoint.last_sequence;
  record.have_sequence = endpoint.have_sequence;
  record.last_update_tick = endpoint.last_update_tick;
  return record;
}

std::vector<EndpointPersistentState> ControlPlane::ExportAllEndpoints() {
  std::vector<EndpointPersistentState> records;
  records.reserve(static_cast<std::size_t>(options_.num_endpoints));
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(options_.num_endpoints); ++id) {
    records.push_back(ExportEndpoint(id));
  }
  return records;
}

void ControlPlane::CollectDirtyEndpoints(
    std::vector<EndpointPersistentState>* out) {
  const std::size_t first = out->size();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    for (Endpoint& endpoint : shard.endpoints) {
      if (!endpoint.journal_dirty) continue;
      endpoint.journal_dirty = false;
      out->push_back(RecordOf(endpoint));
    }
  }
  // Shards interleave ids; the journal order is by id.
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const EndpointPersistentState& a,
               const EndpointPersistentState& b) {
              return a.endpoint_id < b.endpoint_id;
            });
}

int ControlPlane::RestoreEndpoints(
    const std::vector<EndpointPersistentState>& records) {
  int adopted = 0;
  for (const EndpointPersistentState& record : records) {
    if (record.endpoint_id >=
        static_cast<std::uint32_t>(options_.num_endpoints)) {
      continue;
    }
    Shard& shard =
        *shards_[static_cast<std::size_t>(ShardOf(record.endpoint_id))];
    MutexLock lock(&shard.mu);
    Endpoint& endpoint = StateFor(shard, record.endpoint_id);
    EndpointController::State core;
    core.controller_state = record.controller_state;
    core.timer_ns = record.timer_ns;
    core.toggle_count = record.toggle_count;
    core.intent_enabled = record.intent_enabled;
    core.force_active = record.force_active;
    core.force_enabled = record.force_enabled;
    // A violation leaves this endpoint cold-started.
    if (!endpoint.controller.Restore(core)) continue;
    endpoint.last_sequence = record.last_sequence;
    endpoint.have_sequence = record.have_sequence;
    // Restart resets the staleness clock: the endpoint gets a full
    // window to be heard from before the fail-safe fires.
    endpoint.last_update_tick = tick_;
    ++shard.stats.warm_restores;
    ++adopted;
    // Journal intent wins over whatever the hardware drifted to while
    // the plane was down: re-assert unconditionally.
    ShardActuator hw(actuate_, shard.stats, endpoint.endpoint_id,
                     endpoint.journal_dirty);
    (void)endpoint.controller.Reassert(hw);
  }
  return adopted;
}

ControlPlane::Stats ControlPlane::SnapshotStats() {
  Stats total;
  const BoundedControlQueue::Counters queue = SnapshotQueueCounters();
  total.frames_ingested = queue.telemetry_pushed;
  total.frames_shed = queue.telemetry_shed;
  total.frames_rejected = queue.telemetry_rejected;
  total.commands_ingested = queue.commands_pushed;
  total.command_overflows = queue.command_overflows;
  total.backpressure_signals = queue.backpressure_signals;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    const Stats& s = shard.stats;
    total.frames_decoded += s.frames_decoded.value();
    total.decode_failures += s.decode_failures.value();
    total.sequence_rejects += s.sequence_rejects.value();
    total.unknown_endpoints += s.unknown_endpoints.value();
    total.samples_accepted += s.samples_accepted.value();
    total.disables += s.disables.value();
    total.enables += s.enables.value();
    total.actuation_failures += s.actuation_failures.value();
    total.retry_backoff_skips += s.retry_backoff_skips.value();
    total.stale_endpoint_failsafes += s.stale_endpoint_failsafes.value();
    total.commands_applied += s.commands_applied.value();
    total.warm_restores += s.warm_restores.value();
  }
  return total;
}

IngestLatencyHistogram ControlPlane::SnapshotLatency() {
  IngestLatencyHistogram total;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    total.Merge(shard.latency);
  }
  return total;
}

BoundedControlQueue::Counters ControlPlane::SnapshotQueueCounters() {
  BoundedControlQueue::Counters total;
  for (auto& shard_ptr : shards_) {
    const BoundedControlQueue::Counters c =
        shard_ptr->queue.SnapshotCounters();
    total.telemetry_pushed += c.telemetry_pushed.value();
    total.commands_pushed += c.commands_pushed.value();
    total.telemetry_shed += c.telemetry_shed.value();
    total.telemetry_rejected += c.telemetry_rejected.value();
    total.command_overflows += c.command_overflows.value();
    total.backpressure_signals += c.backpressure_signals.value();
    total.telemetry_popped += c.telemetry_popped.value();
    total.commands_popped += c.commands_popped.value();
  }
  return total;
}

bool ControlPlane::EndpointIntentEnabled(std::uint32_t endpoint_id) {
  return ReadEndpoint(endpoint_id).intent_enabled();
}

ControllerState ControlPlane::EndpointControllerState(
    std::uint32_t endpoint_id) {
  return ReadEndpoint(endpoint_id).fsm().state();
}

bool ControlPlane::EndpointInFailsafe(std::uint32_t endpoint_id) {
  return ReadEndpoint(endpoint_id).in_failsafe();
}

bool ControlPlane::EndpointForced(std::uint32_t endpoint_id) {
  return ReadEndpoint(endpoint_id).forced();
}

EndpointController ControlPlane::ReadEndpoint(std::uint32_t endpoint_id) {
  LIMONCELLO_CHECK(endpoint_id <
                   static_cast<std::uint32_t>(options_.num_endpoints));
  Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(endpoint_id))];
  MutexLock lock(&shard.mu);
  return StateFor(shard, endpoint_id).controller;
}

}  // namespace limoncello
