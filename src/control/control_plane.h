// Sharded fleet control plane: one daemon, many endpoints.
//
// The single-socket LimoncelloDaemon (core/daemon.h) runs one
// EndpointController (core/endpoint_controller.h) against one telemetry
// source. The ControlPlane scales that design sideways: one process
// ingests telemetry batches from N endpoints over a CRC-framed wire
// format, steps one EndpointController per endpoint, and actuates each
// endpoint's prefetchers through a caller-supplied hook.
//
// Architecture (DESIGN.md §15):
//
//   producers ──► shard 0 [BoundedControlQueue]─► drain ─► FSMs ─► actuate
//   (transport)   shard 1 [BoundedControlQueue]─► drain ─► FSMs ─► actuate
//       ...          ...
//
//   * Endpoints are statically partitioned across shards by a
//     deterministic hash. A frame's shard is computed from a fixed-
//     offset peek at the endpoint id — no decode, no lock.
//   * The ingest path touches exactly one shard's queue mutex; there
//     are no cross-shard locks anywhere on the hot path. Shards drain
//     independently, so drains parallelize across a ThreadPool with no
//     shared mutable state.
//   * Everything a shard needs is preallocated at construction: the
//     queue rings, the endpoint table, the latency histogram. The
//     steady-state ingest + drain path performs zero heap allocations
//     (bench_control_plane --gate audits this with an operator-new
//     probe).
//
// Trust boundary: frames arrive as untrusted bytes. DecodeTelemetryBatch
// enforces framing, CRC, version, bounds, and sample plausibility;
// the plane then enforces per-endpoint sequence monotonicity, so
// duplicated, stale, reordered, or replayed frames are rejected and
// counted rather than double-applied. The transport may lose frames
// (and the queue may shed them); the per-endpoint staleness timer turns
// prolonged silence into the paper's fail-safe — prefetchers forced
// back ON, FSM reset.
//
// Determinism: given the same frame sequence pushed per shard in the
// same order, drains produce bit-identical endpoint state and counters
// at any thread count — a shard's work depends only on its own queue.
// SnapshotStats merges per-shard counters in shard order.
#ifndef LIMONCELLO_CONTROL_CONTROL_PLANE_H_
#define LIMONCELLO_CONTROL_CONTROL_PLANE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "control/bounded_queue.h"
#include "control/telemetry_batch.h"
#include "core/controller_config.h"
#include "core/endpoint_controller.h"
#include "core/hysteresis_controller.h"
#include "stats/saturating.h"
#include "util/mutex.h"

namespace limoncello {

// Everything a warm restart must carry across a control-plane process
// death, per endpoint. Plain data; src/recovery/ serializes it
// (EndpointStateJournal). Restored values are validated field by field,
// never trusted.
struct EndpointPersistentState {
  std::uint32_t endpoint_id = 0;
  ControllerState controller_state = ControllerState::kEnabledSteady;
  SimTimeNs timer_ns = 0;
  std::uint64_t toggle_count = 0;
  bool intent_enabled = true;   // prefetcher intent (committed decision)
  bool force_active = false;    // operator force pin
  bool force_enabled = true;    // pinned value when force_active
  std::uint64_t last_sequence = 0;
  bool have_sequence = false;
  std::uint64_t last_update_tick = 0;  // plane tick of last good batch

  bool operator==(const EndpointPersistentState&) const = default;
};

// Fixed-size log2-bucketed latency histogram: 64 saturating buckets,
// bucket i counting values in [2^i, 2^(i+1)) ns. Preallocated, merge-
// able, quantile-queryable — everything the enqueue-to-actuation p99
// needs without touching the heap on the record path.
class IngestLatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(std::uint64_t latency_ns);
  void Merge(const IngestLatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  // Upper edge of the bucket containing quantile q (0 when empty).
  std::uint64_t ApproxQuantileNs(double q) const;

 private:
  std::array<SatCounter, kBuckets> buckets_{};
  SatCounter count_;
};

struct ControlPlaneOptions {
  int num_endpoints = 1;
  int num_shards = 4;
  ControllerConfig config;
  BoundedControlQueue::Options queue;
};

class ControlPlane {
 public:
  // Applies a prefetcher state to one endpoint; returns false on
  // actuation failure (the plane arms a capped-exponential retry).
  // Called from drain/tick paths with the owning shard's lock held —
  // must not call back into the plane. Calls for one endpoint never
  // overlap, but parallel DrainShard calls invoke it concurrently for
  // endpoints in different shards, so any state it shares across
  // endpoints must be thread-safe.
  using ActuateFn =
      std::function<bool(std::uint32_t endpoint_id, bool enable)>;

  // Cumulative counters, all saturating. Snapshot is a per-shard merge
  // in shard order, so it is bit-identical at any drain thread count.
  struct Stats {
    // Ingest (queue admission, summed over shards).
    SatCounter frames_ingested;       // telemetry frames accepted
    SatCounter frames_shed;           // oldest-telemetry drops
    SatCounter frames_rejected;       // refused at the queue
    SatCounter commands_ingested;
    SatCounter command_overflows;
    SatCounter backpressure_signals;
    // Decode / validation (the trust boundary).
    SatCounter frames_decoded;        // framed + CRC + bounds clean
    SatCounter decode_failures;       // truncated/corrupt/foreign bytes
    SatCounter sequence_rejects;      // duplicate or stale frame replays
    SatCounter unknown_endpoints;     // valid frame, id out of range
    SatCounter samples_accepted;
    // Control decisions.
    SatCounter disables;
    SatCounter enables;
    SatCounter actuation_failures;
    SatCounter retry_backoff_skips;   // ticks spent waiting to retry
    SatCounter stale_endpoint_failsafes;
    SatCounter commands_applied;
    SatCounter warm_restores;         // endpoints adopted from a journal

    bool operator==(const Stats&) const = default;
  };

  ControlPlane(const ControlPlaneOptions& options, ActuateFn actuate);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // --- Hot ingest path (producer side, any thread) -----------------

  // Routes a raw wire frame to its shard's queue. The frame is not
  // decoded here — a fixed-offset peek extracts the endpoint id for
  // routing; validation happens at drain, after any shedding.
  PushResult IngestFrame(const unsigned char* data, std::size_t size,
                         std::uint64_t enqueue_time_ns);

  // Routes an operator/actuation command (never shed in favor of
  // telemetry; see BoundedControlQueue's policy).
  PushResult SubmitCommand(const ControlCommand& command,
                           std::uint64_t enqueue_time_ns);

  // --- Drain (consumer side, one caller per shard at a time) -------

  // Drains one shard's queue to empty: decodes frames, applies
  // commands, advances the per-endpoint FSMs, actuates toggles.
  // `now_ns` stamps the enqueue-to-actuation latency histogram.
  // Returns the number of messages consumed. Safe to call for
  // different shards concurrently.
  int DrainShard(int shard, std::uint64_t now_ns);

  // Serial convenience: drains every shard in shard order.
  int DrainAll(std::uint64_t now_ns);

  // Closes the current tick and opens the next. Per endpoint: a run of
  // max_missed_samples ticks without an accepted batch trips the
  // fail-safe (prefetchers ON, FSM reset; EndpointController), then a
  // pending actuation retry counts down or fires. tick() still reads the
  // closing tick while this runs. Call once per tick period, after
  // draining. Not concurrent with
  // drains: the control loop is drain phase → tick phase (drains may
  // parallelize across shards *within* the drain phase).
  void AdvanceTick();

  // --- Warm restart ------------------------------------------------

  // Snapshot of one endpoint / all endpoints (ascending id order).
  EndpointPersistentState ExportEndpoint(std::uint32_t endpoint_id);
  std::vector<EndpointPersistentState> ExportAllEndpoints();

  // Appends to `out` the records of endpoints whose committed state
  // changed since the last collection, in ascending id order, and
  // clears their dirty marks. Takes each shard's lock once. The
  // journaling cadence lives with the caller so file IO never rides the
  // drain; `out` reused across ticks makes this allocation-free.
  void CollectDirtyEndpoints(std::vector<EndpointPersistentState>* out);

  // Adopts journal-recovered endpoint records. Each record is validated
  // (id in range, then EndpointController::Restore: FSM invariants and
  // force/intent consistency); invalid records are skipped — that
  // endpoint cold-starts. For every adopted record the restored intent
  // is re-asserted through the actuator: the journal holds decisions
  // distilled from telemetry history, so on disagreement the hardware
  // moves to match the journal, never vice versa (DESIGN.md §11).
  // Returns the number of records adopted.
  int RestoreEndpoints(const std::vector<EndpointPersistentState>& records);

  // --- Observation -------------------------------------------------

  Stats SnapshotStats();
  IngestLatencyHistogram SnapshotLatency();
  // Queue counters summed over shards (shard order).
  BoundedControlQueue::Counters SnapshotQueueCounters();

  bool EndpointIntentEnabled(std::uint32_t endpoint_id);
  ControllerState EndpointControllerState(std::uint32_t endpoint_id);
  bool EndpointInFailsafe(std::uint32_t endpoint_id);
  bool EndpointForced(std::uint32_t endpoint_id);

  int ShardOf(std::uint32_t endpoint_id) const;
  std::uint64_t tick() const { return tick_; }
  int num_endpoints() const { return options_.num_endpoints; }
  int num_shards() const { return options_.num_shards; }

 private:
  // One endpoint: its controller core plus the plane's transport-level
  // state for it.
  struct Endpoint {
    Endpoint(const ControllerConfig& config, std::uint32_t id)
        : controller(config), endpoint_id(id) {}

    EndpointController controller;
    std::uint32_t endpoint_id;
    std::uint64_t last_sequence = 0;  // at-most-once watermark
    bool have_sequence = false;
    std::uint64_t last_update_tick = 0;  // tick of the last accepted batch
    bool journal_dirty = false;
  };

  // One shard: a queue plus the endpoint states it owns. Shard state
  // is guarded by its own mutex; no path takes two shard locks.
  struct Shard {
    BoundedControlQueue queue;
    Mutex mu;
    std::vector<Endpoint> endpoints LIMONCELLO_GUARDED_BY(mu);
    Stats stats LIMONCELLO_GUARDED_BY(mu);
    IngestLatencyHistogram latency LIMONCELLO_GUARDED_BY(mu);

    explicit Shard(const BoundedControlQueue::Options& queue_options)
        : queue(queue_options) {}
  };

  // Drain helpers; all require the shard's lock.
  void ApplyBatch(Shard& shard, const TelemetryBatch& batch,
                  std::uint64_t enqueue_time_ns, std::uint64_t now_ns)
      LIMONCELLO_REQUIRES(shard.mu);
  void ApplyCommand(Shard& shard, const ControlCommand& command)
      LIMONCELLO_REQUIRES(shard.mu);

  // endpoint_id must be < num_endpoints (checked).
  Endpoint& StateFor(Shard& shard, std::uint32_t endpoint_id)
      LIMONCELLO_REQUIRES(shard.mu);
  // The journal record of one endpoint; the caller holds its shard's
  // lock.
  static EndpointPersistentState RecordOf(const Endpoint& endpoint);
  // A copy of one endpoint's controller, read under its shard's lock.
  EndpointController ReadEndpoint(std::uint32_t endpoint_id);

  ControlPlaneOptions options_;
  ActuateFn actuate_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // endpoint id -> index into its shard's endpoint vector.
  std::vector<std::uint32_t> slot_of_;
  std::uint64_t tick_ = 0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_CONTROL_CONTROL_PLANE_H_
