// The control plane's wire format: CRC-framed telemetry batches.
//
// Endpoints ship utilization samples to the control daemon as versioned
// binary frames: magic "LTB1", version (2), payload size, payload,
// CRC-32C (util/crc32.h; same framing discipline as the state journal —
// the CRC covers version + size + payload, the magic is frame sync).
// Version-1 frames, which carried the IEEE CRC-32, are rejected. The
// payload is one batch: endpoint id, a per-endpoint send sequence
// number, the exporter tick of the first sample, and up to kMaxSamples
// utilization doubles.
//
// Decode is the trust boundary. Frames arrive over a transport that the
// chaos layer (src/faults/transport_chaos.h) drops, truncates, reorders,
// duplicates and stales on purpose, so Decode validates everything
// before a byte reaches controller state: framing (magic/version/length/
// CRC), sample count bounds, and per-sample value bounds (finite, in
// [0, kMaxPlausibleUtilization]). A frame that fails any check is
// rejected with a status naming the first violation; Decode never
// crashes on any input and never allocates (the batch struct is inline).
// Sequence/staleness validation needs per-endpoint history and happens
// one layer up, in ControlPlane.
#ifndef LIMONCELLO_CONTROL_TELEMETRY_BATCH_H_
#define LIMONCELLO_CONTROL_TELEMETRY_BATCH_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace limoncello {

// One decoded batch. Fixed-size by construction so queue slots and decode
// scratch never touch the heap.
struct TelemetryBatch {
  static constexpr std::uint32_t kMaxSamples = 64;

  std::uint32_t endpoint_id = 0;
  // Per-endpoint send sequence, starting at 1. The control plane rejects
  // regressions (duplicate / reordered-behind frames).
  std::uint64_t sequence = 0;
  // Exporter tick of utilization[0]; sample i covers base_tick + i.
  std::uint32_t base_tick = 0;
  std::uint32_t num_samples = 0;
  std::array<double, kMaxSamples> utilization{};
};

// Framing constants, shared by encode/decode/tests and the queue's slot
// sizing.
inline constexpr std::uint32_t kTelemetryBatchMagic = 0x4C544231;  // "LTB1"
inline constexpr std::uint32_t kTelemetryBatchVersion = 2;
inline constexpr std::size_t kTelemetryBatchHeaderBytes = 12;
inline constexpr std::size_t kTelemetryBatchFixedPayloadBytes = 20;
inline constexpr std::size_t kMaxTelemetryFrameBytes =
    kTelemetryBatchHeaderBytes + kTelemetryBatchFixedPayloadBytes +
    8 * TelemetryBatch::kMaxSamples + 4 /* CRC */;

// Utilization beyond this is telemetry garbage regardless of transport
// integrity (matches LimoncelloDaemon's sample validation bound).
inline constexpr double kMaxPlausibleBatchUtilization = 10.0;

enum class BatchDecodeStatus {
  kOk,
  kTruncated,      // fewer bytes than the frame claims (torn / cut)
  kBadMagic,       // first word is not LTB1
  kBadVersion,     // intact frame from a foreign binary version
  kBadLength,      // size field disagrees with the sample count
  kBadCrc,         // checksum mismatch (bit rot / mid-frame corruption)
  kBadSampleCount, // zero or more than kMaxSamples samples
  kInvalidSample,  // non-finite or out-of-range utilization
};

const char* BatchDecodeStatusName(BatchDecodeStatus status);

// Encodes `batch` into `out` (at least kMaxTelemetryFrameBytes). Returns
// the frame size in bytes, or 0 when the batch itself is unencodable
// (num_samples outside [1, kMaxSamples]). Never allocates.
std::size_t EncodeTelemetryBatch(const TelemetryBatch& batch,
                                 unsigned char* out);

// Exact frame size a batch with `num_samples` samples encodes to.
constexpr std::size_t TelemetryFrameBytes(std::uint32_t num_samples) {
  return kTelemetryBatchHeaderBytes + kTelemetryBatchFixedPayloadBytes +
         8 * num_samples + 4;
}

// Decodes and validates one frame. On kOk, *out holds the batch; on any
// other status *out is unspecified. Tolerates every malformed input
// without crashing; never allocates.
BatchDecodeStatus DecodeTelemetryBatch(const unsigned char* data,
                                       std::size_t size,
                                       TelemetryBatch* out);

}  // namespace limoncello

#endif  // LIMONCELLO_CONTROL_TELEMETRY_BATCH_H_
