// The actuation leg of the control plane's wire protocol.
//
// Telemetry flows endpoint → plane as LTB1 frames (telemetry_batch.h);
// decisions flow back plane → endpoint as LAC1 frames carrying one
// command: set this endpoint's prefetchers to enable/disable. The
// framing discipline is identical — magic, version (2), payload size,
// payload, CRC-32C over version + size + payload — so both directions
// share the FrameReassembler and the same resync story when the
// transport tears a stream mid-frame.
//
// Decode is a trust boundary exactly like the telemetry side: the
// exporter runs on the machine whose prefetchers get toggled, and a
// corrupt or replayed actuation must be dropped, not applied. Sequence
// numbering is deliberately absent: actuation is idempotent level
// assignment ("be enabled"), so applying a duplicate is harmless and
// the plane's journal — not the wire — is the source of truth.
#ifndef LIMONCELLO_CONTROL_ACTUATION_FRAME_H_
#define LIMONCELLO_CONTROL_ACTUATION_FRAME_H_

#include <cstddef>
#include <cstdint>

namespace limoncello {

struct ActuationCommandFrame {
  std::uint32_t endpoint_id = 0;
  bool enable = true;
};

inline constexpr std::uint32_t kActuationFrameMagic = 0x4C414331;  // "LAC1"
inline constexpr std::uint32_t kActuationFrameVersion = 2;
inline constexpr std::size_t kActuationFrameHeaderBytes = 12;
inline constexpr std::size_t kActuationFramePayloadBytes = 8;
inline constexpr std::size_t kActuationFrameBytes =
    kActuationFrameHeaderBytes + kActuationFramePayloadBytes + 4 /* CRC */;

enum class ActuationDecodeStatus {
  kOk,
  kTruncated,
  kBadMagic,
  kBadVersion,
  kBadLength,
  kBadCrc,
  kBadValue,  // enable field is neither 0 nor 1
};

const char* ActuationDecodeStatusName(ActuationDecodeStatus status);

// Encodes one command into `out` (at least kActuationFrameBytes).
// Returns kActuationFrameBytes. Never allocates.
std::size_t EncodeActuationCommand(const ActuationCommandFrame& command,
                                   unsigned char* out);

// Decodes and validates one frame. On kOk, *out holds the command; on
// any other status *out is unspecified. Never crashes on any input;
// never allocates.
ActuationDecodeStatus DecodeActuationCommand(const unsigned char* data,
                                             std::size_t size,
                                             ActuationCommandFrame* out);

}  // namespace limoncello

#endif  // LIMONCELLO_CONTROL_ACTUATION_FRAME_H_
