// Stream-to-frame reassembly for the control plane's socket transport.
//
// TCP and UNIX stream sockets deliver bytes, not frames: one send can
// arrive split across many reads, many sends can coalesce into one
// read, and a torn upstream (the flaky proxy truncates frames on
// purpose) leaves the stream positioned mid-garbage. The reassembler
// turns that byte soup back into whole CRC-valid frames:
//
//   * A fixed buffer, allocated once at construction, accumulates
//     bytes until a complete frame is present. Steady state performs
//     zero heap allocations.
//   * A frame is surfaced only after its magic, version-independent
//     length bounds, and CRC-32C all check out — the sink never sees a
//     torn or corrupt frame (nor a version-1 frame: its IEEE CRC-32
//     fails the check).
//   * Any violation (wrong magic, implausible length, CRC mismatch)
//     advances the scan by ONE byte and rescans: byte-scan resync, the
//     same discipline the journal replay uses. A truncated frame costs
//     at most its own bytes; the next intact frame's magic re-anchors
//     the stream.
//   * A length field beyond max_payload_bytes is rejected from the
//     4-byte header alone — before the reassembler ever buffers (or
//     anyone allocates) the claimed body. A hostile 4 GiB length costs
//     nothing.
//
// The reassembler is format-agnostic above the framing discipline:
// it is parameterized on the magic and payload bound, so the same code
// reassembles LTB1 telemetry (exporter → plane) and LAC1 actuation
// (plane → exporter) streams.
#ifndef LIMONCELLO_TRANSPORT_FRAME_REASSEMBLER_H_
#define LIMONCELLO_TRANSPORT_FRAME_REASSEMBLER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats/saturating.h"

namespace limoncello {

class FrameReassembler {
 public:
  struct Options {
    std::uint32_t magic = 0;
    // Largest payload the format allows; the size field is validated
    // against this before the frame body is accepted into the buffer.
    std::size_t max_payload_bytes = 0;
    // Largest single Ingest() input the caller will offer (the read
    // chunk size of the owning socket loop). Sizes the buffer.
    std::size_t read_chunk_bytes = 4096;
  };

  struct Stats {
    SatCounter frames_extracted;   // CRC-valid frames handed to the sink
    SatCounter resync_bytes;       // bytes skipped hunting for a magic
    SatCounter corrupt_frames;     // framed but CRC-failed candidates
    SatCounter oversize_rejects;   // length field beyond the bound

    bool operator==(const Stats&) const = default;
  };

  // The sink receives each complete validated frame (header + payload +
  // CRC). The pointer is into the reassembler's buffer and is valid
  // only for the duration of the call.
  using FrameSink =
      std::function<void(const unsigned char* frame, std::size_t size)>;

  explicit FrameReassembler(const Options& options);

  // Feeds `size` freshly-read bytes (size <= read_chunk_bytes) and
  // surfaces every frame they complete. Returns the number of frames
  // handed to `sink`. Never allocates.
  std::size_t Ingest(const unsigned char* data, std::size_t size,
                     const FrameSink& sink);

  // Bytes held back waiting for the rest of a frame. Nonzero at EOF
  // means the peer died mid-frame (a truncated final frame) — the
  // bytes are counted and dropped by the owner, never delivered.
  std::size_t buffered_bytes() const { return buffered_; }

  // Drops any partial frame (connection teardown).
  void Reset() { buffered_ = 0; }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kHeaderBytes = 12;

  std::size_t FrameBytesFor(std::size_t payload_bytes) const {
    return kHeaderBytes + payload_bytes + 4 /* CRC */;
  }

  Options options_;
  std::vector<unsigned char> buffer_;
  std::size_t buffered_ = 0;
  Stats stats_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_TRANSPORT_FRAME_REASSEMBLER_H_
