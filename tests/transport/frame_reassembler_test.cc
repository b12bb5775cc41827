// FrameReassembler: the stream-to-frame boundary cases the socket
// transport lives or dies by — split deliveries, coalesced deliveries,
// torn final frames, hostile length fields, and byte-scan resync.
#include "transport/frame_reassembler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "control/actuation_frame.h"
#include "control/telemetry_batch.h"
#include "testing/legacy_v1.h"
#include "util/rng.h"
#include "util/wire.h"

namespace limoncello {
namespace {

FrameReassembler::Options TelemetryReassembly() {
  FrameReassembler::Options options;
  options.magic = kTelemetryBatchMagic;
  options.max_payload_bytes = kTelemetryBatchFixedPayloadBytes +
                              8 * TelemetryBatch::kMaxSamples;
  options.read_chunk_bytes = 4096;
  return options;
}

std::vector<unsigned char> MakeFrame(std::uint64_t sequence,
                                     std::uint32_t num_samples = 2) {
  TelemetryBatch batch;
  batch.endpoint_id = 7;
  batch.sequence = sequence;
  batch.num_samples = num_samples;
  for (std::uint32_t i = 0; i < num_samples; ++i) {
    batch.utilization[i] = 0.5;
  }
  std::vector<unsigned char> frame(kMaxTelemetryFrameBytes);
  const std::size_t size = EncodeTelemetryBatch(batch, frame.data());
  EXPECT_GT(size, 0u);
  frame.resize(size);
  return frame;
}

// Collects delivered frames' sequence numbers (decoding proves the sink
// only ever sees intact frames).
struct Collector {
  std::vector<std::uint64_t> sequences;

  FrameReassembler::FrameSink Sink() {
    return [this](const unsigned char* frame, std::size_t size) {
      TelemetryBatch batch;
      ASSERT_EQ(DecodeTelemetryBatch(frame, size, &batch),
                BatchDecodeStatus::kOk);
      sequences.push_back(batch.sequence);
    };
  }
};

TEST(FrameReassemblerTest, WholeFrameInOneRead) {
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  const auto frame = MakeFrame(1);
  EXPECT_EQ(reassembler.Ingest(frame.data(), frame.size(),
                               collector.Sink()),
            1u);
  EXPECT_EQ(collector.sequences, std::vector<std::uint64_t>{1});
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, OneByteAtATimeDelivery) {
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  const auto frame = MakeFrame(3);
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    EXPECT_EQ(reassembler.Ingest(&frame[i], 1, collector.Sink()), 0u)
        << "frame surfaced " << (frame.size() - 1 - i)
        << " bytes before its CRC arrived";
  }
  EXPECT_EQ(reassembler.Ingest(&frame[frame.size() - 1], 1,
                               collector.Sink()),
            1u);
  EXPECT_EQ(collector.sequences, std::vector<std::uint64_t>{3});
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, TwoFramesCoalescedInOneRead) {
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  auto bytes = MakeFrame(1);
  const auto second = MakeFrame(2, 5);
  bytes.insert(bytes.end(), second.begin(), second.end());
  EXPECT_EQ(reassembler.Ingest(bytes.data(), bytes.size(),
                               collector.Sink()),
            2u);
  EXPECT_EQ(collector.sequences, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FrameReassemblerTest, TruncatedFinalFrameStaysBuffered) {
  // The peer dies mid-frame: the partial frame is held back, never
  // delivered. buffered_bytes() at EOF is how the owner counts the
  // drop (SocketListener::Stats::partial_frame_drops).
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  auto bytes = MakeFrame(1);
  const auto torn = MakeFrame(2);
  bytes.insert(bytes.end(), torn.begin(), torn.end() - 9);
  EXPECT_EQ(reassembler.Ingest(bytes.data(), bytes.size(),
                               collector.Sink()),
            1u);
  EXPECT_EQ(collector.sequences, std::vector<std::uint64_t>{1});
  EXPECT_EQ(reassembler.buffered_bytes(), torn.size() - 9);
  reassembler.Reset();  // connection teardown
  EXPECT_EQ(reassembler.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, OversizeLengthRejectedFromHeaderAlone) {
  // A hostile length field (4 GiB payload) must be rejected from the
  // 12-byte header, before anything buffers the claimed body; the
  // stream then resyncs to the next real frame.
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  unsigned char header[12];
  StoreU32(header, kTelemetryBatchMagic);
  StoreU32(header + 4, kTelemetryBatchVersion);
  StoreU32(header + 8, 0xFFFFFF00u);
  EXPECT_EQ(reassembler.Ingest(header, sizeof(header), collector.Sink()),
            0u);
  EXPECT_EQ(reassembler.stats().oversize_rejects, 1u);
  // The 12 poison bytes cost at most themselves: a real frame following
  // them is recovered intact.
  const auto frame = MakeFrame(9);
  EXPECT_EQ(reassembler.Ingest(frame.data(), frame.size(),
                               collector.Sink()),
            1u);
  EXPECT_EQ(collector.sequences, std::vector<std::uint64_t>{9});
}

TEST(FrameReassemblerTest, CorruptFrameResyncsToNextMagic) {
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  auto corrupt = MakeFrame(1);
  corrupt[corrupt.size() / 2] ^= 0x5A;  // body flip: CRC now fails
  const auto good = MakeFrame(2);
  corrupt.insert(corrupt.end(), good.begin(), good.end());
  EXPECT_EQ(reassembler.Ingest(corrupt.data(), corrupt.size(),
                               collector.Sink()),
            1u);
  EXPECT_EQ(collector.sequences, std::vector<std::uint64_t>{2});
  EXPECT_EQ(reassembler.stats().corrupt_frames, 1u);
  EXPECT_GT(reassembler.stats().resync_bytes, 0u);
}

TEST(FrameReassemblerTest, RandomSplitBoundariesDeliverEverything) {
  // 200 frames fed in random-size chunks: every frame surfaces exactly
  // once, in order, regardless of where the reads land.
  FrameReassembler reassembler(TelemetryReassembly());
  Collector collector;
  std::vector<unsigned char> stream;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    const auto frame = MakeFrame(s, 1 + static_cast<std::uint32_t>(s % 8));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  Rng rng(1234);
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t chunk =
        1 + rng.NextBounded(97);  // 1..97 bytes per "read"
    const std::size_t n = std::min(chunk, stream.size() - offset);
    reassembler.Ingest(stream.data() + offset, n, collector.Sink());
    offset += n;
  }
  ASSERT_EQ(collector.sequences.size(), 200u);
  for (std::uint64_t s = 1; s <= 200; ++s) {
    EXPECT_EQ(collector.sequences[s - 1], s);
  }
  EXPECT_EQ(reassembler.stats().frames_extracted, 200u);
  EXPECT_EQ(reassembler.stats().corrupt_frames, 0u);
  EXPECT_EQ(reassembler.stats().resync_bytes, 0u);
}

// A version-1 peer's frames carry the IEEE CRC-32: on either leg the
// reassembler resyncs past them and delivers only the current frames
// around them.
TEST(FrameReassemblerTest, Version1FramesNeverReachTheSink) {
  FrameReassembler telemetry(TelemetryReassembly());
  Collector collector;
  std::vector<unsigned char> stream = MakeFrame(1);
  auto old = MakeFrame(2, 8);
  RewriteAsVersion1(old.data(), old.size());
  stream.insert(stream.end(), old.begin(), old.end());
  const auto after = MakeFrame(3);
  stream.insert(stream.end(), after.begin(), after.end());
  EXPECT_EQ(telemetry.Ingest(stream.data(), stream.size(), collector.Sink()),
            2u);
  EXPECT_EQ(collector.sequences, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(telemetry.stats().corrupt_frames, 1u);

  FrameReassembler::Options options;
  options.magic = kActuationFrameMagic;
  options.max_payload_bytes = kActuationFramePayloadBytes;
  options.read_chunk_bytes = 4096;
  FrameReassembler actuation(options);
  unsigned char frames[2 * kActuationFrameBytes];
  ActuationCommandFrame command;
  command.endpoint_id = 5;
  ASSERT_EQ(EncodeActuationCommand(command, frames), kActuationFrameBytes);
  RewriteAsVersion1(frames, kActuationFrameBytes);
  command.endpoint_id = 6;
  ASSERT_EQ(EncodeActuationCommand(command, frames + kActuationFrameBytes),
            kActuationFrameBytes);
  std::vector<std::uint32_t> delivered;
  EXPECT_EQ(actuation.Ingest(frames, sizeof(frames),
                             [&](const unsigned char* frame,
                                 std::size_t size) {
                               ActuationCommandFrame out;
                               ASSERT_EQ(DecodeActuationCommand(frame, size,
                                                                &out),
                                         ActuationDecodeStatus::kOk);
                               delivered.push_back(out.endpoint_id);
                             }),
            1u);
  EXPECT_EQ(delivered, std::vector<std::uint32_t>{6});
  EXPECT_EQ(actuation.stats().corrupt_frames, 1u);
}

}  // namespace
}  // namespace limoncello
