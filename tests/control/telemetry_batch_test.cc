// The wire format is a trust boundary: decode must round-trip every
// valid batch and reject every mutated frame without crashing.
#include "control/telemetry_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "testing/legacy_v1.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/wire.h"

namespace limoncello {
namespace {

TelemetryBatch MakeBatch(std::uint32_t num_samples, std::uint64_t seed = 7) {
  TelemetryBatch batch;
  batch.endpoint_id = 42;
  batch.sequence = 1234567;
  batch.base_tick = 99;
  batch.num_samples = num_samples;
  Rng rng(seed);
  for (std::uint32_t i = 0; i < num_samples; ++i) {
    batch.utilization[i] = rng.NextDouble();
  }
  return batch;
}

TEST(TelemetryBatchTest, RoundTripsEverySampleCount) {
  unsigned char frame[kMaxTelemetryFrameBytes];
  for (std::uint32_t n = 1; n <= TelemetryBatch::kMaxSamples; ++n) {
    const TelemetryBatch batch = MakeBatch(n, /*seed=*/n);
    const std::size_t size = EncodeTelemetryBatch(batch, frame);
    ASSERT_EQ(size, TelemetryFrameBytes(n));

    TelemetryBatch decoded;
    ASSERT_EQ(DecodeTelemetryBatch(frame, size, &decoded),
              BatchDecodeStatus::kOk);
    EXPECT_EQ(decoded.endpoint_id, batch.endpoint_id);
    EXPECT_EQ(decoded.sequence, batch.sequence);
    EXPECT_EQ(decoded.base_tick, batch.base_tick);
    ASSERT_EQ(decoded.num_samples, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded.utilization[i], batch.utilization[i]) << i;
    }
  }
}

TEST(TelemetryBatchTest, EncodeRejectsUnencodableBatches) {
  unsigned char frame[kMaxTelemetryFrameBytes];
  TelemetryBatch batch = MakeBatch(1);
  batch.num_samples = 0;
  EXPECT_EQ(EncodeTelemetryBatch(batch, frame), 0u);
  batch.num_samples = TelemetryBatch::kMaxSamples + 1;
  EXPECT_EQ(EncodeTelemetryBatch(batch, frame), 0u);
}

TEST(TelemetryBatchTest, BoundarySampleValuesSurvive) {
  unsigned char frame[kMaxTelemetryFrameBytes];
  TelemetryBatch batch = MakeBatch(3);
  batch.utilization[0] = 0.0;
  batch.utilization[1] = kMaxPlausibleBatchUtilization;
  batch.utilization[2] = std::nextafter(kMaxPlausibleBatchUtilization, 0.0);
  const std::size_t size = EncodeTelemetryBatch(batch, frame);
  TelemetryBatch decoded;
  ASSERT_EQ(DecodeTelemetryBatch(frame, size, &decoded),
            BatchDecodeStatus::kOk);
  EXPECT_EQ(decoded.utilization[1], kMaxPlausibleBatchUtilization);
}

// ---------------------------------------------------------------------------
// Fuzz-style mutation table: each row corrupts one aspect of an
// otherwise valid frame and names the exact status decode must return.

struct MutationCase {
  std::string name;
  std::function<void(std::vector<unsigned char>&)> mutate;
  BatchDecodeStatus want;
};

std::vector<unsigned char> ValidFrame(std::uint32_t num_samples = 8) {
  std::vector<unsigned char> frame(kMaxTelemetryFrameBytes);
  const std::size_t size =
      EncodeTelemetryBatch(MakeBatch(num_samples), frame.data());
  frame.resize(size);
  return frame;
}

TEST(TelemetryBatchTest, MutatedFramesRejectedWithNamedStatus) {
  const std::vector<MutationCase> cases = {
      {"empty", [](std::vector<unsigned char>& f) { f.clear(); },
       BatchDecodeStatus::kTruncated},
      {"header_only",
       [](std::vector<unsigned char>& f) {
         f.resize(kTelemetryBatchHeaderBytes);
       },
       BatchDecodeStatus::kTruncated},
      {"cut_mid_payload",
       [](std::vector<unsigned char>& f) { f.resize(f.size() / 2); },
       BatchDecodeStatus::kTruncated},
      {"cut_one_byte",
       [](std::vector<unsigned char>& f) { f.resize(f.size() - 1); },
       BatchDecodeStatus::kTruncated},
      {"wrong_magic",
       [](std::vector<unsigned char>& f) { StoreU32(f.data(), 0xDEADBEEF); },
       BatchDecodeStatus::kBadMagic},
      {"zeroed_magic",
       [](std::vector<unsigned char>& f) { StoreU32(f.data(), 0); },
       BatchDecodeStatus::kBadMagic},
      {"future_version",
       [](std::vector<unsigned char>& f) {
         StoreU32(f.data() + 4, kTelemetryBatchVersion + 1);
       },
       BatchDecodeStatus::kBadVersion},
      {"size_field_grown",
       [](std::vector<unsigned char>& f) {
         StoreU32(f.data() + 8, LoadU32(f.data() + 8) + 8);
       },
       BatchDecodeStatus::kTruncated},
      {"size_field_shrunk_within_range",
       // Still a plausible payload size, so the CRC (computed over the
       // claimed range) is what catches the inconsistency.
       [](std::vector<unsigned char>& f) {
         StoreU32(f.data() + 8, LoadU32(f.data() + 8) - 8);
       },
       BatchDecodeStatus::kBadCrc},
      {"size_field_below_minimum",
       [](std::vector<unsigned char>& f) {
         StoreU32(f.data() + 8, kTelemetryBatchFixedPayloadBytes);
       },
       BatchDecodeStatus::kBadLength},
      {"size_field_above_maximum",
       [](std::vector<unsigned char>& f) {
         StoreU32(f.data() + 8,
                  kTelemetryBatchFixedPayloadBytes +
                      8 * (TelemetryBatch::kMaxSamples + 1));
       },
       BatchDecodeStatus::kBadLength},
      {"payload_bit_flip",
       [](std::vector<unsigned char>& f) {
         f[kTelemetryBatchHeaderBytes + 2] ^= 0x10;
       },
       BatchDecodeStatus::kBadCrc},
      {"crc_bit_flip",
       [](std::vector<unsigned char>& f) { f[f.size() - 1] ^= 0x01; },
       BatchDecodeStatus::kBadCrc},
      {"trailing_garbage_beyond_claimed_frame_ignored",
       // `size` is an upper bound: the frame is self-delimiting, so
       // extra bytes after the CRC do not invalidate it.
       [](std::vector<unsigned char>& f) { f.push_back(0xAB); },
       BatchDecodeStatus::kOk},
  };

  for (const MutationCase& c : cases) {
    std::vector<unsigned char> frame = ValidFrame();
    c.mutate(frame);
    TelemetryBatch out;
    EXPECT_EQ(DecodeTelemetryBatch(frame.data(), frame.size(), &out), c.want)
        << c.name;
  }
}

// Sample-count and sample-value corruption must be re-CRC'd to reach
// their dedicated checks (otherwise kBadCrc masks them) — that is the
// point: a *consistent* frame carrying garbage is still rejected.
std::vector<unsigned char> ReframedMutation(
    std::uint32_t num_samples,
    const std::function<void(TelemetryBatch&)>& mutate) {
  TelemetryBatch batch = MakeBatch(num_samples);
  mutate(batch);
  // Encode by hand so invalid batches (which EncodeTelemetryBatch
  // refuses) still produce a well-framed byte stream.
  const std::uint32_t claimed = batch.num_samples;
  // Keep the size field inside its valid range (at least one sample
  // slot) so a garbage count reaches the dedicated sample-count check
  // instead of the earlier length-range check.
  const std::uint32_t slots =
      std::min(std::max(claimed, 1u), TelemetryBatch::kMaxSamples);
  const std::size_t payload =
      kTelemetryBatchFixedPayloadBytes + 8 * static_cast<std::size_t>(slots);
  std::vector<unsigned char> f(kTelemetryBatchHeaderBytes + payload + 4);
  StoreU32(f.data(), kTelemetryBatchMagic);
  StoreU32(f.data() + 4, kTelemetryBatchVersion);
  StoreU32(f.data() + 8, static_cast<std::uint32_t>(payload));
  unsigned char* p = f.data() + kTelemetryBatchHeaderBytes;
  StoreU32(p, batch.endpoint_id);
  StoreU64(p + 4, batch.sequence);
  StoreU32(p + 12, batch.base_tick);
  StoreU32(p + 16, claimed);
  for (std::uint32_t i = 0; i < slots; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &batch.utilization[i], sizeof(bits));
    StoreU64(p + 20 + 8 * i, bits);
  }
  StoreU32(f.data() + f.size() - 4,
           Crc32(f.data() + 4, 8 + payload));
  return f;
}

TEST(TelemetryBatchTest, ConsistentFramesWithGarbageContentRejected) {
  struct Row {
    std::string name;
    std::function<void(TelemetryBatch&)> mutate;
    BatchDecodeStatus want;
  };
  const std::vector<Row> rows = {
      {"zero_samples",
       [](TelemetryBatch& b) { b.num_samples = 0; },
       BatchDecodeStatus::kBadSampleCount},
      {"too_many_samples",
       [](TelemetryBatch& b) {
         b.num_samples = TelemetryBatch::kMaxSamples + 1;
       },
       BatchDecodeStatus::kBadSampleCount},
      {"nan_sample",
       [](TelemetryBatch& b) {
         b.utilization[3] = std::numeric_limits<double>::quiet_NaN();
       },
       BatchDecodeStatus::kInvalidSample},
      {"inf_sample",
       [](TelemetryBatch& b) {
         b.utilization[0] = std::numeric_limits<double>::infinity();
       },
       BatchDecodeStatus::kInvalidSample},
      {"negative_sample",
       [](TelemetryBatch& b) { b.utilization[7] = -0.25; },
       BatchDecodeStatus::kInvalidSample},
      {"implausible_sample",
       [](TelemetryBatch& b) {
         b.utilization[5] = kMaxPlausibleBatchUtilization * 2;
       },
       BatchDecodeStatus::kInvalidSample},
  };
  for (const Row& row : rows) {
    const std::vector<unsigned char> frame = ReframedMutation(8, row.mutate);
    TelemetryBatch out;
    EXPECT_EQ(DecodeTelemetryBatch(frame.data(), frame.size(), &out),
              row.want)
        << row.name;
  }
}

// Random byte-level fuzz: arbitrary mutations of valid frames (and pure
// noise) must never crash or be accepted with a corrupted payload that
// passes CRC by luck (2^-32 per trial; 0 expected over 10k trials).
TEST(TelemetryBatchTest, RandomMutationsNeverCrashDecode) {
  Rng rng(2026);
  const std::vector<unsigned char> base = ValidFrame(16);
  int accepted = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<unsigned char> frame = base;
    const int flips = 1 + static_cast<int>(rng.NextU64() % 8);
    for (int i = 0; i < flips; ++i) {
      frame[rng.NextU64() % frame.size()] ^=
          static_cast<unsigned char>(1u << (rng.NextU64() % 8));
    }
    if (rng.NextBernoulli(0.25)) {
      frame.resize(rng.NextU64() % (frame.size() + 1));
    }
    TelemetryBatch out;
    if (DecodeTelemetryBatch(frame.data(), frame.size(), &out) ==
        BatchDecodeStatus::kOk) {
      // Only mutations that happen to leave the covered bytes intact may
      // be accepted (e.g. the resize landed exactly at full size and all
      // flips hit... nothing — impossible with >= 1 flip unless the flip
      // hit the unused tail). Count them; they must be vanishingly rare.
      ++accepted;
    }
  }
  EXPECT_LE(accepted, 1);
}

TEST(TelemetryBatchTest, StatusNamesAreStable) {
  EXPECT_STREQ(BatchDecodeStatusName(BatchDecodeStatus::kOk), "ok");
  EXPECT_STREQ(BatchDecodeStatusName(BatchDecodeStatus::kBadCrc), "bad_crc");
}

// Frames from a version-1 exporter (IEEE CRC-32) are refused by decode
// — named by their version — and a current header over an IEEE checksum
// fails the CRC. Through the plane, neither reaches an endpoint.
TEST(TelemetryBatchTest, Version1FramesRejected) {
  std::vector<unsigned char> v1(kMaxTelemetryFrameBytes);
  v1.resize(EncodeTelemetryBatch(MakeBatch(8), v1.data()));
  RewriteAsVersion1(v1.data(), v1.size());
  TelemetryBatch out;
  EXPECT_EQ(DecodeTelemetryBatch(v1.data(), v1.size(), &out),
            BatchDecodeStatus::kBadVersion);

  std::vector<unsigned char> ieee_v2 = v1;
  StoreU32(ieee_v2.data() + 4, kTelemetryBatchVersion);
  StoreU32(ieee_v2.data() + ieee_v2.size() - 4,
           IeeeCrc32(ieee_v2.data() + 4, ieee_v2.size() - 8));
  EXPECT_EQ(DecodeTelemetryBatch(ieee_v2.data(), ieee_v2.size(), &out),
            BatchDecodeStatus::kBadCrc);

  ControlPlaneOptions options;
  options.num_endpoints = 64;
  int writes = 0;
  ControlPlane plane(options, [&writes](std::uint32_t, bool) {
    ++writes;
    return true;
  });
  ASSERT_EQ(plane.IngestFrame(v1.data(), v1.size(), 0), PushResult::kOk);
  ASSERT_EQ(plane.IngestFrame(ieee_v2.data(), ieee_v2.size(), 0),
            PushResult::kOk);
  plane.DrainAll(0);
  const ControlPlane::Stats stats = plane.SnapshotStats();
  EXPECT_EQ(stats.decode_failures, 2u);
  EXPECT_EQ(stats.frames_decoded, 0u);
  EXPECT_EQ(stats.samples_accepted, 0u);
  EXPECT_EQ(writes, 0);
}

}  // namespace
}  // namespace limoncello
