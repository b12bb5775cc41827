// LAC1 actuation frame codec: round trips, and the decode trust
// boundary against truncated, corrupt, foreign, and semantically
// invalid frames.
#include "control/actuation_frame.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "testing/legacy_v1.h"
#include "util/wire.h"

namespace limoncello {
namespace {

TEST(ActuationFrameTest, RoundTripsBothLevels) {
  for (const bool enable : {true, false}) {
    ActuationCommandFrame command;
    command.endpoint_id = 0xABCD1234u;
    command.enable = enable;
    unsigned char frame[kActuationFrameBytes];
    ASSERT_EQ(EncodeActuationCommand(command, frame),
              kActuationFrameBytes);

    ActuationCommandFrame decoded;
    ASSERT_EQ(DecodeActuationCommand(frame, sizeof(frame), &decoded),
              ActuationDecodeStatus::kOk);
    EXPECT_EQ(decoded.endpoint_id, command.endpoint_id);
    EXPECT_EQ(decoded.enable, enable);
  }
}

TEST(ActuationFrameTest, TruncationAtEveryLengthRejected) {
  ActuationCommandFrame command;
  command.endpoint_id = 7;
  unsigned char frame[kActuationFrameBytes];
  ASSERT_EQ(EncodeActuationCommand(command, frame), kActuationFrameBytes);
  ActuationCommandFrame out;
  for (std::size_t n = 0; n < kActuationFrameBytes; ++n) {
    EXPECT_NE(DecodeActuationCommand(frame, n, &out),
              ActuationDecodeStatus::kOk)
        << "accepted a " << n << "-byte prefix";
  }
}

TEST(ActuationFrameTest, EveryFlippedBitRejected) {
  // 24 bytes, 192 single-bit corruptions: each must fail magic,
  // version, length, CRC, or value validation — never decode as a
  // different command.
  ActuationCommandFrame command;
  command.endpoint_id = 3;
  command.enable = false;
  unsigned char frame[kActuationFrameBytes];
  ASSERT_EQ(EncodeActuationCommand(command, frame), kActuationFrameBytes);
  for (std::size_t byte = 0; byte < kActuationFrameBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      unsigned char mutated[kActuationFrameBytes];
      for (std::size_t i = 0; i < kActuationFrameBytes; ++i) {
        mutated[i] = frame[i];
      }
      mutated[byte] ^= static_cast<unsigned char>(1u << bit);
      ActuationCommandFrame out;
      EXPECT_NE(DecodeActuationCommand(mutated, sizeof(mutated), &out),
                ActuationDecodeStatus::kOk)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ActuationFrameTest, ForeignMagicAndBadValueNamed) {
  ActuationCommandFrame command;
  unsigned char frame[kActuationFrameBytes];
  ASSERT_EQ(EncodeActuationCommand(command, frame), kActuationFrameBytes);
  ActuationCommandFrame out;

  unsigned char foreign[kActuationFrameBytes];
  for (std::size_t i = 0; i < kActuationFrameBytes; ++i) {
    foreign[i] = frame[i];
  }
  StoreU32(foreign, 0x4C544231u);  // LTB1: telemetry magic on this leg
  EXPECT_EQ(DecodeActuationCommand(foreign, sizeof(foreign), &out),
            ActuationDecodeStatus::kBadMagic);

  EXPECT_STREQ(ActuationDecodeStatusName(ActuationDecodeStatus::kBadValue),
               "bad_value");
}

// Version-1 actuation frames (IEEE CRC-32) are refused, never applied.
TEST(ActuationFrameTest, Version1FramesRejected) {
  ActuationCommandFrame command;
  command.endpoint_id = 17;
  command.enable = false;
  unsigned char frame[kActuationFrameBytes];
  ASSERT_EQ(EncodeActuationCommand(command, frame), kActuationFrameBytes);
  RewriteAsVersion1(frame, sizeof(frame));
  ActuationCommandFrame out;
  EXPECT_EQ(DecodeActuationCommand(frame, sizeof(frame), &out),
            ActuationDecodeStatus::kBadVersion);

  StoreU32(frame + 4, kActuationFrameVersion);  // IEEE CRC, current header
  StoreU32(frame + kActuationFrameBytes - 4,
           IeeeCrc32(frame + 4, kActuationFrameBytes - 8));
  EXPECT_EQ(DecodeActuationCommand(frame, sizeof(frame), &out),
            ActuationDecodeStatus::kBadCrc);
}

}  // namespace
}  // namespace limoncello
