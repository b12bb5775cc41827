// util/crc32: the tree's one CRC-32C. Known answers, and both kernels
// (the SSE4.2 instruction where the CPU has it, the portable slicing-by-8
// loop everywhere) against a bitwise reference at every length and
// alignment a frame can take.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace limoncello {
namespace {

// One bit at a time, straight from the definition (reflected 0x1EDC6F41).
std::uint32_t BitwiseCrc32c(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::uint32_t Portable(const void* data, std::size_t size) {
  return crc32_internal::Crc32ExtendPortable(0, data, size);
}

std::vector<unsigned char> RandomBytes(std::size_t size) {
  Rng rng(20240427);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.NextU64());
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  // RFC 3720 (iSCSI) B.4 and the CRC-32C check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Portable("123456789", 9), 0xE3069283u);
  const std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Portable(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(Crc32(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Portable(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Portable(nullptr, 0), 0u);
}

TEST(Crc32Test, BothKernelsMatchBitwiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = RandomBytes(128 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 128; ++size) {
      const unsigned char* p = bytes.data() + offset;
      const std::uint32_t want = BitwiseCrc32c(p, size);
      ASSERT_EQ(Crc32(p, size), want) << "offset " << offset << " size "
                                      << size;
      ASSERT_EQ(Portable(p, size), want) << "offset " << offset << " size "
                                         << size;
    }
  }
}

TEST(Crc32Test, ExtendContinuesAtEverySplit) {
  const std::vector<unsigned char> bytes = RandomBytes(200);
  const std::uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::size_t rest = bytes.size() - split;
    ASSERT_EQ(Crc32Extend(Crc32(bytes.data(), split), bytes.data() + split,
                          rest),
              whole)
        << "split " << split;
    ASSERT_EQ(crc32_internal::Crc32ExtendPortable(
                  Portable(bytes.data(), split), bytes.data() + split, rest),
              whole)
        << "split " << split;
  }
  EXPECT_EQ(Crc32Extend(0, bytes.data(), bytes.size()), whole);
}

TEST(Crc32Test, LargeBufferAgreesAcrossKernels) {
  const std::vector<unsigned char> bytes = RandomBytes(64 * 1024 + 13);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            BitwiseCrc32c(bytes.data(), bytes.size()));
  EXPECT_EQ(Portable(bytes.data(), bytes.size()),
            BitwiseCrc32c(bytes.data(), bytes.size()));
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
TEST(Crc32Test, UsesTheInstructionWhereTheCpuHasIt) {
  EXPECT_EQ(Crc32UsesHardware(), __builtin_cpu_supports("sse4.2") != 0);
}
#endif

}  // namespace
}  // namespace limoncello
