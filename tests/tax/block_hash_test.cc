#include "tax/block_hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/crc32.h"
#include "util/rng.h"

namespace limoncello {
namespace {

std::string RandomString(std::size_t n, std::uint64_t seed) {
  std::string s(n, '\0');
  Rng rng(seed);
  for (char& c : s) c = static_cast<char>(rng.NextBounded(256));
  return s;
}

TEST(BlockHash64Test, DeterministicForSameInput) {
  const std::string data = RandomString(10000, 1);
  EXPECT_EQ(BlockHash64(data.data(), data.size(), 7),
            BlockHash64(data.data(), data.size(), 7));
}

TEST(BlockHash64Test, SeedChangesHash) {
  const std::string data = RandomString(100, 2);
  EXPECT_NE(BlockHash64(data.data(), data.size(), 1),
            BlockHash64(data.data(), data.size(), 2));
}

TEST(BlockHash64Test, SingleBitFlipChangesHash) {
  std::string data = RandomString(4096, 3);
  const std::uint64_t before = BlockHash64(data.data(), data.size());
  data[2048] ^= 1;
  EXPECT_NE(BlockHash64(data.data(), data.size()), before);
}

TEST(BlockHash64Test, AllLengthsProduceDistinctishHashes) {
  // Every length 0..200 of the same buffer hashes differently (length is
  // mixed in).
  const std::string data = RandomString(256, 4);
  std::set<std::uint64_t> hashes;
  for (std::size_t n = 0; n <= 200; ++n) {
    hashes.insert(BlockHash64(data.data(), n));
  }
  EXPECT_EQ(hashes.size(), 201u);
}

TEST(BlockHash64Test, PrefetchingDoesNotChangeValue) {
  const std::string data = RandomString(1 << 20, 5);
  SoftPrefetchConfig config;
  config.min_size_bytes = 0;
  EXPECT_EQ(BlockHash64(data.data(), data.size(), 0, config),
            BlockHash64(data.data(), data.size(), 0));
}

TEST(BlockHash64Test, AvalancheDistributesBits) {
  // Hash a counter; each output bit should flip ~50 % of the time.
  constexpr int kN = 4096;
  int bit_counts[64] = {0};
  for (std::uint64_t i = 0; i < kN; ++i) {
    const std::uint64_t h = BlockHash64(&i, sizeof(i));
    for (int b = 0; b < 64; ++b) {
      if ((h >> b) & 1) ++bit_counts[b];
    }
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(static_cast<double>(bit_counts[b]) / kN, 0.5, 0.06)
        << "bit " << b;
  }
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vectors (RFC 3720 / iSCSI).
  const std::string nine = "123456789";
  EXPECT_EQ(Crc32c(nine.data(), nine.size()), 0xe3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, PrefetchingDoesNotChangeValue) {
  const std::string data = RandomString(1 << 18, 6);
  SoftPrefetchConfig config;
  config.min_size_bytes = 0;
  EXPECT_EQ(Crc32c(data.data(), data.size(), config),
            Crc32c(data.data(), data.size()));
}

// The tax kernel is util/crc32 walked in prefetch-sized steps: at every
// length across several steps, on either side of each step boundary, it
// equals the one-call CRC.
TEST(Crc32cTest, PrefetchedStepsMatchUtilCrc32AtEveryLength) {
  const std::string data = RandomString(1100, 8);
  SoftPrefetchConfig config;
  config.min_size_bytes = 0;
  for (std::size_t n = 0; n <= data.size(); ++n) {
    ASSERT_EQ(Crc32c(data.data(), n, config), Crc32(data.data(), n))
        << "length " << n;
  }
}

TEST(Crc32cTest, DetectsCorruption) {
  std::string data = RandomString(1000, 7);
  const std::uint32_t before = Crc32c(data.data(), data.size());
  data[500] ^= 0x40;
  EXPECT_NE(Crc32c(data.data(), data.size()), before);
}

class HashSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashSizeTest, PrefetchedAndPlainAgreeAtEverySize) {
  const std::string data = RandomString(GetParam(), GetParam() + 99);
  SoftPrefetchConfig config;
  config.min_size_bytes = 0;
  config.distance_bytes = 256;
  config.degree_bytes = 128;
  EXPECT_EQ(BlockHash64(data.data(), data.size(), 1, config),
            BlockHash64(data.data(), data.size(), 1));
  EXPECT_EQ(Crc32c(data.data(), data.size(), config),
            Crc32c(data.data(), data.size()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HashSizeTest,
                         ::testing::Values(0, 1, 7, 8, 31, 32, 33, 100,
                                           4096, 65536));

}  // namespace
}  // namespace limoncello
