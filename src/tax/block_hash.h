// 64-bit block hash with software prefetching — the "hashing" tax category.
//
// The algorithm is an xxHash64-flavoured 4-lane mixer (independent design,
// same structure: 32-byte stripes into four accumulators, merge, avalanche).
// Hashing walks the buffer sequentially, so Soft Limoncello prefetches the
// input at the configured distance.
#ifndef LIMONCELLO_TAX_BLOCK_HASH_H_
#define LIMONCELLO_TAX_BLOCK_HASH_H_

#include <cstddef>
#include <cstdint>

#include "softpf/soft_prefetch_config.h"

namespace limoncello {

// Hashes [data, data+n) with the given seed.
std::uint64_t BlockHash64(const void* data, std::size_t n,
                          std::uint64_t seed,
                          const SoftPrefetchConfig& config);

inline std::uint64_t BlockHash64(const void* data, std::size_t n,
                                 std::uint64_t seed = 0) {
  return BlockHash64(data, n, seed, SoftPrefetchConfig::Disabled());
}

// CRC-32C of [data, data+n): util/crc32's kernel, walked in steps with
// the same prefetch treatment; used as a second hashing workload. Equals
// Crc32(data, n) for every config.
std::uint32_t Crc32c(const void* data, std::size_t n,
                     const SoftPrefetchConfig& config);

inline std::uint32_t Crc32c(const void* data, std::size_t n) {
  return Crc32c(data, n, SoftPrefetchConfig::Disabled());
}

}  // namespace limoncello

#endif  // LIMONCELLO_TAX_BLOCK_HASH_H_
