#include "tax/block_hash.h"

#include <algorithm>
#include <cstring>

#include "softpf/prefetch.h"
#include "util/crc32.h"
#include "util/units.h"

namespace limoncello {

namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

inline std::uint64_t Rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t Round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  return acc * kPrime1;
}

inline std::uint64_t Avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

inline void MaybePrefetch(const char* cursor, const char* end,
                          const SoftPrefetchConfig& config, bool active) {
  if (!active) return;
  PrefetchReadSpan(cursor + config.distance_bytes, config.degree_bytes, end,
                   config.locality);
}

}  // namespace

// limolint:hot-path — datacenter-tax kernel; reads the block, never the
// heap.
std::uint64_t BlockHash64(const void* data, std::size_t n,
                          std::uint64_t seed,
                          const SoftPrefetchConfig& config) {
  const char* p = static_cast<const char*>(data);
  const char* const end = p + n;
  const bool prefetch = config.AppliesTo(n);
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    std::size_t stripes = 0;
    const char* const limit = end - 32;
    while (p <= limit) {
      if ((stripes++ & 7) == 0) MaybePrefetch(p, end, config, prefetch);
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    }
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = (h ^ Round(0, v1)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v2)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v3)) * kPrime1 + kPrime4;
    h = (h ^ Round(0, v4)) * kPrime1 + kPrime4;
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(n);
  while (p + 8 <= end) {
    h ^= Round(0, Load64(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  while (p < end) {
    h ^= static_cast<std::uint8_t>(*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }
  return Avalanche(h);
}

// limolint:hot-path — datacenter-tax kernel; reads the block, never the
// heap.
std::uint32_t Crc32c(const void* data, std::size_t n,
                     const SoftPrefetchConfig& config) {
  if (!config.AppliesTo(n)) return Crc32(data, n);
  // The prefetch cadence of the kernel this loop wraps, which the tuned
  // table (tuned_params.cc) was measured with: one prefetch per 192 bytes
  // (eight 24-byte steps of the hardware kernel) or per 256 bytes
  // (thirty-two 8-byte steps of the portable one), issued while a full
  // step remains.
  const bool hardware = Crc32UsesHardware();
  const std::size_t cadence = hardware ? 192 : 256;
  const std::size_t min_step = hardware ? 24 : 8;
  const char* p = static_cast<const char*>(data);
  const char* const end = p + n;
  std::uint32_t crc = 0;
  while (static_cast<std::size_t>(end - p) >= min_step) {
    MaybePrefetch(p, end, config, true);
    const std::size_t chunk =
        std::min(cadence, static_cast<std::size_t>(end - p));
    crc = Crc32Extend(crc, p, chunk);
    p += chunk;
  }
  return Crc32Extend(crc, p, static_cast<std::size_t>(end - p));
}

}  // namespace limoncello
