#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace limoncello {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 lane order assumes a little-endian host");

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

inline std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables. Table 0 is the classic byte-at-a-time table;
// table k folds a zero byte k more times, so eight lookups advance the
// CRC eight input bytes at once: one table-dependent chain per eight
// bytes instead of one per byte.
constexpr SliceTables MakeSliceTables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kSliceTables = MakeSliceTables();

// Portable kernel over the pre-inverted CRC state.
// limolint:hot-path — every frame and journal record; table lookups only.
std::uint32_t ExtendSliced(std::uint32_t crc, const unsigned char* p,
                           const unsigned char* end) {
  const SliceTables& t = kSliceTables;
  while (end - p >= 8) {
    const std::uint64_t v = Load64(p) ^ crc;
    crc = t[7][v & 0xFF] ^ t[6][(v >> 8) & 0xFF] ^ t[5][(v >> 16) & 0xFF] ^
          t[4][(v >> 24) & 0xFF] ^ t[3][(v >> 32) & 0xFF] ^
          t[2][(v >> 40) & 0xFF] ^ t[1][(v >> 48) & 0xFF] ^
          t[0][(v >> 56) & 0xFF];
    p += 8;
  }
  while (p < end) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    ++p;
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LIMONCELLO_HAS_HW_CRC32C 1

// Hardware kernel over the pre-inverted CRC state: the SSE4.2 crc32
// instruction, compiled with a per-function target attribute so the
// translation unit itself stays at the baseline ISA, and only entered
// after a cpuid check. The loop is unrolled by three to trim loop
// overhead, but the three crc32 instructions form one dependency chain
// (each consumes the previous result), so it runs at the instruction's
// latency, about 3 cycles per 8 bytes. Independent streams would need a
// polynomial-multiplication merge, which ~100-byte frames do not repay.
// limolint:hot-path — every frame and journal record; reads only.
__attribute__((target("sse4.2"))) std::uint32_t ExtendHardware(
    std::uint32_t crc, const unsigned char* p, const unsigned char* end) {
  unsigned long long c = crc;
  while (end - p >= 24) {
    c = __builtin_ia32_crc32di(c, Load64(p));
    c = __builtin_ia32_crc32di(c, Load64(p + 8));
    c = __builtin_ia32_crc32di(c, Load64(p + 16));
    p += 24;
  }
  while (end - p >= 8) {
    c = __builtin_ia32_crc32di(c, Load64(p));
    p += 8;
  }
  auto crc32 = static_cast<unsigned int>(c);
  while (p < end) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p);
    ++p;
  }
  return crc32;
}

bool HasHardwareCrc32c() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif  // x86-64 GNU-compatible

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Extend(0, data, size);
}

std::uint32_t Crc32Extend(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(LIMONCELLO_HAS_HW_CRC32C)
  if (HasHardwareCrc32c()) return ~ExtendHardware(~crc, p, p + size);
#endif
  return ~ExtendSliced(~crc, p, p + size);
}

bool Crc32UsesHardware() {
#if defined(LIMONCELLO_HAS_HW_CRC32C)
  return HasHardwareCrc32c();
#else
  return false;
#endif
}

namespace crc32_internal {

std::uint32_t Crc32ExtendPortable(std::uint32_t crc, const void* data,
                                  std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  return ~ExtendSliced(~crc, p, p + size);
}

}  // namespace crc32_internal

}  // namespace limoncello
