// CRC-32C (Castagnoli: reflected, polynomial 0x82F63B78).
//
// The tree's only CRC. It checks every on-wire and on-disk frame —
// telemetry batches (LTB), actuation commands (LAC), the daemon's state
// journal (LMJ) and the per-endpoint journal (LEJ), all at version 2 —
// and it is the kernel under the "hashing" tax workload (tax/block_hash:
// Crc32c adds software prefetching around it).
//
// On x86-64 with SSE4.2 the sum runs on the crc32 instruction (eight
// bytes per instruction); elsewhere on a slicing-by-8 table loop. Both
// paths produce the same value; a cpuid check picks one once per
// process. Version-1 frames carried the IEEE CRC-32 (poly 0xEDB88320),
// so their checksums no longer verify: frames are rejected and journals
// cold-start.
#ifndef LIMONCELLO_UTIL_CRC32_H_
#define LIMONCELLO_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace limoncello {

// CRC-32C of [data, data + size). Crc32("123456789", 9) == 0xE3069283.
std::uint32_t Crc32(const void* data, std::size_t size);

// Continues a CRC over more bytes: Crc32Extend(Crc32(a), b) equals the
// CRC of a followed by b, and Crc32Extend(0, b) equals Crc32(b).
std::uint32_t Crc32Extend(std::uint32_t crc, const void* data,
                          std::size_t size);

// True when Crc32 runs on the SSE4.2 crc32 instruction.
bool Crc32UsesHardware();

namespace crc32_internal {

// Crc32Extend on the portable table loop whatever the CPU offers, so
// tests can check both paths on one host.
std::uint32_t Crc32ExtendPortable(std::uint32_t crc, const void* data,
                                  std::size_t size);

}  // namespace crc32_internal

}  // namespace limoncello

#endif  // LIMONCELLO_UTIL_CRC32_H_
