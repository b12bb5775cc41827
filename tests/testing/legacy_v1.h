// Version-1 frames for the upgrade tests. Every framed format in the
// tree (LTB telemetry, LAC actuation, LMJ and LEJ journal records) lays
// out magic | version | size | payload | CRC, the CRC covering version +
// size + payload. Version 1 sealed that with the IEEE CRC-32 (reflected,
// poly 0xEDB88320); version 2 uses CRC-32C. RewriteAsVersion1 turns a
// current frame into the bytes a version-1 binary would have written.
#ifndef LIMONCELLO_TESTS_TESTING_LEGACY_V1_H_
#define LIMONCELLO_TESTS_TESTING_LEGACY_V1_H_

#include <cstddef>
#include <cstdint>

#include "util/wire.h"

namespace limoncello {

// Bitwise IEEE CRC-32, the checksum of every version-1 frame.
inline std::uint32_t IeeeCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

// Rewrites the whole frame [frame, frame + frame_bytes) in place as
// version 1: version field 1, IEEE CRC-32 trailer.
inline void RewriteAsVersion1(unsigned char* frame, std::size_t frame_bytes) {
  StoreU32(frame + 4, 1);
  StoreU32(frame + frame_bytes - 4, IeeeCrc32(frame + 4, frame_bytes - 8));
}

}  // namespace limoncello

#endif  // LIMONCELLO_TESTS_TESTING_LEGACY_V1_H_
