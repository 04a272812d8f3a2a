//===- Crc32.h - CRC-32 checksum ------------------------------*- C++ -*-===//
//
// Part of POSE, a reproduction of Kulkarni et al., "Exhaustive Optimization
// Phase Order Space Exploration" (CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3 polynomial) over byte buffers. The paper uses a CRC
/// checksum as one of the three numbers identifying a function instance
/// because, unlike a plain byte sum, it is sensitive to byte order.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_CRC32_H
#define POSE_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pose {

/// Computes the CRC-32 checksum of \p Size bytes starting at \p Data.
uint32_t crc32(const uint8_t *Data, size_t Size);

/// Convenience overload for byte vectors.
uint32_t crc32(const std::vector<uint8_t> &Bytes);

/// Incremental CRC-32 computation for streamed serialization.
class Crc32Stream {
public:
  /// Folds \p Byte into the running checksum.
  void update(uint8_t Byte);

  /// Folds \p Size bytes at \p Data into the running checksum. From 64
  /// bytes on, on a CPU with PCLMULQDQ and SSE4.1, the largest multiple of
  /// 16 bytes is folded by carry-less multiplication and a slicing-by-8
  /// table walk (eight independent lookups per eight bytes) finishes the
  /// tail; shorter inputs and other CPUs take the walk alone. Every path
  /// gives the same value as streaming the bytes one at a time through
  /// update(uint8_t).
  void update(const uint8_t *Data, size_t Size);

  /// Returns the finalized checksum for the bytes seen so far.
  uint32_t value() const { return ~State; }

private:
  uint32_t State = 0xFFFFFFFFu;
};

} // namespace pose

#endif // POSE_SUPPORT_CRC32_H
