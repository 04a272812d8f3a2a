//===- Crc32.cpp - CRC-32 checksum ---------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Crc32.h"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#define POSE_CRC32_CLMUL 1
#include <immintrin.h>
#endif

using namespace pose;

namespace {

/// Builds the slicing-by-8 lookup tables for the reflected IEEE
/// polynomial 0xEDB88320 at compile time, avoiding a static constructor.
/// Table[0] is the classic per-byte table; Table[K][I] advances the state
/// contribution of a byte that sits K positions deeper in the input, so
/// eight bytes fold with eight independent lookups instead of eight
/// serially dependent per-byte steps.
constexpr std::array<std::array<uint32_t, 256>, 8> makeTables() {
  std::array<std::array<uint32_t, 256>, 8> Tables{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
    Tables[0][I] = C;
  }
  for (int K = 1; K < 8; ++K)
    for (uint32_t I = 0; I < 256; ++I)
      Tables[K][I] =
          (Tables[K - 1][I] >> 8) ^ Tables[0][Tables[K - 1][I] & 0xFFu];
  return Tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> CrcTables = makeTables();

#ifdef POSE_CRC32_CLMUL

/// True when the CPU has PCLMULQDQ and SSE4.1. Detected on the first call
/// and cached, so the binary still runs (on the table walk) on any x86-64.
bool hasClmul() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return Has;
}

/// Folds \p Size bytes at \p Data into the reflected CRC register \p S by
/// carry-less multiplication (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) and
/// returns the new register, bit-identical to the table walk over the same
/// bytes. \p Size is a multiple of 16 and at least 64; no load reaches past
/// Data + Size. The constants are the paper's for the reflected polynomial
/// 0xEDB88320 (Linux's crc32-pclmul and Chromium's zlib use the same):
/// k1/k2 fold a 128-bit lane 512 bits forward, k3/k4 fold it 128 bits
/// forward, k5 reduces 64 to 32 bits, and P and mu = x^64 / P drive the
/// Barrett reduction.
__attribute__((target("pclmul,sse4.1"))) uint32_t
foldClmul(const uint8_t *Data, size_t Size, uint32_t S) {
  const __m128i K1K2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i K3K4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i K5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i PMu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i Low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four 128-bit lanes, each folded 512 bits forward per 64-byte step.
  const __m128i *In = reinterpret_cast<const __m128i *>(Data);
  __m128i X0 = _mm_xor_si128(_mm_loadu_si128(In),
                             _mm_cvtsi32_si128(static_cast<int>(S)));
  __m128i X1 = _mm_loadu_si128(In + 1);
  __m128i X2 = _mm_loadu_si128(In + 2);
  __m128i X3 = _mm_loadu_si128(In + 3);
  size_t Blocks = Size / 16 - 4;
  for (In += 4; Blocks >= 4; In += 4, Blocks -= 4) {
    X0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X0, K1K2, 0x00),
                                     _mm_clmulepi64_si128(X0, K1K2, 0x11)),
                       _mm_loadu_si128(In));
    X1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X1, K1K2, 0x00),
                                     _mm_clmulepi64_si128(X1, K1K2, 0x11)),
                       _mm_loadu_si128(In + 1));
    X2 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X2, K1K2, 0x00),
                                     _mm_clmulepi64_si128(X2, K1K2, 0x11)),
                       _mm_loadu_si128(In + 2));
    X3 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X3, K1K2, 0x00),
                                     _mm_clmulepi64_si128(X3, K1K2, 0x11)),
                       _mm_loadu_si128(In + 3));
  }

  // Fold the lanes into one, then each remaining 16-byte block into it.
  X0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X0, K3K4, 0x00),
                                   _mm_clmulepi64_si128(X0, K3K4, 0x11)),
                     X1);
  X0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X0, K3K4, 0x00),
                                   _mm_clmulepi64_si128(X0, K3K4, 0x11)),
                     X2);
  X0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X0, K3K4, 0x00),
                                   _mm_clmulepi64_si128(X0, K3K4, 0x11)),
                     X3);
  for (; Blocks != 0; ++In, --Blocks)
    X0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X0, K3K4, 0x00),
                                     _mm_clmulepi64_si128(X0, K3K4, 0x11)),
                       _mm_loadu_si128(In));

  // 128 -> 64 bits, then 64 -> 32.
  X0 = _mm_xor_si128(_mm_srli_si128(X0, 8),
                     _mm_clmulepi64_si128(X0, K3K4, 0x10));
  X0 = _mm_xor_si128(
      _mm_srli_si128(X0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(X0, Low32), K5, 0x00));

  // Barrett reduction to the 32-bit register.
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X0, Low32), PMu, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), PMu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(X0, T), 1));
}

#endif // POSE_CRC32_CLMUL

} // namespace

void Crc32Stream::update(uint8_t Byte) {
  State = CrcTables[0][(State ^ Byte) & 0xFFu] ^ (State >> 8);
}

void Crc32Stream::update(const uint8_t *Data, size_t Size) {
  uint32_t S = State;
#ifdef POSE_CRC32_CLMUL
  if (Size >= 64 && hasClmul()) {
    const size_t Folded = Size & ~static_cast<size_t>(15);
    S = foldClmul(Data, Folded, S);
    Data += Folded;
    Size -= Folded;
  }
#endif
  // The table walk finishes the fold's tail (under 16 bytes) and does all
  // the work on short inputs and other CPUs. Bytes are composed into words
  // explicitly, so it is endian-neutral and needs no aligned loads.
  while (Size >= 8) {
    const uint32_t Lo =
        S ^ (static_cast<uint32_t>(Data[0]) |
             static_cast<uint32_t>(Data[1]) << 8 |
             static_cast<uint32_t>(Data[2]) << 16 |
             static_cast<uint32_t>(Data[3]) << 24);
    const uint32_t Hi = static_cast<uint32_t>(Data[4]) |
                        static_cast<uint32_t>(Data[5]) << 8 |
                        static_cast<uint32_t>(Data[6]) << 16 |
                        static_cast<uint32_t>(Data[7]) << 24;
    S = CrcTables[7][Lo & 0xFFu] ^ CrcTables[6][(Lo >> 8) & 0xFFu] ^
        CrcTables[5][(Lo >> 16) & 0xFFu] ^ CrcTables[4][Lo >> 24] ^
        CrcTables[3][Hi & 0xFFu] ^ CrcTables[2][(Hi >> 8) & 0xFFu] ^
        CrcTables[1][(Hi >> 16) & 0xFFu] ^ CrcTables[0][Hi >> 24];
    Data += 8;
    Size -= 8;
  }
  for (size_t I = 0; I < Size; ++I)
    S = CrcTables[0][(S ^ Data[I]) & 0xFFu] ^ (S >> 8);
  State = S;
}

uint32_t pose::crc32(const uint8_t *Data, size_t Size) {
  Crc32Stream S;
  S.update(Data, Size);
  return S.value();
}

uint32_t pose::crc32(const std::vector<uint8_t> &Bytes) {
  return crc32(Bytes.data(), Bytes.size());
}
