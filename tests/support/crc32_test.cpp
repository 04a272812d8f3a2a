//===- crc32_test.cpp - CRC-32 unit tests ----------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Crc32.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace pose;

namespace {

uint32_t crcOf(const std::string &S) {
  return crc32(reinterpret_cast<const uint8_t *>(S.data()), S.size());
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(crcOf(""), 0x00000000u);
  EXPECT_EQ(crcOf("123456789"), 0xCBF43926u);
  EXPECT_EQ(crcOf("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, OrderSensitive) {
  // The paper picks CRC over a plain checksum precisely because byte order
  // affects the result.
  EXPECT_NE(crcOf("ab"), crcOf("ba"));
  EXPECT_NE(crcOf("abc"), crcOf("cba"));
}

TEST(Crc32, StreamMatchesOneShot) {
  std::string S = "hello rtl world";
  Crc32Stream Stream;
  for (char C : S)
    Stream.update(static_cast<uint8_t>(C));
  EXPECT_EQ(Stream.value(), crcOf(S));
}

TEST(Crc32, StreamChunkedMatchesOneShot) {
  std::string S(1024, '\0');
  for (size_t I = 0; I < S.size(); ++I)
    S[I] = static_cast<char>(I * 31 + 7);
  Crc32Stream Stream;
  Stream.update(reinterpret_cast<const uint8_t *>(S.data()), 100);
  Stream.update(reinterpret_cast<const uint8_t *>(S.data()) + 100,
                S.size() - 100);
  EXPECT_EQ(Stream.value(), crcOf(S));
}

/// Bit-at-a-time CRC-32 register step for the reflected polynomial: the
/// definition, with no table and no fold.
uint32_t bitwiseStep(uint32_t C, uint8_t Byte) {
  C ^= Byte;
  for (int K = 0; K != 8; ++K)
    C = (C >> 1) ^ (0xEDB88320u & (0u - (C & 1u)));
  return C;
}

uint32_t bitwiseCrc(const uint8_t *Data, size_t Size) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Size; ++I)
    C = bitwiseStep(C, Data[I]);
  return ~C;
}

std::vector<uint8_t> randomBytes(size_t Size, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<uint8_t> Bytes(Size);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(Rng());
  return Bytes;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLength) {
  // Every length from 0 to 4,200 crosses the 64-byte threshold of the
  // carry-less fold, every 16-byte tail length and many four-lane rounds;
  // the offsets vary the alignment of the unaligned loads.
  const std::vector<uint8_t> Bytes = randomBytes(4200 + 16, 29);
  size_t Mismatches = 0;
  for (size_t Off = 0; Off != 16; ++Off) {
    // The oracle's register over the Len bytes at Off, one byte at a time.
    uint32_t C = 0xFFFFFFFFu;
    for (size_t Len = 0; Len <= 4200; ++Len) {
      if (crc32(Bytes.data() + Off, Len) != ~C && ++Mismatches <= 5)
        ADD_FAILURE() << "length " << Len << ", offset " << Off;
      C = bitwiseStep(C, Bytes[Off + Len]);
    }
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(Crc32, SplitStreamsMatchOneShot) {
  const std::vector<uint8_t> Bytes = randomBytes(70000, 31);
  const uint32_t Whole = bitwiseCrc(Bytes.data(), Bytes.size());
  ASSERT_EQ(crc32(Bytes), Whole);
  std::mt19937 Rng(37);
  std::vector<size_t> Cuts;
  for (size_t Cut = 0; Cut <= 64; ++Cut) // Inside the first 64 bytes.
    Cuts.push_back(Cut);
  for (int I = 0; I != 200; ++I) // Both parts at least 64 bytes long.
    Cuts.push_back(64 + Rng() % (Bytes.size() - 127));
  for (size_t Cut : Cuts) {
    Crc32Stream Stream;
    Stream.update(Bytes.data(), Cut);
    Stream.update(Bytes.data() + Cut, Bytes.size() - Cut);
    EXPECT_EQ(Stream.value(), Whole) << "cut at " << Cut;
  }
  // Three random parts, so a fold also starts mid-stream.
  for (int I = 0; I != 100; ++I) {
    size_t A = Rng() % Bytes.size(), B = Rng() % Bytes.size();
    if (A > B)
      std::swap(A, B);
    Crc32Stream Stream;
    Stream.update(Bytes.data(), A);
    Stream.update(Bytes.data() + A, B - A);
    Stream.update(Bytes.data() + B, Bytes.size() - B);
    EXPECT_EQ(Stream.value(), Whole) << "cuts at " << A << ", " << B;
  }
}

TEST(Crc32, VectorOverload) {
  std::vector<uint8_t> Bytes = {1, 2, 3, 4, 5};
  EXPECT_EQ(crc32(Bytes), crc32(Bytes.data(), Bytes.size()));
}

} // namespace
