//===- ByteIo.h - Bounded little-endian byte streams -----------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitive encode/decode layer of the artifact store: an appending
/// little-endian writer and a bounds-checked reader. The reader never
/// throws and never reads past the end — any overrun latches a failure
/// flag and yields zeros, so decoders can run to completion and make one
/// ok() check at the end. Strings carry explicit lengths; a length that
/// exceeds the remaining input fails immediately instead of allocating
/// attacker-controlled amounts of memory.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_BYTEIO_H
#define POSE_STORE_BYTEIO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pose {

/// Appending little-endian encoder.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { le(V, 2); }
  void u32(uint32_t V) { le(V, 4); }
  void u64(uint64_t V) { le(V, 8); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  void le(uint64_t V, int Bytes) {
    for (int I = 0; I != Bytes; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &B)
      : Data(B.data()), Size(B.size()) {}

  uint8_t u8() { return static_cast<uint8_t>(le(1)); }
  uint16_t u16() { return static_cast<uint16_t>(le(2)); }
  uint32_t u32() { return static_cast<uint32_t>(le(4)); }
  uint64_t u64() { return le(8); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t N = u64();
    if (N > Size - Pos || Failed) {
      Failed = true;
      return std::string();
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return S;
  }

  /// True while no read has overrun the buffer.
  bool ok() const { return !Failed; }
  /// True when every byte has been consumed (decoders should require
  /// this — trailing garbage means a corrupt or mismatched artifact).
  bool atEnd() const { return Pos == Size; }
  size_t remaining() const { return Size - Pos; }

  /// Marks the stream failed (decoders use this for semantic validation
  /// failures, e.g. an out-of-range enum value).
  void fail() { Failed = true; }

private:
  uint64_t le(int Bytes) {
    if (static_cast<size_t>(Bytes) > Size - Pos || Failed) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += Bytes;
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace pose

#endif // POSE_STORE_BYTEIO_H
