//===- ByteIo.h - Bounded little-endian byte streams -----------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitive layer of every persisted and wire format: an appending
/// little-endian writer and a bounds-checked reader. The reader never
/// throws and never reads past the end — any overrun latches a failure
/// flag and yields zeros, so decoders can run to completion and make one
/// ok() check at the end. Strings carry explicit lengths; a length that
/// exceeds the remaining input fails immediately instead of allocating
/// attacker-controlled amounts of memory.
///
/// Each format is written down once, as a field list
///
///   template <class Io> bool io(Io &S, T &X);
///
/// that calls the field primitives below in encoding order. Both classes
/// provide the same primitives: ByteWriter appends each field, ByteReader
/// reads it back into the same reference and validates it (bounded enums,
/// 0/1 flags, counts that fit the remaining input, and io()'s own
/// check()s). So io(Writer, X) encodes X and io(Reader, X) strictly
/// decodes it; the writer never modifies X. The few lines only a decode
/// needs — restoring derived state — test Io::Reading.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_BYTEIO_H
#define POSE_STORE_BYTEIO_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace pose {

/// Appending little-endian encoder.
class ByteWriter {
public:
  static constexpr bool Reading = false;

  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { le<2>(V); }
  void u32(uint32_t V) { le<4>(V); }
  void u64(uint64_t V) { le<8>(V); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void str(const std::string &S) {
    u64(S.size());
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  /// A boolean as one 0/1 byte.
  void flag(bool V) { u8(V); }
  /// Up to eight booleans in one byte, the first in bit 0.
  template <class... B> void flags(const B &...Bits) {
    static_assert(sizeof...(B) <= 8, "one byte holds eight flags");
    uint8_t V = 0, I = 0;
    ((V |= static_cast<uint8_t>(Bits << I++)), ...);
    u8(V);
  }
  /// An enumerator in [First, Last], as wide as its underlying type.
  template <class E, class... Fn>
  void tag(E V, E /*First*/, E /*Last*/, Fn &&...) {
    le<sizeof(E)>(static_cast<uint64_t>(V));
  }
  /// The element count of a sequence.
  void count(size_t N) { u64(N); }
  /// A sequence: its count, then \p Item on each element.
  template <class L, class Fn> void seq(L &List, Fn Item) {
    count(List.size());
    items(List, List.size(), Item);
  }
  /// The \p N elements of \p List (counted elsewhere), each through
  /// \p Item. Elements reach \p Item as mutable references so that one
  /// io() serves both directions; the writer only reads them.
  template <class L, class Fn> void items(L &List, size_t /*N*/, Fn Item) {
    for (const auto &X : List)
      Item(const_cast<std::remove_const_t<
               std::remove_reference_t<decltype(X)>> &>(X));
  }
  /// A decode-side validity rule; encoding writes whatever it is given.
  template <class... Fn> void check(bool, Fn &&...) {}
  bool ok() const { return true; }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  template <size_t Bytes> void le(uint64_t V) {
    for (size_t I = 0; I != Bytes; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class ByteReader {
public:
  static constexpr bool Reading = true;

  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &B)
      : Data(B.data()), Size(B.size()) {}

  uint8_t u8() { return static_cast<uint8_t>(le<1>()); }
  uint16_t u16() { return static_cast<uint16_t>(le<2>()); }
  uint32_t u32() { return static_cast<uint32_t>(le<4>()); }
  uint64_t u64() { return le<8>(); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
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

  // The field primitives of ByteWriter, reading into their argument.
  void u8(uint8_t &V) { V = u8(); }
  void u16(uint16_t &V) { V = u16(); }
  void u32(uint32_t &V) { V = u32(); }
  void u64(uint64_t &V) { V = u64(); }
  void i32(int32_t &V) { V = i32(); }
  void str(std::string &S) { S = str(); }
  void flag(bool &V) {
    const uint8_t B = u8();
    check(B <= 1);
    V = B != 0;
  }
  template <class... B> void flags(B &...Bits) {
    const uint8_t V = u8();
    check(V >> sizeof...(B) == 0);
    uint8_t I = 0;
    ((Bits = (V >> I++) & 1), ...);
  }
  /// Fails (with \p Reason, when given) unless First <= value <= Last;
  /// \p V keeps its old value then.
  template <class E, class... Fn>
  void tag(E &V, E First, E Last, Fn &&...Reason) {
    const uint64_t Raw = le<sizeof(E)>();
    if (check(Raw >= static_cast<uint64_t>(First) &&
                  Raw <= static_cast<uint64_t>(Last),
              Reason...))
      V = static_cast<E>(Raw);
  }
  /// A count can never exceed the bytes remaining (every element encodes
  /// to at least one byte), so it is rejected before any allocation.
  /// Yields 0 on failure.
  void count(size_t &N) {
    const uint64_t V = u64();
    N = check(V <= remaining()) ? static_cast<size_t>(V) : 0;
  }
  template <class L, class Fn> void seq(L &List, Fn Item) {
    size_t N = 0;
    count(N);
    items(List, N, Item);
  }
  /// Sizes \p List to \p N (nothing once the stream has failed) and reads
  /// each element through \p Item.
  template <class L, class Fn> void items(L &List, size_t N, Fn Item) {
    List.resize(ok() ? N : 0);
    for (size_t I = 0; I != List.size() && ok(); ++I)
      Item(element(List, I));
  }
  /// Fails the stream unless \p Cond holds. \p Reason, a callable
  /// returning the diagnostic, is called only when it becomes why().
  template <class... Fn> bool check(bool Cond, Fn &&...Reason) {
    if (!Cond) {
      // An overrun leaves no reason behind, so a rule it breaks explains
      // the failure instead.
      if constexpr (sizeof...(Fn) != 0)
        if (Why.empty())
          Why = (Reason(), ...);
      Failed = true;
    }
    return !Failed;
  }

  /// True while no read has overrun the buffer and no check failed.
  bool ok() const { return !Failed; }
  /// The diagnostic of the first failed check that gave one, or "".
  const std::string &why() const { return Why; }
  /// True when every byte has been consumed (decoders should require
  /// this — trailing garbage means a corrupt or mismatched artifact).
  bool atEnd() const { return Pos == Size; }
  size_t remaining() const { return Size - Pos; }

private:
  template <class T> static T &element(std::vector<T> &L, size_t I) {
    return L[I];
  }
  /// The copy-on-write lists of Function write through mut().
  template <class L>
  static auto element(L &List, size_t I) -> decltype(List.mut(I)) {
    return List.mut(I);
  }

  template <size_t Bytes> uint64_t le() {
    if (Bytes > Size - Pos || Failed) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (size_t I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += Bytes;
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string Why;
};

} // namespace pose

#endif // POSE_STORE_BYTEIO_H
