//===- BitVector.h - Dense bit vector --------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, fixed-size bit vector with the set-algebra operations the
/// dataflow analyses need. Kept header-only and minimal.
///
/// Up to InlineWords words live inside the object, so the per-block sets
/// of an analysis over a typical function (a few hundred registers, tens
/// of blocks) cost no allocation of their own; only wider vectors use the
/// heap.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_BITVECTOR_H
#define POSE_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pose {

/// Fixed-size dense bit vector.
class BitVector {
public:
  /// Words kept inline; vectors of more than InlineWords * 64 bits keep
  /// their words on the heap instead.
  static constexpr size_t InlineWords = 4;

  BitVector() = default;
  explicit BitVector(size_t NumBits) : NumBits(NumBits) {
    if (numWords() > InlineWords)
      Heap.assign(numWords(), 0);
  }

  BitVector(const BitVector &) = default;
  BitVector &operator=(const BitVector &) = default;
  /// A moved-from vector is empty (size 0).
  BitVector(BitVector &&O) noexcept { *this = std::move(O); }
  BitVector &operator=(BitVector &&O) noexcept {
    if (this != &O) {
      NumBits = std::exchange(O.NumBits, 0);
      std::copy(O.Inline, O.Inline + InlineWords, Inline);
      Heap = std::move(O.Heap);
      O.Heap.clear();
    }
    return *this;
  }

  size_t size() const { return NumBits; }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] |= (uint64_t(1) << (I % 64));
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  void clear() { std::fill(words(), words() + numWords(), 0); }

  /// Set union; returns true if this vector changed.
  bool unionWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    uint64_t *W = words();
    const uint64_t *OW = O.words();
    bool Changed = false;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      uint64_t New = W[I] | OW[I];
      Changed |= (New != W[I]);
      W[I] = New;
    }
    return Changed;
  }

  /// Set intersection.
  void intersectWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    uint64_t *W = words();
    const uint64_t *OW = O.words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      W[I] &= OW[I];
  }

  /// Removes every bit set in \p O.
  void subtract(const BitVector &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    uint64_t *W = words();
    const uint64_t *OW = O.words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      W[I] &= ~OW[I];
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (const uint64_t *W = words(), *E = W + numWords(); W != E; ++W)
      N += static_cast<size_t>(__builtin_popcountll(*W));
    return N;
  }

  /// Calls \p Fn with the index of each set bit, in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    const uint64_t *W = words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      for (uint64_t Bits = W[I]; Bits; Bits &= Bits - 1)
        Fn(I * 64 + static_cast<size_t>(__builtin_ctzll(Bits)));
  }

  bool any() const {
    const uint64_t *W = words();
    return std::any_of(W, W + numWords(), [](uint64_t X) { return X != 0; });
  }

  bool operator==(const BitVector &O) const {
    return NumBits == O.NumBits &&
           std::equal(words(), words() + numWords(), O.words());
  }
  bool operator!=(const BitVector &O) const { return !(*this == O); }

private:
  size_t numWords() const { return (NumBits + 63) / 64; }
  uint64_t *words() {
    return numWords() > InlineWords ? Heap.data() : Inline;
  }
  const uint64_t *words() const {
    return numWords() > InlineWords ? Heap.data() : Inline;
  }

  size_t NumBits = 0;
  /// The words of a vector of at most InlineWords words; unused otherwise.
  uint64_t Inline[InlineWords] = {};
  /// The words of a wider vector; empty otherwise.
  std::vector<uint64_t> Heap;
};

} // namespace pose

#endif // POSE_SUPPORT_BITVECTOR_H
