//===- BitMatrix.h - Dense bit matrix --------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense rows x columns bit matrix kept row-major in one allocation: the
/// adjacency form of the small relations the in-block dependence analysis
/// and register assignment build. Rows enumerate in ascending column order.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_BITMATRIX_H
#define POSE_SUPPORT_BITMATRIX_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pose {

/// Fixed-size dense bit matrix.
class BitMatrix {
public:
  BitMatrix() = default;
  BitMatrix(size_t Rows, size_t Cols)
      : Rows(Rows), Cols(Cols), RowWords((Cols + 63) / 64),
        Words(Rows * RowWords, 0) {}

  /// Number of rows.
  size_t size() const { return Rows; }

  bool test(size_t R, size_t C) const {
    assert(R < Rows && C < Cols && "bit index out of range");
    return (row(R)[C / 64] >> (C % 64)) & 1;
  }

  void set(size_t R, size_t C) {
    assert(R < Rows && C < Cols && "bit index out of range");
    row(R)[C / 64] |= uint64_t(1) << (C % 64);
  }

  void reset(size_t R, size_t C) {
    assert(R < Rows && C < Cols && "bit index out of range");
    row(R)[C / 64] &= ~(uint64_t(1) << (C % 64));
  }

  /// Sets columns [0, N) of row \p R.
  void setFirst(size_t R, size_t N) {
    assert(R < Rows && N <= Cols && "bit index out of range");
    uint64_t *W = row(R);
    for (; N >= 64; N -= 64)
      *W++ = ~uint64_t(0);
    if (N)
      *W |= (uint64_t(1) << N) - 1;
  }

  /// Row \p R |= row \p S of \p O, which has as many columns (and may be
  /// this matrix).
  void unionRow(size_t R, const BitMatrix &O, size_t S) {
    assert(Cols == O.Cols && R < Rows && S < O.Rows && "shape mismatch");
    uint64_t *W = row(R);
    const uint64_t *OW = O.row(S);
    for (size_t I = 0; I != RowWords; ++I)
      W[I] |= OW[I];
  }

  void clearRow(size_t R) {
    uint64_t *W = row(R);
    for (size_t I = 0; I != RowWords; ++I)
      W[I] = 0;
  }

  /// Number of set bits in row \p R.
  size_t count(size_t R) const {
    const uint64_t *W = row(R);
    size_t N = 0;
    for (size_t I = 0; I != RowWords; ++I)
      N += static_cast<size_t>(__builtin_popcountll(W[I]));
    return N;
  }

  /// Calls \p Fn with each set column of row \p R, in ascending order.
  template <typename FnT> void forEach(size_t R, FnT Fn) const {
    const uint64_t *W = row(R);
    for (size_t I = 0; I != RowWords; ++I)
      for (uint64_t Bits = W[I]; Bits; Bits &= Bits - 1)
        Fn(I * 64 + static_cast<size_t>(__builtin_ctzll(Bits)));
  }

private:
  uint64_t *row(size_t R) { return Words.data() + R * RowWords; }
  const uint64_t *row(size_t R) const { return Words.data() + R * RowWords; }

  size_t Rows = 0;
  size_t Cols = 0;
  size_t RowWords = 0;
  std::vector<uint64_t> Words;
};

} // namespace pose

#endif // POSE_SUPPORT_BITMATRIX_H
