//===- bitvector_test.cpp - BitVector unit tests ---------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/BitVector.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace pose;

namespace {

TEST(BitVector, SetTestReset) {
  BitVector V(130);
  EXPECT_FALSE(V.test(0));
  EXPECT_FALSE(V.test(129));
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(63));
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(BitVector, UnionReportsChange) {
  BitVector A(70), B(70);
  B.set(3);
  B.set(69);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // Second union is a no-op.
  EXPECT_TRUE(A.test(3));
  EXPECT_TRUE(A.test(69));
}

TEST(BitVector, IntersectAndSubtract) {
  BitVector A(10), B(10);
  A.set(1);
  A.set(2);
  A.set(3);
  B.set(2);
  B.set(3);
  B.set(4);
  BitVector C = A;
  C.intersectWith(B);
  EXPECT_FALSE(C.test(1));
  EXPECT_TRUE(C.test(2));
  EXPECT_TRUE(C.test(3));
  A.subtract(B);
  EXPECT_TRUE(A.test(1));
  EXPECT_FALSE(A.test(2));
}

TEST(BitVector, EqualityAndClear) {
  BitVector A(65), B(65);
  EXPECT_EQ(A, B);
  A.set(64);
  EXPECT_NE(A, B);
  A.clear();
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.any());
}

// Sizes on both sides of every word boundary and of the inline capacity
// (BitVector::InlineWords words): 256 bits is the widest inline vector,
// 257 the narrowest heap one.
const size_t Sizes[] = {0, 1, 64, 256, 257, 1000};

/// A vector of \p N bits with every bit I set where I % Mod == Rem.
BitVector pattern(size_t N, size_t Mod, size_t Rem) {
  BitVector V(N);
  for (size_t I = Rem; I < N; I += Mod)
    V.set(I);
  return V;
}

/// Checks \p V bit by bit against \p Bits.
void expectBits(const BitVector &V, const std::vector<bool> &Bits) {
  ASSERT_EQ(V.size(), Bits.size());
  size_t Count = 0;
  for (size_t I = 0; I != Bits.size(); ++I) {
    EXPECT_EQ(V.test(I), Bits[I]) << "bit " << I << " of " << V.size();
    Count += Bits[I];
  }
  EXPECT_EQ(V.count(), Count);
  EXPECT_EQ(V.any(), Count != 0);
}

TEST(BitVector, SetResetTestAtEverySize) {
  for (size_t N : Sizes) {
    BitVector V(N);
    std::vector<bool> Bits(N, false);
    expectBits(V, Bits);
    if (N == 0)
      continue;
    for (size_t I : {size_t(0), N / 2, N - 1}) {
      V.set(I);
      Bits[I] = true;
    }
    expectBits(V, Bits);
    V.reset(N / 2);
    Bits[N / 2] = false;
    expectBits(V, Bits);
    V.clear();
    expectBits(V, std::vector<bool>(N, false));
  }
}

TEST(BitVector, SetAlgebraAtEverySize) {
  for (size_t N : Sizes) {
    const BitVector Twos = pattern(N, 2, 0), Threes = pattern(N, 3, 0);
    std::vector<bool> Or(N), And(N), Minus(N);
    for (size_t I = 0; I != N; ++I) {
      Or[I] = I % 2 == 0 || I % 3 == 0;
      And[I] = I % 6 == 0;
      Minus[I] = I % 2 == 0 && I % 3 != 0;
    }
    BitVector U = Twos;
    EXPECT_EQ(U.unionWith(Threes), N > 3) << N; // 3 is the first new bit.
    expectBits(U, Or);
    EXPECT_FALSE(U.unionWith(Threes)) << N;
    BitVector X = Twos;
    X.intersectWith(Threes);
    expectBits(X, And);
    BitVector D = Twos;
    D.subtract(Threes);
    expectBits(D, Minus);
  }
}

TEST(BitVector, CopyMoveAndAssignAcrossInlineAndHeapSizes) {
  for (size_t From : Sizes)
    for (size_t To : Sizes) {
      const BitVector Src = pattern(From, 5, 1);
      BitVector Copy(Src);
      EXPECT_TRUE(Copy == Src);
      Copy = Src; // Copy-assign at the same size.
      EXPECT_TRUE(Copy == Src);

      BitVector Dst = pattern(To, 7, 2);
      Dst = Src; // Copy-assign between the two sizes.
      EXPECT_TRUE(Dst == Src) << From << " -> " << To;
      if (From != 0) {
        Dst.set(0); // Bit 0 is clear in the source: the copy is deep.
        EXPECT_FALSE(Src.test(0));
      }

      BitVector Moved(std::move(Copy));
      EXPECT_TRUE(Moved == Src);
      EXPECT_EQ(Copy.size(), 0u); // A moved-from vector is empty.
      Copy = pattern(To, 7, 2);   // Move-assign to a moved-from vector.
      EXPECT_TRUE(Copy == pattern(To, 7, 2)) << From << " -> " << To;

      BitVector Target = pattern(To, 3, 1);
      Target = std::move(Moved); // Move-assign between the two sizes.
      EXPECT_TRUE(Target == Src) << From << " -> " << To;
      Moved = Src; // Copy-assign to a moved-from vector.
      EXPECT_TRUE(Moved == Src);
    }
}

TEST(BitVector, EqualityComparesSizeAndEveryBit) {
  for (size_t N : Sizes) {
    EXPECT_TRUE(BitVector(N) == BitVector(N));
    if (N == 0)
      continue;
    BitVector A(N), B(N);
    A.set(N - 1); // The last, possibly partial, word.
    EXPECT_TRUE(A != B) << N;
    B.set(N - 1);
    EXPECT_TRUE(A == B) << N;
    EXPECT_TRUE(BitVector(N) != BitVector(N + 1)) << N;
  }
}

TEST(BitVector, ForEachVisitsSetBitsInOrder) {
  BitVector V(300); // Wider than the inline words.
  V.set(299);
  V.set(0);
  V.set(64);
  V.set(65);
  std::vector<size_t> Seen;
  V.forEach([&Seen](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 64, 65, 299}));
}

} // namespace
