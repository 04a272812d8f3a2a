//===- bitmatrix_test.cpp - BitMatrix unit tests ---------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/BitMatrix.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pose;

namespace {

std::vector<size_t> rowOf(const BitMatrix &M, size_t R) {
  std::vector<size_t> Cols;
  M.forEach(R, [&Cols](size_t C) { Cols.push_back(C); });
  return Cols;
}

TEST(BitMatrix, RowsAreIndependentAndAscending) {
  BitMatrix M(3, 130);
  EXPECT_EQ(M.size(), 3u);
  M.set(1, 129);
  M.set(1, 0);
  M.set(1, 64);
  M.set(2, 5);
  EXPECT_TRUE(M.test(1, 64));
  EXPECT_FALSE(M.test(0, 64));
  EXPECT_EQ(rowOf(M, 1), (std::vector<size_t>{0, 64, 129}));
  EXPECT_EQ(M.count(1), 3u);
  EXPECT_EQ(M.count(0), 0u);
  M.reset(1, 64);
  EXPECT_EQ(rowOf(M, 1), (std::vector<size_t>{0, 129}));
  EXPECT_EQ(rowOf(M, 2), (std::vector<size_t>{5}));
}

TEST(BitMatrix, SetFirstCrossesWords) {
  BitMatrix M(2, 200);
  M.setFirst(0, 70);
  EXPECT_EQ(M.count(0), 70u);
  EXPECT_TRUE(M.test(0, 69));
  EXPECT_FALSE(M.test(0, 70));
  M.setFirst(1, 128);
  EXPECT_EQ(M.count(1), 128u);
  EXPECT_FALSE(M.test(1, 128));
  M.setFirst(1, 0);
  EXPECT_EQ(M.count(1), 128u);
}

TEST(BitMatrix, UnionAndClearRows) {
  BitMatrix A(2, 100), B(1, 100);
  A.set(0, 3);
  B.set(0, 3);
  B.set(0, 99);
  A.unionRow(1, B, 0);
  A.unionRow(1, A, 0);
  EXPECT_EQ(rowOf(A, 1), (std::vector<size_t>{3, 99}));
  A.clearRow(1);
  EXPECT_EQ(A.count(1), 0u);
  EXPECT_EQ(A.count(0), 1u);
}

} // namespace
