//===- dependence_test.cpp - Intra-block dependence tests -----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/DependenceDag.h"

#include "src/ir/Function.h"

#include <gtest/gtest.h>

using namespace pose;

namespace {

bool mustPrecede(const BitMatrix &Deps, size_t A, size_t B) {
  return Deps.test(B, A);
}

TEST(DependenceDag, RawWarWaw) {
  BasicBlock B(0);
  RegNum X = 32, Y = 33;
  B.Insts.push_back(rtl::mov(Operand::reg(X), Operand::imm(1)));      // 0
  B.Insts.push_back(rtl::binary(Op::Add, Operand::reg(Y),
                                Operand::reg(X), Operand::imm(2)));   // 1 RAW
  B.Insts.push_back(rtl::mov(Operand::reg(X), Operand::imm(9)));      // 2 WAR+WAW
  auto Deps = blockDependences(B);
  EXPECT_TRUE(mustPrecede(Deps, 0, 1));  // RAW on x.
  EXPECT_TRUE(mustPrecede(Deps, 1, 2));  // WAR: 1 reads x before 2 writes.
  EXPECT_TRUE(mustPrecede(Deps, 0, 2));  // WAW on x.
}

TEST(DependenceDag, IndependentChainsUnordered) {
  BasicBlock B(0);
  B.Insts.push_back(rtl::mov(Operand::reg(32), Operand::imm(1))); // 0
  B.Insts.push_back(rtl::mov(Operand::reg(33), Operand::imm(2))); // 1
  auto Deps = blockDependences(B);
  EXPECT_FALSE(mustPrecede(Deps, 0, 1));
  EXPECT_FALSE(mustPrecede(Deps, 1, 0));
}

TEST(DependenceDag, ConditionCodes) {
  BasicBlock B(0);
  B.Insts.push_back(rtl::cmp(Operand::reg(32), Operand::imm(0))); // 0
  B.Insts.push_back(rtl::mov(Operand::reg(33), Operand::imm(1))); // 1 free
  B.Insts.push_back(rtl::branch(Cond::Eq, 5));                    // 2
  auto Deps = blockDependences(B);
  EXPECT_TRUE(mustPrecede(Deps, 0, 2)); // Branch needs the compare.
  // The terminator also pins everything before it.
  EXPECT_TRUE(mustPrecede(Deps, 1, 2));
  // But the mov is not tied to the compare.
  EXPECT_FALSE(mustPrecede(Deps, 0, 1));
}

TEST(DependenceDag, MemoryOrdering) {
  BasicBlock B(0);
  RegNum A = 32, V = 33;
  B.Insts.push_back(rtl::load(Operand::reg(V), Operand::reg(A), 0));  // 0
  B.Insts.push_back(rtl::load(Operand::reg(34), Operand::reg(A), 1)); // 1
  B.Insts.push_back(rtl::store(Operand::reg(A), 2, Operand::reg(V))); // 2
  B.Insts.push_back(rtl::load(Operand::reg(35), Operand::reg(A), 3)); // 3
  auto Deps = blockDependences(B);
  // Loads may reorder among themselves…
  EXPECT_FALSE(mustPrecede(Deps, 0, 1));
  // …but never across a store, in either direction.
  EXPECT_TRUE(mustPrecede(Deps, 0, 2));
  EXPECT_TRUE(mustPrecede(Deps, 1, 2));
  EXPECT_TRUE(mustPrecede(Deps, 2, 3));
}

TEST(DependenceDag, CallsAreMemoryBarriers) {
  BasicBlock B(0);
  B.Insts.push_back(rtl::load(Operand::reg(32), Operand::reg(40), 0)); // 0
  B.Insts.push_back(rtl::call(Operand::none(), 0, {}));                // 1
  B.Insts.push_back(rtl::load(Operand::reg(33), Operand::reg(40), 0)); // 2
  auto Deps = blockDependences(B);
  EXPECT_TRUE(mustPrecede(Deps, 0, 1));
  EXPECT_TRUE(mustPrecede(Deps, 1, 2));
}

// One bit per predecessor, however many dependences reach it: the
// schedulers count down exactly these.
TEST(DependenceDag, RawAndWawOnOnePredecessorCountOnce) {
  BasicBlock B(0);
  RegNum X = 32;
  B.Insts.push_back(rtl::mov(Operand::reg(X), Operand::imm(1)));      // 0
  B.Insts.push_back(rtl::binary(Op::Add, Operand::reg(X),
                                Operand::reg(X), Operand::imm(2)));   // 1
  auto Deps = blockDependences(B);
  ASSERT_EQ(Deps.size(), 2u);
  EXPECT_TRUE(mustPrecede(Deps, 0, 1)); // RAW and WAW on x.
  EXPECT_EQ(Deps.count(0), 0u);
  EXPECT_EQ(Deps.count(1), 1u);
}

TEST(DependenceDag, StoreAfterSeveralLoads) {
  BasicBlock B(0);
  RegNum A = 32;
  B.Insts.push_back(rtl::load(Operand::reg(33), Operand::reg(A), 0)); // 0
  B.Insts.push_back(rtl::load(Operand::reg(34), Operand::reg(A), 1)); // 1
  B.Insts.push_back(rtl::load(Operand::reg(35), Operand::reg(A), 2)); // 2
  B.Insts.push_back(rtl::store(Operand::reg(A), 3, Operand::reg(34))); // 3
  auto Deps = blockDependences(B);
  ASSERT_EQ(Deps.size(), 4u);
  EXPECT_EQ(Deps.count(0), 0u);
  EXPECT_EQ(Deps.count(1), 0u);
  EXPECT_EQ(Deps.count(2), 0u);
  // Every load precedes the store; load 1 also by its value (RAW).
  EXPECT_EQ(Deps.count(3), 3u);
  for (size_t L = 0; L != 3; ++L)
    EXPECT_TRUE(mustPrecede(Deps, L, 3));
}

TEST(DependenceDag, ControlTransferAfterACall) {
  BasicBlock B(0);
  B.Insts.push_back(rtl::mov(Operand::reg(32), Operand::imm(4)));  // 0
  B.Insts.push_back(rtl::call(Operand::reg(33), 0,
                              {Operand::reg(32)}));               // 1
  B.Insts.push_back(rtl::mov(Operand::reg(34), Operand::imm(5)));  // 2
  B.Insts.push_back(rtl::ret(Operand::reg(33)));                   // 3
  auto Deps = blockDependences(B);
  ASSERT_EQ(Deps.size(), 4u);
  EXPECT_EQ(Deps.count(1), 1u); // The argument (RAW).
  EXPECT_EQ(Deps.count(2), 0u);
  // The return follows everything: the call by RAW and as the block's
  // terminator, the others as the terminator only.
  EXPECT_EQ(Deps.count(3), 3u);
  for (size_t K = 0; K != 3; ++K)
    EXPECT_TRUE(mustPrecede(Deps, K, 3));
}

} // namespace
