//===- function_test.cpp - Function/CFG unit tests --------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/ir/Function.h"

#include <gtest/gtest.h>

using namespace pose;

namespace {

/// Builds the diamond CFG used by several tests:
///   B0: cmp; branch Eq -> B2
///   B1: mov; jump -> B3
///   B2: mov (falls through)
///   B3: ret
Function makeDiamond() {
  Function F;
  F.Name = "diamond";
  size_t B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
         B3 = F.addBlock();
  RegNum R = F.makePseudo();
  F.Blocks.mut(B0).Insts.push_back(rtl::cmp(Operand::reg(R), Operand::imm(0)));
  F.Blocks.mut(B0).Insts.push_back(rtl::branch(Cond::Eq, F.Blocks[B2].Label));
  F.Blocks.mut(B1).Insts.push_back(rtl::mov(Operand::reg(R), Operand::imm(1)));
  F.Blocks.mut(B1).Insts.push_back(rtl::jump(F.Blocks[B3].Label));
  F.Blocks.mut(B2).Insts.push_back(rtl::mov(Operand::reg(R), Operand::imm(2)));
  F.Blocks.mut(B3).Insts.push_back(rtl::ret(Operand::reg(R)));
  return F;
}

TEST(Function, CountersAndSlots) {
  Function F;
  RegNum R1 = F.makePseudo();
  RegNum R2 = F.makePseudo();
  EXPECT_EQ(R1, FirstPseudoReg);
  EXPECT_EQ(R2, FirstPseudoReg + 1);
  EXPECT_EQ(F.pseudoLimit(), FirstPseudoReg + 2);

  StackSlot S;
  S.Name = "x";
  EXPECT_EQ(F.addSlot(S), 0);
  S.Name = "y";
  EXPECT_EQ(F.addSlot(S), 1);
  EXPECT_EQ(F.Slots.size(), 2u);
}

TEST(Function, FindBlockAndInstructionCount) {
  Function F = makeDiamond();
  EXPECT_EQ(F.instructionCount(), 6u);
  EXPECT_EQ(F.findBlock(F.Blocks[2].Label), 2);
  EXPECT_EQ(F.findBlock(9999), -1);
}

TEST(Function, CfgDiamond) {
  Function F = makeDiamond();
  Cfg C = Cfg::build(F);
  ASSERT_EQ(C.Succs.size(), 4u);
  // B0: branch to B2 plus fall-through to B1.
  EXPECT_EQ(C.Succs[0], (std::vector<int>{2, 1}));
  EXPECT_EQ(C.Succs[1], (std::vector<int>{3}));
  EXPECT_EQ(C.Succs[2], (std::vector<int>{3}));
  EXPECT_TRUE(C.Succs[3].empty());
  EXPECT_TRUE(C.Preds[0].empty());
  EXPECT_EQ(C.Preds[3].size(), 2u);
}

TEST(Function, CfgBranchToNextBlockHasOneEdge) {
  // A branch that targets the fall-through block must not produce a
  // duplicate successor edge.
  Function F;
  size_t B0 = F.addBlock(), B1 = F.addBlock();
  RegNum R = F.makePseudo();
  F.Blocks.mut(B0).Insts.push_back(rtl::cmp(Operand::reg(R), Operand::imm(0)));
  F.Blocks.mut(B0).Insts.push_back(rtl::branch(Cond::Eq, F.Blocks[B1].Label));
  F.Blocks.mut(B1).Insts.push_back(rtl::ret(Operand::none()));
  Cfg C = Cfg::build(F);
  EXPECT_EQ(C.Succs[0], (std::vector<int>{1}));
  EXPECT_EQ(C.Preds[1], (std::vector<int>{0}));
}

TEST(Function, RecomputeCounters) {
  Function F;
  F.Blocks.emplace_back(12);
  F.Blocks.mutBack().Insts.push_back(
      rtl::mov(Operand::reg(77), Operand::imm(0)));
  F.Blocks.mutBack().Insts.push_back(rtl::ret(Operand::reg(77)));
  F.recomputeCounters();
  EXPECT_EQ(F.pseudoLimit(), 78u);
  EXPECT_EQ(F.makeLabel(), 13);
  EXPECT_EQ(F.makePseudo(), 78u);
}

TEST(Function, ModuleLookup) {
  Module M;
  Global GV;
  GV.Name = "data";
  GV.Kind = GlobalKind::Var;
  M.Globals.push_back(GV);
  Global GF;
  GF.Name = "f";
  GF.Kind = GlobalKind::Func;
  GF.FuncIndex = 0;
  M.Globals.push_back(GF);
  M.Functions.emplace_back();
  M.Functions[0].Name = "f";

  EXPECT_EQ(M.findGlobal("data"), 0);
  EXPECT_EQ(M.findGlobal("f"), 1);
  EXPECT_EQ(M.findGlobal("missing"), -1);
  EXPECT_EQ(M.functionFor(0), nullptr); // Var, not function.
  ASSERT_NE(M.functionFor(1), nullptr);
  EXPECT_EQ(M.functionFor(1)->Name, "f");
  EXPECT_EQ(M.functionFor(-1), nullptr);
}

TEST(Function, FallsThrough) {
  Function F = makeDiamond();
  EXPECT_TRUE(Cfg::fallsThrough(F.Blocks[0]));  // Branch falls through.
  EXPECT_FALSE(Cfg::fallsThrough(F.Blocks[1])); // Jump does not.
  EXPECT_TRUE(Cfg::fallsThrough(F.Blocks[2]));  // No terminator.
  EXPECT_FALSE(Cfg::fallsThrough(F.Blocks[3])); // Ret does not.
}

TEST(Function, CfgLongPredecessorListKeepsDiscoveryOrder) {
  // B0..B5 each compare and branch to the exit block B6, and otherwise
  // fall through to the next block; B5's branch and fall-through are the
  // same edge. B6 gets six predecessors, past the two an edge list holds
  // inline and past the first heap capacity.
  constexpr size_t K = 6;
  Function F;
  for (size_t I = 0; I != K + 1; ++I)
    F.addBlock();
  RegNum R = F.makePseudo();
  const int32_t Exit = F.Blocks[K].Label;
  for (size_t I = 0; I != K; ++I) {
    F.Blocks.mut(I).Insts.push_back(
        rtl::cmp(Operand::reg(R), Operand::imm(static_cast<int32_t>(I))));
    F.Blocks.mut(I).Insts.push_back(rtl::branch(Cond::Eq, Exit));
  }
  F.Blocks.mut(K).Insts.push_back(rtl::ret(Operand::reg(R)));
  const Cfg C = Cfg::build(F);

  for (size_t I = 0; I + 1 < K; ++I)
    EXPECT_EQ(C.Succs[I], (std::vector<int>{static_cast<int>(K),
                                            static_cast<int>(I) + 1}));
  EXPECT_EQ(C.Succs[K - 1], (std::vector<int>{static_cast<int>(K)}));
  EXPECT_TRUE(C.Succs[K].empty());
  EXPECT_EQ(C.Preds[K], (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(C.Preds[K][4], 4);

  // Predecessors come in the order their edges are found: blocks in
  // layout order, each block's successors in order.
  std::vector<std::vector<int>> Found(K + 1);
  for (size_t I = 0; I != K + 1; ++I)
    for (int S : C.Succs[I])
      Found[static_cast<size_t>(S)].push_back(static_cast<int>(I));
  for (size_t I = 0; I != K + 1; ++I)
    EXPECT_EQ(C.Preds[I], Found[I]) << "block " << I;

  // Copies and moves keep long (heap) and short (inline) lists alike.
  Cfg Copy = C;
  EXPECT_EQ(Copy.Preds, C.Preds);
  EXPECT_EQ(Copy.Succs, C.Succs);
  const Cfg Moved = std::move(Copy);
  EXPECT_EQ(Moved.Preds, C.Preds);
  Copy = Moved;
  EXPECT_EQ(Copy.Preds[K], (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

} // namespace
