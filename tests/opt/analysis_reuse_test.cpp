//===- analysis_reuse_test.cpp - One analysis per pass, checked -----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Instruction selection (s), dead assignment elimination (h) and the
// implicit fall-through merge compute their analyses once per pass rather
// than once per rewrite. That is only sound because of three invariants,
// checked here directly:
//   (a) an s pass leaves the CFG and every block's live-in and live-out
//       sets unchanged, on every instance of every workload function's
//       (capped) space;
//   (b) after h, no side-effect-free instruction of any such instance
//       defines a register or IC that fresh liveness says is dead after it
//       (and a hand-built chain across blocks needs h's second round);
//   (c) a fall-through successor merges into its predecessor exactly when
//       no jump or branch targets it.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Parse.h"
#include "src/opt/Cleanup.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/SuiteInstances.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(AnalysisReuse, InstructionSelectionKeepsCfgAndLiveness) {
  PhaseManager PM;
  size_t Instances = 0, Active = 0;
  forEachSuiteInstance(PM, [&](const std::string &Key, const Function &Inst) {
    ++Instances;
    Function F = Inst;
    const Cfg Before = Cfg::build(F);
    const Liveness LiveBefore(F, Before);
    if (!PM.phase(PhaseId::InstructionSelection).apply(F))
      return;
    ++Active;
    const Cfg After = Cfg::build(F);
    ASSERT_EQ(After.Succs, Before.Succs) << Key;
    ASSERT_EQ(After.Preds, Before.Preds) << Key;
    const Liveness LiveAfter(F, After);
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      EXPECT_TRUE(LiveAfter.liveIn(B) == LiveBefore.liveIn(B))
          << Key << " block " << B;
      EXPECT_TRUE(LiveAfter.liveOut(B) == LiveBefore.liveOut(B))
          << Key << " block " << B;
    }
  });
  // Coverage: 6933 instances, s active on 3809 of them.
  EXPECT_GE(Instances, 6'000u);
  EXPECT_GE(Active, 3'000u);
}

TEST(AnalysisReuse, DeadAssignElimLeavesNoDeadDefinition) {
  PhaseManager PM;
  size_t Active = 0;
  forEachSuiteInstance(PM, [&](const std::string &Key, const Function &Inst) {
    Function F = Inst;
    if (PM.phase(PhaseId::DeadAssignElim).apply(F))
      ++Active;
    const Cfg C = Cfg::build(F);
    const Liveness LV(F, C);
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const std::vector<BitVector> After = LV.liveAfterEach(F, B);
      for (size_t J = 0; J != F.Blocks[B].Insts.size(); ++J) {
        const Rtl &I = F.Blocks[B].Insts[J];
        if (I.hasSideEffects())
          continue;
        if (I.definesReg()) {
          EXPECT_TRUE(After[J].test(I.Dst.getReg()))
              << Key << " block " << B << " inst " << J;
        }
        if (I.definesIC()) {
          EXPECT_TRUE(After[J].test(LV.icIndex()))
              << Key << " block " << B << " inst " << J;
        }
      }
    }
  });
  EXPECT_GE(Active, 3'000u); // h is active on 3740 of the 6933 instances.
}

Function parsed(const std::string &Text) {
  Function F;
  EXPECT_EQ(parseFunction(Text, F), "") << Text;
  return F;
}

TEST(AnalysisReuse, DeadAssignElimIteratesAcrossBlocks) {
  // r[3] is dead; only once it is gone is r[2] dead at the end of L0,
  // and then r[1]. The first round's liveness still sees r[2] used.
  Function F = parsed("function f()\n"
                      "L0:\n"
                      "  r[1]=1;\n"
                      "  r[2]=r[1]+1;\n"
                      "L1:\n"
                      "  r[3]=r[2];\n"
                      "  ret 0;\n");
  PhaseManager PM;
  EXPECT_TRUE(PM.phase(PhaseId::DeadAssignElim).apply(F));
  EXPECT_EQ(F.instructionCount(), 1u) << printFunction(F);
}

TEST(AnalysisReuse, CleanupKeepsABranchTargetSeparate) {
  // L1 falls into L2, but L0 also branches to L2: L2 has two
  // predecessors and stays its own block.
  Function F = parsed("function f()\n"
                      "L0:\n"
                      "  r[1]=1;\n"
                      "  IC=r[1]?0;\n"
                      "  PC=IC==0,L2;\n"
                      "L1:\n"
                      "  r[1]=2;\n"
                      "L2:\n"
                      "  ret r[1];\n");
  EXPECT_FALSE(cleanupCfg(F));
  ASSERT_EQ(F.Blocks.size(), 3u);
  expectVerifies(F);
}

TEST(AnalysisReuse, CleanupKeepsASelfLoopSeparate) {
  // L0 falls into L1, which branches to itself: L1 is its own second
  // predecessor and stays its own block.
  Function F = parsed("function f()\n"
                      "L0:\n"
                      "  r[1]=1;\n"
                      "L1:\n"
                      "  r[1]=r[1]+1;\n"
                      "  IC=r[1]?10;\n"
                      "  PC=IC<0,L1;\n"
                      "L2:\n"
                      "  ret r[1];\n");
  EXPECT_FALSE(cleanupCfg(F));
  ASSERT_EQ(F.Blocks.size(), 3u);
  expectVerifies(F);
}

TEST(AnalysisReuse, CleanupMergesAFallThroughChain) {
  Function F = parsed("function f()\n"
                      "L0:\n"
                      "  r[1]=1;\n"
                      "L1:\n"
                      "  r[2]=2;\n"
                      "L2:\n"
                      "  r[3]=r[1]+r[2];\n"
                      "  ret r[3];\n");
  const size_t Insts = F.instructionCount();
  EXPECT_TRUE(cleanupCfg(F));
  ASSERT_EQ(F.Blocks.size(), 1u);
  EXPECT_EQ(F.Blocks[0].Label, 0);
  EXPECT_EQ(F.instructionCount(), Insts);
  expectVerifies(F);
}

} // namespace
