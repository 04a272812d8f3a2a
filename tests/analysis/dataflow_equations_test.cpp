//===- dataflow_equations_test.cpp - Analyses satisfy their equations ----===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks the analyses' results against their defining equations on every
// instance of every workload function's (capped) phase order space, so any
// change to how they are computed must still reach the same solution:
//   - liveness: LiveOut(B) is the union of LiveIn over B's successors, and
//     LiveIn(B) is LiveOut(B) stepped backward through B's instructions;
//   - loops: each body holds its header and latches, lists its blocks in
//     ascending order, is dominated by its header and closed under
//     predecessors below it, and loops come deepest first, then by header.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"
#include "tests/common/SuiteInstances.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(DataflowEquations, LivenessAndLoopsOnEverySuiteInstance) {
  size_t Instances = 0, Loops = 0;
  PhaseManager PM;
  forEachSuiteInstance(PM, [&](const std::string &Key, const Function &F) {
    ++Instances;
    const Cfg C = Cfg::build(F);
    const Liveness LV(F, C);
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      BitVector Out(LV.numRegs() + 1);
      for (int S : C.Succs[B])
        Out.unionWith(LV.liveIn(static_cast<size_t>(S)));
      ASSERT_TRUE(LV.liveOut(B) == Out) << Key << " block " << B;
      const std::vector<Rtl> &Insts = F.Blocks[B].Insts;
      for (size_t J = Insts.size(); J-- > 0;)
        Liveness::stepBackward(Insts[J], Out, LV.icIndex());
      ASSERT_TRUE(LV.liveIn(B) == Out) << Key << " block " << B;
    }

    const Dominators D(F, C);
    const LoopInfo LI(F, C, D);
    const std::vector<Loop> &Ls = LI.loops();
    Loops += Ls.size();
    for (size_t X = 0; X != Ls.size(); ++X) {
      const Loop &L = Ls[X];
      ASSERT_TRUE(L.contains(L.Header)) << Key << " loop " << X;
      ASSERT_FALSE(L.Latches.empty()) << Key << " loop " << X;
      for (int Latch : L.Latches) {
        EXPECT_TRUE(L.contains(Latch)) << Key << " loop " << X;
        const auto &Preds = C.Preds[static_cast<size_t>(L.Header)];
        EXPECT_NE(std::find(Preds.begin(), Preds.end(), Latch), Preds.end())
            << Key << " loop " << X << ": latch " << Latch
            << " is no predecessor of the header";
      }
      EXPECT_TRUE(std::adjacent_find(L.Blocks.begin(), L.Blocks.end(),
                                     std::greater_equal<int>()) ==
                  L.Blocks.end())
          << Key << " loop " << X << ": body not strictly ascending";
      // A natural loop: the header dominates the body, and the body is
      // closed under reachable predecessors everywhere but the header.
      for (int B : L.Blocks) {
        EXPECT_TRUE(D.dominates(L.Header, B))
            << Key << " loop " << X << ": block " << B;
        if (B == L.Header)
          continue;
        for (int P : C.Preds[static_cast<size_t>(B)])
          EXPECT_TRUE(!D.isReachable(P) || L.contains(P))
              << Key << " loop " << X << ": predecessor " << P << " of "
              << B << " outside the body";
      }
      if (X != 0) {
        const Loop &Prev = Ls[X - 1];
        EXPECT_TRUE(Prev.Depth > L.Depth ||
                    (Prev.Depth == L.Depth && Prev.Header < L.Header))
            << Key << " loops " << X - 1 << " and " << X << " out of order";
      }
    }
  });
  // Coverage: 6933 instances holding 10969 loops.
  EXPECT_GE(Instances, 6'000u);
  EXPECT_GE(Loops, 9'000u);
}

} // namespace
