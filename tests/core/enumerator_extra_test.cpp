//===- enumerator_extra_test.cpp - Enumerator bookkeeping edge cases -------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(EnumeratorExtra, CyclicGraphWeightsFallBack) {
  // Hand-built 2-cycle: computeWeights must flag it and terminate with
  // finite weights rather than looping.
  EnumerationResult R;
  R.Nodes.resize(2);
  R.appendEdges(0, 1)[0] = {PhaseId::BranchChaining, 1};
  R.appendEdges(1, 1)[0] = {PhaseId::Cse, 0};
  computeWeights(R);
  EXPECT_TRUE(R.Cyclic);
  EXPECT_GE(R.Nodes[0].Weight, 1u);
  EXPECT_GE(R.Nodes[1].Weight, 1u);
}

TEST(EnumeratorExtra, LevelBookkeepingIsConsistent) {
  Module M = compileOrDie(
      "int f(int n){int s=0;int i=0;while(i<n){s=s+i*3;i=i+1;}return s;}");
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult R = E.enumerate(functionNamed(M, "f"));
  ASSERT_TRUE(R.complete());

  // Levels: new-node counts must sum to the node count; level 0 holds
  // exactly the root; attempted >= active at every level.
  uint64_t NodeSum = 0, AttemptSum = 0;
  for (const LevelStat &L : R.Levels) {
    NodeSum += L.NewNodes;
    AttemptSum += L.Attempted;
    EXPECT_GE(L.Attempted, L.Active);
  }
  EXPECT_EQ(NodeSum, R.Nodes.size());
  EXPECT_EQ(AttemptSum, R.AttemptedPhases);
  EXPECT_EQ(R.Levels[0].NewNodes, 1u);
  EXPECT_EQ(R.Levels[0].ActiveSequences, 1u);

  // Node levels: root at 0; every other node discovered one level after
  // some parent (BFS), and its level matches its shortest path length.
  EXPECT_EQ(R.Nodes[0].Level, 0u);
  for (size_t I = 1; I != R.Nodes.size(); ++I) {
    uint32_t Best = UINT32_MAX;
    for (const DagNode &P : R.Nodes)
      for (const DagEdge &Ed : P.Edges)
        if (Ed.To == I)
          Best = std::min(Best, P.Level + 1);
    EXPECT_EQ(R.Nodes[I].Level, Best) << "node " << I;
  }
}

TEST(EnumeratorExtra, RootStatusesCoverAllPhases) {
  Module M = compileOrDie("int f(int a){ return a + 2; }");
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult R = E.enumerate(functionNamed(M, "f"));
  // On straight-line code most phases are dormant at the root; only s
  // (and possibly o) are active. Either way every phase is resolved.
  EXPECT_EQ(R.Nodes[0].ActiveMask | R.Nodes[0].DormantMask,
            (1u << NumPhases) - 1);
  EXPECT_TRUE(R.Nodes[0].activeAt(PhaseId::InstructionSelection));
  EXPECT_FALSE(R.Nodes[0].activeAt(PhaseId::RegisterAllocation));
}

TEST(EnumeratorExtra, SequenceBudgetTriggersIncomplete) {
  Module M = compileOrDie(
      "int f(int a,int b,int c){int x=a*b;int y=b*c;int z=c*a;"
      "int w=0;int i=0;while(i<a){if(x>y)w=w+z;else w=w-x;i=i+1;}"
      "return w+x+y+z;}");
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 3; // Absurdly tight.
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  EnumerationResult R = E.enumerate(functionNamed(M, "f"));
  EXPECT_FALSE(R.complete());
  // Weights still computed for the partial space (finite).
  for (const DagNode &N : R.Nodes)
    EXPECT_GE(N.Weight, 0u);
}

} // namespace
