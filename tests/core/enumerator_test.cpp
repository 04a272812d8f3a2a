//===- enumerator_test.cpp - Exhaustive enumeration tests ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/core/SpaceStats.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <set>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

EnumerationResult enumerateFn(Module &M, const std::string &Name,
                              EnumeratorConfig Cfg = {}) {
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  return E.enumerate(functionNamed(M, Name));
}

TEST(Enumerator, TrivialFunctionTinySpace) {
  Module M = compileOrDie("int f() { return 3; }");
  EnumerationResult R = enumerateFn(M, "f");
  EXPECT_TRUE(R.complete());
  EXPECT_FALSE(R.Cyclic);
  // mov t,3 ; ret t — instruction selection collapses to ret 3; evaluation
  // order has nothing to do. A handful of instances at most.
  EXPECT_GE(R.Nodes.size(), 2u);
  EXPECT_LE(R.Nodes.size(), 6u);
  EXPECT_GE(R.MaxActiveLength, 1u);
}

TEST(Enumerator, CompletesOnLoopFunction) {
  Module M = compileOrDie(SumSource);
  EnumerationResult R = enumerateFn(M, "f");
  EXPECT_TRUE(R.complete());
  EXPECT_FALSE(R.Cyclic);
  EXPECT_GT(R.Nodes.size(), 10u);
  EXPECT_GT(R.leafCount(), 0u);
  EXPECT_LT(R.leafCount(), R.Nodes.size());
  // Far fewer distinct instances than attempted phases (the paper's core
  // observation).
  EXPECT_GT(R.AttemptedPhases, R.Nodes.size());
}

TEST(Enumerator, DeterministicAcrossRuns) {
  Module M1 = compileOrDie(SumSource);
  Module M2 = compileOrDie(SumSource);
  EnumerationResult A = enumerateFn(M1, "f");
  EnumerationResult B = enumerateFn(M2, "f");
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size());
  EXPECT_EQ(A.AttemptedPhases, B.AttemptedPhases);
  EXPECT_EQ(A.MaxActiveLength, B.MaxActiveLength);
  for (size_t I = 0; I != A.Nodes.size(); ++I) {
    EXPECT_EQ(A.Nodes[I].Hash, B.Nodes[I].Hash);
    EXPECT_EQ(A.Nodes[I].Edges.size(), B.Nodes[I].Edges.size());
    EXPECT_EQ(A.Nodes[I].Weight, B.Nodes[I].Weight);
  }
}

TEST(Enumerator, WeightsAreConsistent) {
  Module M = compileOrDie(SumSource);
  EnumerationResult R = enumerateFn(M, "f");
  for (const DagNode &N : R.Nodes) {
    if (N.isLeaf()) {
      EXPECT_EQ(N.Weight, 1u);
      continue;
    }
    uint64_t Sum = 0;
    for (const DagEdge &E : N.Edges)
      Sum += R.Nodes[E.To].Weight;
    EXPECT_EQ(N.Weight, Sum);
  }
  // Root weight = number of distinct maximal active sequences; at least
  // the number of leaves.
  EXPECT_GE(R.Nodes[0].Weight, R.leafCount());
}

TEST(Enumerator, MasksPartitionPhases) {
  Module M = compileOrDie(SumSource);
  EnumerationResult R = enumerateFn(M, "f");
  for (const DagNode &N : R.Nodes) {
    // Active and dormant never overlap.
    EXPECT_EQ(N.ActiveMask & N.DormantMask, 0);
    // Every phase is resolved one way or the other on expanded nodes.
    EXPECT_EQ(N.ActiveMask | N.DormantMask, (1u << NumPhases) - 1);
    // Edges match the active mask.
    uint16_t EdgeMask = 0;
    for (const DagEdge &E : N.Edges)
      EdgeMask |= static_cast<uint16_t>(1u << static_cast<int>(E.Phase));
    EXPECT_EQ(EdgeMask, N.ActiveMask);
  }
}

TEST(Enumerator, EdgesPointToValidNodesAndLevels) {
  Module M = compileOrDie(SumSource);
  EnumerationResult R = enumerateFn(M, "f");
  for (const DagNode &N : R.Nodes)
    for (const DagEdge &E : N.Edges) {
      ASSERT_LT(E.To, R.Nodes.size());
      // BFS level of the child is at most parent level + 1.
      EXPECT_LE(R.Nodes[E.To].Level, N.Level + 1);
    }
}

TEST(Enumerator, BudgetStopsSearch) {
  Module M = compileOrDie(
      "int f(int a,int b,int c){int x=a*b+c;int y=b*c+a;int z=a*c+b;"
      "int w;if(a>b)w=x*y;else w=y*z;while(w>a){w=w-b;a=a+1;}"
      "return w+x+y+z;}");
  EnumeratorConfig Tight;
  Tight.MaxTotalNodes = 20;
  EnumerationResult R = enumerateFn(M, "f", Tight);
  EXPECT_FALSE(R.complete());
  EXPECT_GT(R.Nodes.size(), 20u);
}

TEST(Enumerator, LeafInstancesPreserveSemantics) {
  // Materialize every leaf by replaying a path from the root, then check
  // behaviour differentially against the unoptimized function.
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  EnumerationResult R = enumerateFn(M, "f");
  const Function &Root = functionNamed(M, "f");
  Interpreter Sim(M);
  RunResult Base = Sim.run("f", {9});
  ASSERT_TRUE(Base.Ok) << Base.Error;

  // Find a path (phase sequence) to every leaf via BFS over edges: the
  // node and phase each node was first reached from.
  std::vector<std::pair<int, PhaseId>> From(R.Nodes.size());
  std::vector<uint32_t> Work{0};
  std::set<uint32_t> Visited{0};
  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    for (const DagEdge &E : R.Nodes[Id].Edges)
      if (Visited.insert(E.To).second) {
        From[E.To] = {static_cast<int>(Id), E.Phase};
        Work.push_back(E.To);
      }
  }
  size_t Checked = 0;
  for (uint32_t Id = 0; Id != R.Nodes.size(); ++Id) {
    if (!R.Nodes[Id].isLeaf())
      continue;
    std::vector<PhaseId> Path;
    for (int Cur = static_cast<int>(Id); Cur != 0; Cur = From[Cur].first)
      Path.push_back(From[Cur].second);
    Function Instance = Root;
    for (size_t K = Path.size(); K-- > 0;)
      EXPECT_TRUE(PM.attempt(Path[K], Instance));
    EXPECT_EQ(canonicalize(Instance).Hash, R.Nodes[Id].Hash);
    Sim.overrideFunction("f", &Instance);
    RunResult After = Sim.run("f", {9});
    ASSERT_TRUE(After.Ok) << After.Error;
    EXPECT_TRUE(Base.sameBehavior(After));
    Sim.overrideFunction("f", nullptr);
    ++Checked;
  }
  EXPECT_GT(Checked, 0u);
}

TEST(SpaceStatsTest, Table3RowFields) {
  Module M = compileOrDie(SumSource);
  EnumerationResult R = enumerateFn(M, "f");
  SpaceStats S = computeSpaceStats(functionNamed(M, "f"), R);
  EXPECT_EQ(S.Name, "f");
  EXPECT_GT(S.Insts, 10u);
  EXPECT_GT(S.Blocks, 2u);
  EXPECT_GT(S.Branches, 1u);
  EXPECT_EQ(S.Loops, 1u);
  EXPECT_TRUE(S.complete());
  EXPECT_EQ(S.FnInstances, R.Nodes.size());
  EXPECT_EQ(S.LeafInstances, R.leafCount());
  EXPECT_GE(S.LeafCodeSizeMax, S.LeafCodeSizeMin);
  EXPECT_GT(S.LeafCodeSizeMin, 0u);
  EXPECT_GE(S.DistinctControlFlows, 1u);
  EXPECT_LE(S.DistinctControlFlows, S.FnInstances);
  EXPECT_GE(S.codeSizeDiffPercent(), 0.0);
}

TEST(SpaceStatsTest, NaiveSpaceSize) {
  EXPECT_EQ(naiveSpaceSize(0), 0u);
  EXPECT_EQ(naiveSpaceSize(1), 15u);
  EXPECT_EQ(naiveSpaceSize(2), 15u + 225u);
  EXPECT_EQ(naiveSpaceSize(32), UINT64_MAX); // 15^32 saturates.
}

} // namespace
