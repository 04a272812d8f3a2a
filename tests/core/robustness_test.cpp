//===- robustness_test.cpp - Guarded, budget-aware enumeration tests ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer: every stop condition must yield a self-consistent
// partial DAG with the right StopReason, deterministically; injected
// verifier failures must prune exactly one edge and nothing else.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/core/Compilers.h"
#include "src/core/Search.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// A large real function for the resource-limit tests: big enough that a
/// tiny deadline or memory budget trips mid-enumeration.
Function bigWorkloadFunction() {
  const Workload *W = findWorkload("sha");
  EXPECT_NE(W, nullptr);
  CompileResult R = compileMC(W->Source);
  EXPECT_TRUE(R.ok()) << R.diagText();
  Module &M = R.M;
  return *M.functionFor(M.findGlobal("sha_transform"));
}

/// Partial DAGs must still satisfy every structural invariant: edges in
/// range, weights consistent, levels monotone.
void expectSelfConsistent(const EnumerationResult &R) {
  for (const DagNode &N : R.Nodes) {
    uint64_t Sum = 0;
    for (const DagEdge &E : N.Edges) {
      ASSERT_LT(E.To, R.Nodes.size());
      EXPECT_LE(R.Nodes[E.To].Level, N.Level + 1);
      Sum += R.Nodes[E.To].Weight;
    }
    if (N.isLeaf()) {
      EXPECT_EQ(N.Weight, 1u);
    } else if (!R.Cyclic) {
      EXPECT_EQ(N.Weight, Sum);
    }
  }
}

std::vector<HashTriple> sortedHashes(const EnumerationResult &R) {
  std::vector<HashTriple> H;
  H.reserve(R.Nodes.size());
  for (const DagNode &N : R.Nodes)
    H.push_back(N.Hash);
  std::sort(H.begin(), H.end(), [](const HashTriple &A, const HashTriple &B) {
    return std::tie(A.InstCount, A.ByteSum, A.Crc) <
           std::tie(B.InstCount, B.ByteSum, B.Crc);
  });
  return H;
}

TEST(Robustness, LevelAndNodeBudgetsReportDistinctReasons) {
  Module M1 = compileOrDie(SumSource);
  EnumeratorConfig LevelCfg;
  LevelCfg.MaxLevelSequences = 3;
  EnumerationResult RL = enumerateFn(M1, "f", LevelCfg);
  EXPECT_EQ(RL.Stop, StopReason::LevelBudget);
  EXPECT_FALSE(RL.complete());
  expectSelfConsistent(RL);

  Module M2 = compileOrDie(SumSource);
  EnumeratorConfig NodeCfg;
  NodeCfg.MaxTotalNodes = 10;
  EnumerationResult RN = enumerateFn(M2, "f", NodeCfg);
  EXPECT_EQ(RN.Stop, StopReason::NodeBudget);
  EXPECT_FALSE(RN.complete());
  expectSelfConsistent(RN);
}

TEST(Robustness, DeadlineStopsLargeEnumeration) {
  Function F = bigWorkloadFunction();
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.DeadlineMs = 1;
  Enumerator E(PM, Cfg);
  EnumerationResult R = E.enumerate(F);
  EXPECT_EQ(R.Stop, StopReason::Deadline);
  EXPECT_FALSE(R.complete());
  EXPECT_GE(R.Nodes.size(), 1u);
  expectSelfConsistent(R);
}

TEST(Robustness, MemoryBudgetStopsLargeEnumeration) {
  Function F = bigWorkloadFunction();
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 50'000;
  Enumerator E(PM, Cfg);
  EnumerationResult R = E.enumerate(F);
  EXPECT_EQ(R.Stop, StopReason::MemoryBudget);
  EXPECT_GT(R.ApproxMemoryBytes, Cfg.MaxMemoryBytes);
  expectSelfConsistent(R);
}

TEST(Robustness, SharedFrontierBytesChargedOnce) {
  // The governor's frontier accounting must charge shared storage once.
  // Pin the fix for the old double-charging (every entry billed for its
  // full instance even when COW siblings shared the parent's blocks) by
  // comparing the charged bytes against two proxies computed from the
  // interrupted result's frontier with the same per-object size formula:
  //
  //   full      — every entry billed in full (the old, RSS-overstating
  //               accounting);
  //   identity  — each live block/slot object billed once (what the
  //               process actually holds, i.e. an RSS proxy).
  //
  // charged <= identity <= full must hold, and both inequalities must be
  // strict here: content dedup can only merge more than pointer identity,
  // and a BFS frontier of siblings shares most parent blocks.
  // A many-block function: per-block COW shares everything a phase did
  // not touch, unlike sha_transform whose bytes sit in one giant block.
  const Workload *W = findWorkload("dijkstra");
  ASSERT_NE(W, nullptr);
  CompileResult CR = compileMC(W->Source);
  ASSERT_TRUE(CR.ok()) << CR.diagText();
  Function F = *CR.M.functionFor(CR.M.findGlobal("dijkstra"));
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 150'000;
  Enumerator E(PM, Cfg);
  EnumerationResult R = E.enumerate(F);
  ASSERT_EQ(R.Stop, StopReason::MemoryBudget);
  ASSERT_GT(R.Frontier.size(), 1u);
  // At the barrier the governor holds the DAG's nodes and edges and the
  // frontier's charge.
  uint64_t Charged = R.ApproxMemoryBytes -
                     R.Nodes.size() * MemoryCharge::Node -
                     R.Edges.size() * MemoryCharge::Edge;

  uint64_t Full = 0, Identity = 0;
  std::set<const void *> SeenBlocks, SeenSlots;
  for (const FrontierEntry &En : R.Frontier) {
    uint64_t Fixed = MemoryCharge::FrontierEntry + MemoryCharge::Function +
                     En.Instance.Blocks.size() * MemoryCharge::BlockPointer;
    Full += Fixed;
    Identity += Fixed;
    uint64_t SlotBytes = En.Instance.Slots.size() * MemoryCharge::StackSlot;
    Full += SlotBytes;
    if (SlotBytes && SeenSlots.insert(En.Instance.Slots.identity()).second)
      Identity += SlotBytes;
    for (size_t BI = 0; BI != En.Instance.Blocks.size(); ++BI) {
      const BasicBlock &B = En.Instance.Blocks[BI];
      uint64_t BlockBytes =
          MemoryCharge::Block + B.Insts.size() * MemoryCharge::Rtl;
      Full += BlockBytes;
      if (SeenBlocks.insert(En.Instance.Blocks.identity(BI)).second)
        Identity += BlockBytes;
    }
  }
  EXPECT_LE(Charged, Identity);
  EXPECT_LT(Identity, Full);
  // The frontier-sharing win is the point of the architecture: the
  // charged bytes must come in well under the old full-copy accounting.
  EXPECT_LT(Charged, Full / 2);
}

TEST(Robustness, CancellationDiscardsTheInFlightLevel) {
  // Cancellation is polled before each node; the level it interrupts is
  // discarded, so a token set up front leaves just the root.
  Module M = compileOrDie(SumSource);
  StopToken Token;
  Token.requestStop();
  EnumeratorConfig Cfg;
  Cfg.Stop = &Token;
  EnumerationResult R = enumerateFn(M, "f", Cfg);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
  EXPECT_EQ(R.Nodes.size(), 1u);
  EXPECT_EQ(R.AttemptedPhases, 0u);
  expectSelfConsistent(R);
}

TEST(Robustness, PartialEnumerationIsDeterministic) {
  EnumeratorConfig Cfg;
  Cfg.MaxTotalNodes = 10;
  Module M1 = compileOrDie(SumSource);
  Module M2 = compileOrDie(SumSource);
  EnumerationResult A = enumerateFn(M1, "f", Cfg);
  EnumerationResult B = enumerateFn(M2, "f", Cfg);
  EXPECT_EQ(A.Stop, B.Stop);
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size());
  EXPECT_EQ(A.AttemptedPhases, B.AttemptedPhases);
  EXPECT_EQ(A.ApproxMemoryBytes, B.ApproxMemoryBytes);
  for (size_t I = 0; I != A.Nodes.size(); ++I) {
    EXPECT_EQ(A.Nodes[I].Hash, B.Nodes[I].Hash);
    EXPECT_EQ(A.Nodes[I].Weight, B.Nodes[I].Weight);
  }
}

TEST(Robustness, VerifiedEnumerationMatchesUnverified) {
  Module M1 = compileOrDie(SumSource);
  Module M2 = compileOrDie(SumSource);
  EnumerationResult Plain = enumerateFn(M1, "f");
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  EnumerationResult Verified = enumerateFn(M2, "f", Cfg);
  // All fifteen phases are healthy: verification must change nothing.
  EXPECT_EQ(Verified.Stop, StopReason::Complete);
  EXPECT_TRUE(Verified.Diagnostics.empty());
  EXPECT_EQ(sortedHashes(Plain), sortedHashes(Verified));
  EXPECT_EQ(Plain.AttemptedPhases, Verified.AttemptedPhases);
}

TEST(Robustness, InjectedFaultPrunesExactlyThatEdge) {
  // Ground truth: the clean space, and the edge the fault will hit (the
  // 1st application of instruction selection happens at the root).
  Module M1 = compileOrDie(SumSource);
  EnumerationResult Clean = enumerateFn(M1, "f");
  ASSERT_TRUE(Clean.complete());
  ASSERT_TRUE(Clean.Nodes[0].activeAt(PhaseId::InstructionSelection));
  const uint32_t Pruned =
      Clean.Nodes[0].childVia(PhaseId::InstructionSelection);
  ASSERT_NE(Pruned, UINT32_MAX);

  // Faulted run: roll back that one application, keep everything else.
  Module M2 = compileOrDie(SumSource);
  FaultPlan Plan;
  Plan.add(PhaseId::InstructionSelection, 1);
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  EnumerationResult Faulted = enumerateFn(M2, "f", Cfg);
  EXPECT_EQ(Faulted.Stop, StopReason::VerifierFailure);
  EXPECT_FALSE(Faulted.complete());
  ASSERT_EQ(Faulted.Diagnostics.size(), 1u);
  EXPECT_EQ(Faulted.Diagnostics[0].Phase, PhaseId::InstructionSelection);
  EXPECT_TRUE(Faulted.Diagnostics[0].Injected);
  EXPECT_FALSE(
      Faulted.Nodes[0].activeAt(PhaseId::InstructionSelection));
  expectSelfConsistent(Faulted);

  // The surviving space must equal the clean space with that edge
  // removed: exactly the nodes still reachable from the root, and every
  // edge among them except the pruned one.
  std::set<uint32_t> Reachable{0};
  std::vector<uint32_t> Work{0};
  size_t ExpectedEdges = 0;
  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    for (const DagEdge &E : Clean.Nodes[Id].Edges) {
      if (Id == 0 && E.Phase == PhaseId::InstructionSelection)
        continue;
      ++ExpectedEdges;
      if (Reachable.insert(E.To).second)
        Work.push_back(E.To);
    }
  }
  std::vector<HashTriple> ExpectedHashes;
  for (uint32_t Id : Reachable)
    ExpectedHashes.push_back(Clean.Nodes[Id].Hash);
  std::sort(ExpectedHashes.begin(), ExpectedHashes.end(),
            [](const HashTriple &A, const HashTriple &B) {
              return std::tie(A.InstCount, A.ByteSum, A.Crc) <
                     std::tie(B.InstCount, B.ByteSum, B.Crc);
            });
  EXPECT_EQ(sortedHashes(Faulted), ExpectedHashes);
  size_t FaultedEdges = 0;
  for (const DagNode &N : Faulted.Nodes)
    FaultedEdges += N.Edges.size();
  EXPECT_EQ(FaultedEdges, ExpectedEdges);
}

TEST(Robustness, SearchHonorsCancellation) {
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  SequenceSearch Search(PM, M, "f");
  StopToken Token;
  Token.requestStop();
  SearchConfig Cfg;
  Cfg.Stop = &Token;
  SearchResult R =
      Search.randomSearch(functionNamed(M, "f"), Objective::CodeSize, Cfg);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
  EXPECT_EQ(R.Evaluations, 0u);
  R = Search.geneticSearch(functionNamed(M, "f"), Objective::CodeSize, Cfg);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
}

TEST(Robustness, BatchCompileHonorsCancellation) {
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  StopToken Token;
  Token.requestStop();
  ResourceGovernor Gov;
  Gov.setStopToken(&Token);
  Function &F = functionNamed(M, "f");
  const size_t Before = F.instructionCount();
  CompileStats S = batchCompile(PM, F, &Gov);
  EXPECT_EQ(S.Stop, StopReason::Cancelled);
  EXPECT_EQ(S.Attempted, 0u);
  EXPECT_EQ(F.instructionCount(), Before);
  // Without a governor the same compile runs to completion.
  CompileStats Full = batchCompile(PM, F);
  EXPECT_EQ(Full.Stop, StopReason::Complete);
  EXPECT_GT(Full.Active, 0u);
}

} // namespace
