//===- canonical_property_test.cpp - Canonicalization property tests -----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based check of the Section 4.2.1 claim: instance identity is
// invariant under any renaming of registers (within their hardware/pseudo
// classes) and any relabeling of basic blocks — and under *nothing else*:
// any change to an actual instruction changes the triple. Permutations
// are driven by the deterministic Rng over real compiled functions, so
// failures reproduce from the printed seed.
//
//===----------------------------------------------------------------------===//

#include "src/core/Canonical.h"

#include "src/frontend/Compile.h"
#include "src/ir/Printer.h"
#include "src/support/Rng.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace pose;
using namespace pose::testhelpers;

namespace {

/// Collects every register the function mentions, split by class.
void collectRegs(const Function &F, std::set<RegNum> &Hardware,
                 std::set<RegNum> &Pseudo) {
  auto Note = [&](RegNum R) {
    (isHardwareReg(R) ? Hardware : Pseudo).insert(R);
  };
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts) {
      if (I.Dst.isReg())
        Note(I.Dst.getReg());
      I.forEachUsedReg(Note);
    }
}

/// A random bijection of \p Used onto itself (Fisher-Yates over the
/// sorted element list, so identical seeds give identical permutations).
std::map<RegNum, RegNum> permutationOf(const std::set<RegNum> &Used,
                                       Rng &R) {
  std::vector<RegNum> From(Used.begin(), Used.end());
  std::vector<RegNum> To = From;
  for (size_t I = To.size(); I > 1; --I)
    std::swap(To[I - 1], To[R.below(I)]);
  std::map<RegNum, RegNum> Map;
  for (size_t I = 0; I != From.size(); ++I)
    Map[From[I]] = To[I];
  return Map;
}

/// Applies a register permutation (class-preserving by construction of
/// the maps) to every operand.
Function permuteRegisters(const Function &F, Rng &R) {
  std::set<RegNum> Hardware, Pseudo;
  collectRegs(F, Hardware, Pseudo);
  std::map<RegNum, RegNum> Map = permutationOf(Hardware, R);
  std::map<RegNum, RegNum> PseudoMap = permutationOf(Pseudo, R);
  Map.insert(PseudoMap.begin(), PseudoMap.end());
  Function G = F;
  for (size_t BI = 0; BI != G.Blocks.size(); ++BI)
    for (Rtl &I : G.Blocks.mut(BI).Insts) {
      if (I.Dst.isReg())
        I.Dst = Operand::reg(Map.at(I.Dst.getReg()));
      I.forEachUseOperand(
          [&](Operand &O) { O = Operand::reg(Map.at(O.getReg())); });
    }
  return G;
}

/// Renames every block label to a fresh number (scrambled order, offset
/// past everything the function uses) and rewrites label operands.
Function relabelBlocks(const Function &F, Rng &R) {
  Function G = F;
  std::vector<int32_t> Old;
  for (const BasicBlock &B : G.Blocks)
    Old.push_back(B.Label);
  std::vector<int32_t> Scrambled = Old;
  for (size_t I = Scrambled.size(); I > 1; --I)
    std::swap(Scrambled[I - 1], Scrambled[R.below(I)]);
  int32_t Base = 1'000'000 + static_cast<int32_t>(R.below(1'000));
  std::map<int32_t, int32_t> Map;
  for (size_t I = 0; I != Old.size(); ++I)
    Map[Scrambled[I]] = Base + static_cast<int32_t>(I);
  for (size_t BI = 0; BI != G.Blocks.size(); ++BI) {
    BasicBlock &B = G.Blocks.mut(BI);
    B.Label = Map.at(B.Label);
    for (Rtl &I : B.Insts)
      for (Operand &S : I.Src)
        if (S.isLabel())
          S = Operand::label(Map.at(S.Value));
  }
  G.recomputeCounters();
  return G;
}

/// Mutates one real instruction detail chosen by \p R; returns false when
/// the function offers nothing safely mutable.
bool mutateOneInstruction(Function &F, Rng &R) {
  // Gather candidate mutations: every immediate operand, every binary
  // opcode, every conditional branch.
  struct Site {
    size_t Block, Inst;
    int Kind; // 0 = imm bump, 1 = opcode swap, 2 = branch cond flip
    int Src;
  };
  std::vector<Site> Sites;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI)
    for (size_t II = 0; II != F.Blocks[BI].Insts.size(); ++II) {
      const Rtl &I = F.Blocks[BI].Insts[II];
      for (int S = 0; S != 3; ++S)
        if (I.Src[S].isImm())
          Sites.push_back({BI, II, 0, S});
      if (I.Opcode == Op::Add || I.Opcode == Op::Sub)
        Sites.push_back({BI, II, 1, 0});
      if (I.Opcode == Op::Branch && I.CC == Cond::Lt)
        Sites.push_back({BI, II, 2, 0});
    }
  if (Sites.empty())
    return false;
  const Site &S = Sites[R.below(Sites.size())];
  Rtl &I = F.Blocks.mut(S.Block).Insts[S.Inst];
  switch (S.Kind) {
  case 0:
    // Wrap in unsigned arithmetic: the immediate can be INT32_MAX.
    I.Src[S.Src] = Operand::imm(static_cast<int32_t>(
        static_cast<uint32_t>(I.Src[S.Src].Value) + 1u));
    break;
  case 1:
    I.Opcode = I.Opcode == Op::Add ? Op::Sub : Op::Add;
    break;
  default:
    I.CC = Cond::Ge;
    break;
  }
  return true;
}

/// Every function of every workload, once.
std::vector<Function> sampleFunctions() {
  std::vector<Function> Out;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (Function &F : M.Functions)
      Out.push_back(std::move(F));
  }
  return Out;
}

TEST(CanonicalProperty, RenamingIsInvariantOverManySeeds) {
  std::vector<Function> Fns = sampleFunctions();
  ASSERT_FALSE(Fns.empty());
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    for (const Function &F : Fns) {
      Function P = relabelBlocks(permuteRegisters(F, R), R);
      CanonicalForm A = canonicalize(F, /*KeepBytes=*/true);
      CanonicalForm B = canonicalize(P, /*KeepBytes=*/true);
      EXPECT_EQ(A.Hash, B.Hash) << "seed " << Seed << " fn " << F.Name;
      // Exact byte equality, not just the triple: the permutation must
      // vanish entirely under remapping.
      EXPECT_EQ(A.Bytes, B.Bytes) << "seed " << Seed << " fn " << F.Name;
    }
  }
}

TEST(CanonicalProperty, AnyInstructionMutationChangesTheTriple) {
  std::vector<Function> Fns = sampleFunctions();
  size_t Mutated = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    for (const Function &F : Fns) {
      Function M = F;
      if (!mutateOneInstruction(M, R))
        continue;
      ++Mutated;
      EXPECT_NE(canonicalize(F).Hash, canonicalize(M).Hash)
          << "seed " << Seed << " fn " << F.Name << "\n"
          << printFunction(M);
    }
  }
  // The workloads are real programs: nearly all functions must have
  // offered a mutable site.
  EXPECT_GT(Mutated, 8 * 40u);
}

TEST(CanonicalProperty, MutationAfterRenamingStillDetected) {
  // Compose both properties: a renamed-then-mutated instance must differ
  // from the original (renaming cannot mask a real change).
  std::vector<Function> Fns = sampleFunctions();
  Rng R(99);
  for (const Function &F : Fns) {
    Function P = relabelBlocks(permuteRegisters(F, R), R);
    if (!mutateOneInstruction(P, R))
      continue;
    EXPECT_NE(canonicalize(F).Hash, canonicalize(P).Hash) << F.Name;
  }
}

TEST(CanonicalProperty, RemapAblationSeesRegisterNames) {
  // With RemapRegisters off, a nontrivial pseudo-register permutation is
  // visible — the ablation measurably loses pruning power (bench_ablation
  // quantifies it; this pins the mechanism).
  std::vector<Function> Fns = sampleFunctions();
  size_t Differ = 0, Tried = 0;
  Rng R(7);
  for (const Function &F : Fns) {
    std::set<RegNum> Hardware, Pseudo;
    collectRegs(F, Hardware, Pseudo);
    if (Pseudo.size() < 4)
      continue;
    Function P = permuteRegisters(F, R);
    ++Tried;
    // Remapping on: always equal.
    EXPECT_EQ(canonicalize(F).Hash, canonicalize(P).Hash) << F.Name;
    // Remapping off: equal only if the permutation happened to be the
    // identity on this function, so over many functions most must differ.
    if (canonicalize(F, false, false).Hash !=
        canonicalize(P, false, false).Hash)
      ++Differ;
  }
  ASSERT_GT(Tried, 20u);
  EXPECT_GT(Differ, Tried / 2);
}

} // namespace
