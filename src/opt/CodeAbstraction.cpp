//===- CodeAbstraction.cpp - Phase n ------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Performs cross-jumping and code-hoisting to move identical instructions
// from basic blocks to their common predecessor or successor" (Table 1).
//
// Cross-jumping: when two predecessors of a join point end with the same
// instruction suffix followed by a jump to the join, one of them abandons
// its copy and jumps into the other's copy instead (the shared suffix is
// split into its own block).
//
// Hoisting: when both successors of a two-way branch begin with the same
// instruction and have no other predecessors, the instruction moves above
// the compare-and-branch in the common predecessor, provided it does not
// interact with the test.
//
//===----------------------------------------------------------------------===//

#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

namespace {

/// Length of the identical instruction suffix of A and B, excluding their
/// terminators.
size_t commonSuffix(const BasicBlock &A, const BasicBlock &B) {
  size_t LenA = A.Insts.size() - 1; // Exclude the trailing jump.
  size_t LenB = B.Insts.size() - 1;
  size_t L = 0;
  while (L < LenA && L < LenB &&
         A.Insts[LenA - 1 - L] == B.Insts[LenB - 1 - L])
    ++L;
  return L;
}

/// One round of cross-jumping; returns true if a transformation fired.
bool crossJumpOnce(Function &F) {
  Cfg C = Cfg::build(F);
  for (size_t J = 0; J != F.Blocks.size(); ++J) {
    const EdgeList &Preds = C.Preds[J];
    if (Preds.size() < 2)
      continue;
    for (size_t X = 0; X != Preds.size(); ++X) {
      for (size_t Y = 0; Y != Preds.size(); ++Y) {
        if (X == Y)
          continue;
        size_t P1 = static_cast<size_t>(Preds[X]); // Loses its suffix.
        size_t P2 = static_cast<size_t>(Preds[Y]); // Keeps and shares.
        const Rtl *T1 = F.Blocks[P1].terminator();
        const Rtl *T2 = F.Blocks[P2].terminator();
        // Both must reach J by explicit unconditional jump so that
        // retargeting P1 and splitting P2 is safe.
        if (!T1 || !T2 || T1->Opcode != Op::Jump || T2->Opcode != Op::Jump)
          continue;
        if (T1->Src[0].Value != F.Blocks[J].Label ||
            T2->Src[0].Value != F.Blocks[J].Label)
          continue;
        size_t L = commonSuffix(F.Blocks[P1], F.Blocks[P2]);
        if (L == 0)
          continue;
        // Split P2 into [head][C: suffix; jump J] and point P1 at C.
        BasicBlock Shared(F.makeLabel());
        {
          BasicBlock &B2 = F.Blocks.mut(P2);
          Shared.Insts.assign(B2.Insts.end() - 1 - static_cast<long>(L),
                              B2.Insts.end());
          B2.Insts.erase(B2.Insts.end() - 1 - static_cast<long>(L),
                         B2.Insts.end());
        }
        // P2's head now falls through into the shared block.
        const int32_t SharedLabel = Shared.Label;
        F.Blocks.insertAt(P2 + 1, std::move(Shared));
        // P1 drops its suffix and jumps to the shared code.
        size_t P1Adjusted = P1 > P2 ? P1 + 1 : P1;
        BasicBlock &B1 = F.Blocks.mut(P1Adjusted);
        B1.Insts.erase(B1.Insts.end() - 1 - static_cast<long>(L),
                       B1.Insts.end());
        B1.Insts.push_back(rtl::jump(SharedLabel));
        return true;
      }
    }
  }
  return false;
}

/// One round of hoisting; returns true if a transformation fired.
bool hoistOnce(Function &F) {
  Cfg C = Cfg::build(F);
  for (size_t P = 0; P != F.Blocks.size(); ++P) {
    const BasicBlock &B = F.Blocks[P];
    // Need the canonical [..., cmp, branch] two-way ending.
    if (B.Insts.size() < 2)
      continue;
    const Rtl &Br = B.Insts.back();
    const Rtl &Cp = B.Insts[B.Insts.size() - 2];
    if (Br.Opcode != Op::Branch || Cp.Opcode != Op::Cmp)
      continue;
    if (C.Succs[P].size() != 2)
      continue;
    size_t S1 = static_cast<size_t>(C.Succs[P][0]);
    size_t S2 = static_cast<size_t>(C.Succs[P][1]);
    if (S1 == S2 || C.Preds[S1].size() != 1 || C.Preds[S2].size() != 1)
      continue;
    if (F.Blocks[S1].Insts.empty() || F.Blocks[S2].Insts.empty())
      continue;
    const Rtl &I1 = F.Blocks[S1].Insts.front();
    if (!(I1 == F.Blocks[S2].Insts.front()))
      continue;
    // The hoisted instruction moves above the compare: it must be a pure
    // register computation that neither feeds nor disturbs the test.
    if (I1.hasSideEffects() || I1.definesIC() || I1.usesIC() ||
        I1.readsMemory() || !I1.definesReg())
      continue;
    RegNum D = I1.Dst.getReg();
    bool Interferes = false;
    auto CheckReads = [&](const Rtl &T) {
      T.forEachUsedReg([&](RegNum R) { Interferes |= (R == D); });
    };
    CheckReads(Cp);
    CheckReads(Br);
    // The compare must not redefine I1's sources (it cannot — Cmp has no
    // register destination), so source values are stable.
    if (Interferes)
      continue;
    {
      Rtl Hoisted = I1;
      BasicBlock &MB = F.Blocks.mut(P);
      MB.Insts.insert(MB.Insts.end() - 2, std::move(Hoisted));
    }
    F.Blocks.mut(S1).Insts.erase(F.Blocks.mut(S1).Insts.begin());
    F.Blocks.mut(S2).Insts.erase(F.Blocks.mut(S2).Insts.begin());
    return true;
  }
  return false;
}

} // namespace

bool CodeAbstractionPhase::apply(Function &F) const {
  bool Changed = false;
  while (crossJumpOnce(F))
    Changed = true;
  while (hoistOnce(F))
    Changed = true;
  return Changed;
}
