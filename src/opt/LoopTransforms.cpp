//===- LoopTransforms.cpp - Phase l -------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Performs loop-invariant code motion, recurrence elimination, loop
// strength reduction, and induction variable elimination on each loop
// ordered by loop nesting level" (Table 1). Legal only after register
// allocation: the analyses reason about values kept in registers
// (Section 3).
//
// This reproduction implements loop-invariant code motion and induction-
// variable strength reduction (i*c with unit-step i becomes an accumulator
// updated by +/- c). Recurrence elimination and full induction-variable
// elimination are not implemented; DESIGN.md records the deviation.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"

#include <bitset>
#include <optional>
#include <vector>

using namespace pose;

namespace {

/// The definitions of one register inside a loop: how many there are, and
/// where the first one (in block order) sits.
struct LoopDefs {
  size_t Count = 0;
  int Block = -1;
  size_t Index = 0;
};

/// The in-loop definitions of every register of one loop, gathered in one
/// scan of its body and indexed by register number.
class LoopDefTable {
public:
  LoopDefTable(const Function &F, const Loop &L) {
    for (int B : L.Blocks) {
      const BasicBlock &Blk = F.Blocks[static_cast<size_t>(B)];
      for (size_t J = 0; J != Blk.Insts.size(); ++J) {
        if (!Blk.Insts[J].definesReg())
          continue;
        const RegNum R = Blk.Insts[J].Dst.getReg();
        if (R >= ByReg.size())
          ByReg.resize(R + 1);
        LoopDefs &Defs = ByReg[R];
        if (Defs.Count++ == 0) {
          Defs.Block = B;
          Defs.Index = J;
        }
      }
    }
  }

  /// The definitions of \p R inside the loop.
  LoopDefs of(RegNum R) const {
    return R < ByReg.size() ? ByReg[R] : LoopDefs();
  }

private:
  std::vector<LoopDefs> ByReg;
};

/// True when every register source of \p I has no definition inside the
/// loop.
bool sourcesInvariant(const LoopDefTable &Defs, const Rtl &I) {
  bool Invariant = true;
  I.forEachUsedReg([&](RegNum R) {
    if (Defs.of(R).Count != 0)
      Invariant = false;
  });
  return Invariant;
}

/// True if block \p B dominates every latch and every source of an exit
/// edge of \p L — i.e. it executes before the loop can either repeat or
/// leave, making motion of single-def pure code out of it safe.
bool dominatesLatchesAndExits(const Function &, const Loop &L,
                              const Cfg &C, const Dominators &D, int B) {
  for (int Latch : L.Latches)
    if (!D.dominates(static_cast<size_t>(B), static_cast<size_t>(Latch)))
      return false;
  for (int Blk : L.Blocks)
    for (int S : C.Succs[static_cast<size_t>(Blk)])
      if (!L.contains(S) &&
          !D.dominates(static_cast<size_t>(B), static_cast<size_t>(Blk)))
        return false;
  return true;
}

/// True when every in-loop predecessor of the header reaches it through an
/// explicit jump or branch (no fall-through back edges), which preheader
/// insertion requires.
bool backEdgesExplicit(const Function &F, const Loop &L, const Cfg &C) {
  size_t H = static_cast<size_t>(L.Header);
  for (int P : C.Preds[H]) {
    if (!L.contains(P))
      continue;
    const Rtl *T = F.Blocks[static_cast<size_t>(P)].terminator();
    if (!T || T->Opcode == Op::Ret)
      return false;
    if (T->Src[0].Value != F.Blocks[H].Label)
      return false; // Reaches the header by fall-through.
  }
  return true;
}

/// Returns the index of the loop's preheader block, creating one if
/// needed: a block placed directly before the header in layout, into
/// which all outside entry edges are redirected.
size_t getOrCreatePreheader(Function &F, const Loop &L) {
  size_t H = static_cast<size_t>(L.Header);
  const int32_t HeaderLabel = F.Blocks[H].Label;
  BasicBlock P(F.makeLabel());
  const int32_t PLabel = P.Label;
  // Redirect outside jumps/branches targeting the header.
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    if (L.contains(static_cast<int>(B)))
      continue;
    const Rtl *T = F.Blocks[B].terminator();
    if (T && (T->Opcode == Op::Jump || T->Opcode == Op::Branch) &&
        T->Src[0].Value == HeaderLabel)
      F.Blocks.mut(B).terminator()->Src[0] = Operand::label(PLabel);
  }
  F.Blocks.insertAt(H, std::move(P));
  return H; // The preheader now sits at the header's old index.
}

/// Attempts one loop-invariant hoist out of \p L. Returns true if code
/// changed. \p LV is computed on first use, for the code \p C describes.
bool hoistOneInvariant(Function &F, const Loop &L, const Cfg &C,
                       const Dominators &D, const LoopDefTable &Defs,
                       std::optional<Liveness> &LV) {
  size_t H = static_cast<size_t>(L.Header);
  if (!backEdgesExplicit(F, L, C))
    return false;
  for (int B : L.Blocks) {
    if (!dominatesLatchesAndExits(F, L, C, D, B))
      continue;
    const BasicBlock &Blk = F.Blocks[static_cast<size_t>(B)];
    for (size_t J = 0; J != Blk.Insts.size(); ++J) {
      const Rtl &I = Blk.Insts[J];
      if (I.hasSideEffects() || I.readsMemory() || I.definesIC() ||
          !I.definesReg())
        continue;
      if (!sourcesInvariant(Defs, I))
        continue;
      RegNum R = I.Dst.getReg();
      if (Defs.of(R).Count != 1)
        continue;
      // The old value of R must not be consumed inside the loop before
      // the definition: if it were, R would be live into the header.
      if (!LV)
        LV.emplace(F, C);
      if (LV->liveIn(H).test(R))
        continue;
      // Hoist into the preheader.
      Rtl Moved = I;
      {
        std::vector<Rtl> &MI = F.Blocks.mut(static_cast<size_t>(B)).Insts;
        MI.erase(MI.begin() + static_cast<long>(J));
      }
      size_t PH = getOrCreatePreheader(F, L);
      F.Blocks.mut(PH).Insts.push_back(std::move(Moved));
      return true;
    }
  }
  return false;
}

/// Attempts one induction-variable strength reduction in \p L: replaces
/// t = i * r (unit-step basic induction variable i, invariant r) with an
/// accumulator register updated alongside i's increment.
bool strengthReduceOneIv(Function &F, const Loop &L, const Cfg &C,
                         const Dominators &D, const LoopDefTable &Defs) {
  if (!backEdgesExplicit(F, L, C))
    return false;
  for (int B : L.Blocks) {
    const BasicBlock &Blk = F.Blocks[static_cast<size_t>(B)];
    for (size_t J = 0; J != Blk.Insts.size(); ++J) {
      const Rtl &MulI = Blk.Insts[J];
      if (MulI.Opcode != Op::Mul || !MulI.Src[0].isReg() ||
          !MulI.Src[1].isReg())
        continue;
      for (int IvSide = 0; IvSide != 2; ++IvSide) {
        RegNum IV = MulI.Src[IvSide].getReg();
        RegNum Inv = MulI.Src[1 - IvSide].getReg();
        if (Defs.of(Inv).Count != 0)
          continue; // Multiplier must be invariant.
        // IV must have exactly one in-loop def: IV = IV +/- 1.
        const LoopDefs IvDefs = Defs.of(IV);
        if (IvDefs.Count != 1)
          continue;
        const Rtl &Step =
            F.Blocks[static_cast<size_t>(IvDefs.Block)].Insts[IvDefs.Index];
        if (!(Step.Opcode == Op::Add || Step.Opcode == Op::Sub) ||
            !Step.Src[0].isReg() || Step.Src[0].getReg() != IV ||
            !Step.Src[1].isImm() || Step.Src[1].Value != 1)
          continue;
        // The product must be the only in-loop def of its register, and
        // both the multiply and the step must run once per iteration.
        RegNum T = MulI.Dst.getReg();
        if (T == IV || Defs.of(T).Count != 1)
          continue;
        if (!dominatesLatchesAndExits(F, L, C, D, B) ||
            !dominatesLatchesAndExits(F, L, C, D, IvDefs.Block))
          continue;
        // Find an allocatable register untouched anywhere in the function.
        std::bitset<target::NumAllocatableRegs> Used;
        auto MarkUsed = [&Used](RegNum R) {
          if (R < target::NumAllocatableRegs)
            Used.set(R);
        };
        for (const BasicBlock &AB : F.Blocks)
          for (const Rtl &AI : AB.Insts) {
            if (AI.definesReg())
              MarkUsed(AI.Dst.getReg());
            AI.forEachUsedReg(MarkUsed);
          }
        RegNum Acc = target::NumAllocatableRegs;
        for (RegNum R = 0; R != target::NumAllocatableRegs; ++R)
          if (!Used.test(R)) {
            Acc = R;
            break;
          }
        if (Acc == target::NumAllocatableRegs)
          continue; // No free register.

        const Op UpdateOp = Step.Opcode; // Add or Sub mirrors the step.
        // Rewrite the multiply first (indices still valid), then insert
        // the update after the step, then seed the preheader.
        F.Blocks.mut(static_cast<size_t>(B)).Insts[J] =
            rtl::mov(Operand::reg(T), Operand::reg(Acc));
        BasicBlock &StepBlk = F.Blocks.mut(static_cast<size_t>(IvDefs.Block));
        StepBlk.Insts.insert(
            StepBlk.Insts.begin() + static_cast<long>(IvDefs.Index) + 1,
            rtl::binary(UpdateOp, Operand::reg(Acc), Operand::reg(Acc),
                        Operand::reg(Inv)));
        size_t PH = getOrCreatePreheader(F, L);
        F.Blocks.mut(PH).Insts.push_back(rtl::binary(Op::Mul,
                                                     Operand::reg(Acc),
                                                     Operand::reg(IV),
                                                     Operand::reg(Inv)));
        return true;
      }
    }
  }
  return false;
}

} // namespace

bool LoopTransformsPhase::apply(Function &F) const {
  assert(F.State.RegAllocDone &&
         "loop transformations are restricted to run after register "
         "allocation");
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    Cfg C = Cfg::build(F);
    Dominators D(F, C);
    LoopInfo LI(F, C, D);
    // Liveness only once a hoist candidate needs it: most attempts find
    // none.
    std::optional<Liveness> LV;
    for (const Loop &L : LI.loops()) {
      const LoopDefTable Defs(F, L);
      if (hoistOneInvariant(F, L, C, D, Defs, LV) ||
          strengthReduceOneIv(F, L, C, D, Defs)) {
        Progress = true;
        Changed = true;
        break; // Analyses are stale; restart.
      }
    }
  }
  return Changed;
}
