//===- RegisterAssign.cpp - Compulsory register assignment -----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/machine/RegisterAssign.h"

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/support/BitMatrix.h"

#include <vector>

using namespace pose;

namespace {

/// Inserts spill code for \p Victim: a store after every def and a load
/// into a fresh short-lived pseudo before every use.
void spillPseudo(Function &F, RegNum Victim) {
  StackSlot Slot;
  Slot.Name = "spill." + std::to_string(Victim);
  int32_t Index = F.addSlot(Slot);
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool Touches = false;
    for (const Rtl &I : F.Blocks[BI].Insts) {
      bool Uses = false;
      I.forEachUsedReg([&](RegNum R) { Uses |= (R == Victim); });
      Touches |= Uses || (I.definesReg() && I.Dst.getReg() == Victim);
    }
    if (!Touches)
      continue;
    BasicBlock &B = F.Blocks.mut(BI);
    for (size_t J = 0; J < B.Insts.size(); ++J) {
      Rtl &I = B.Insts[J];
      bool Uses = false;
      I.forEachUsedReg([&](RegNum R) { Uses |= (R == Victim); });
      if (Uses) {
        RegNum Tmp = F.makePseudo();
        I.forEachUseOperand([&](Operand &O) {
          if (O.getReg() == Victim)
            O = Operand::reg(Tmp);
        });
        B.Insts.insert(B.Insts.begin() + static_cast<long>(J),
                       rtl::load(Operand::reg(Tmp), Operand::slot(Index), 0));
        ++J; // Skip over the load we just inserted; I may have moved.
      }
      Rtl &Def = B.Insts[J];
      if (Def.definesReg() && Def.Dst.getReg() == Victim) {
        RegNum Tmp = F.makePseudo();
        Def.Dst = Operand::reg(Tmp);
        B.Insts.insert(B.Insts.begin() + static_cast<long>(J) + 1,
                       rtl::store(Operand::slot(Index), 0,
                                  Operand::reg(Tmp)));
        ++J;
      }
    }
  }
}

constexpr uint8_t Uncolored = UINT8_MAX;

/// One coloring attempt over registers [0, numRegs). Returns true on
/// success and fills \p Color; otherwise sets \p SpillCandidate to a
/// pseudo to spill. Registers from \p FirstTemp on are spill temporaries,
/// which are never spilled again.
bool tryColor(const Function &F, std::vector<uint8_t> &Color,
              RegNum &SpillCandidate, RegNum FirstTemp) {
  Cfg C = Cfg::build(F);
  Liveness LV(F, C);
  const size_t NumRegs = LV.numRegs();

  // Interference graph, def-point construction: the destination of every
  // instruction interferes with every pseudo live just after it.
  BitMatrix Interf(NumRegs, NumRegs);
  std::vector<RegNum> Order; // First-appearance order, for determinism.
  std::vector<uint8_t> Noted(NumRegs, 0);
  auto Note = [&](RegNum R) {
    if (!Noted[R]) {
      Noted[R] = 1;
      Order.push_back(R);
    }
  };
  std::vector<BitVector> After; // Live just after each instruction.
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    if (After.size() < B.Insts.size())
      After.resize(B.Insts.size());
    BitVector Cur = LV.liveOut(BI);
    for (size_t J = B.Insts.size(); J-- > 0;) {
      After[J] = Cur;
      Liveness::stepBackward(B.Insts[J], Cur, LV.icIndex());
    }
    for (size_t J = 0; J != B.Insts.size(); ++J) {
      const Rtl &I = B.Insts[J];
      I.forEachUsedReg(Note);
      if (!I.definesReg())
        continue;
      const RegNum D = I.Dst.getReg();
      Note(D);
      After[J].forEach([&](size_t R) {
        if (R < FirstPseudoReg || R >= NumRegs || R == D)
          return; // Only live pseudos interfere; IC is bit NumRegs.
        Note(static_cast<RegNum>(R));
        Interf.set(D, R);
        Interf.set(R, D);
      });
    }
  }

  // Greedy coloring in first-appearance order, lowest free color first;
  // on failure the spillable node with the most neighbors is the victim.
  Color.assign(NumRegs, Uncolored);
  for (RegNum R : Order) {
    bool Used[target::NumAllocatableRegs] = {};
    Interf.forEach(R, [&](size_t N) {
      if (Color[N] != Uncolored)
        Used[Color[N]] = true;
    });
    unsigned K = 0;
    while (K != target::NumAllocatableRegs && Used[K])
      ++K;
    if (K != target::NumAllocatableRegs) {
      Color[R] = static_cast<uint8_t>(K);
      continue;
    }
    // Pick the spillable neighbor with the most neighbors (the first of
    // them in register order), or R itself, as the victim.
    RegNum Victim = R;
    size_t BestDegree = R >= FirstTemp ? 0 : Interf.count(R);
    Interf.forEach(R, [&](size_t N) {
      if (N >= FirstTemp)
        return;
      const size_t Degree = Interf.count(N);
      if (Degree > BestDegree) {
        BestDegree = Degree;
        Victim = static_cast<RegNum>(N);
      }
    });
    assert((Victim < FirstTemp || Victim != R || BestDegree > 0) &&
           "register pressure irreducible: spill temporaries collide");
    SpillCandidate = Victim;
    return false;
  }
  return true;
}

} // namespace

void pose::assignRegisters(Function &F) {
  if (F.State.RegsAssigned)
    return;

  // Spilling allocates pseudos only for its temporaries, so every pseudo
  // from here on is one.
  const RegNum FirstTemp = F.pseudoLimit();
  std::vector<uint8_t> Color;
  RegNum Victim = 0;
  // Color; on failure spill one pseudo and retry. Spill temporaries have
  // single-instruction live ranges, so this terminates quickly.
  while (!tryColor(F, Color, Victim, FirstTemp))
    spillPseudo(F, Victim);

  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool HasRegs = false;
    for (const Rtl &I : F.Blocks[BI].Insts) {
      HasRegs |= I.Dst.isReg();
      I.forEachUsedReg([&](RegNum) { HasRegs = true; });
    }
    if (!HasRegs)
      continue;
    BasicBlock &B = F.Blocks.mut(BI);
    auto ColorOf = [&Color](RegNum R) {
      assert(Color[R] != Uncolored && "register missed by the coloring");
      return Operand::reg(Color[R]);
    };
    for (Rtl &I : B.Insts) {
      if (I.Dst.isReg())
        I.Dst = ColorOf(I.Dst.getReg());
      I.forEachUseOperand([&](Operand &O) { O = ColorOf(O.getReg()); });
    }
  }
  F.State.RegsAssigned = true;
}
