//===- RegisterAllocation.cpp - Phase k ---------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Uses graph coloring to replace references to a variable within a live
// range with a register" (Table 1). Candidates are scalar stack slots
// whose every reference is the base of a load or store — which is exactly
// why the paper notes register allocation "can only be performed after
// instruction selection, so that candidate load and store instructions can
// contain the addresses of arguments or local scalars": before instruction
// selection folds the address computation, every slot is referenced
// through a Lea and no candidate exists (the phase is dormant).
//
// Promotion turns loads into moves from the variable's register and stores
// into moves into it; instruction selection then collapses those moves —
// the strong k-enables-s interaction the paper measures in Table 4.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"

#include <bitset>

using namespace pose;

namespace {

/// Per-block liveness of one stack-slot variable.
struct VarLiveness {
  std::vector<bool> LiveIn, LiveOut;
};

bool isVarUse(const Rtl &I, int32_t Slot) {
  return I.Opcode == Op::Load && I.Src[0].isSlot() &&
         I.Src[0].Value == Slot;
}

bool isVarDef(const Rtl &I, int32_t Slot) {
  return I.Opcode == Op::Store && I.Src[0].isSlot() &&
         I.Src[0].Value == Slot;
}

/// One backward step of the variable's liveness across \p I.
bool varLiveBefore(const Rtl &I, int32_t Slot, bool LiveAfter) {
  if (isVarUse(I, Slot))
    return true;
  return LiveAfter && !isVarDef(I, Slot);
}

VarLiveness computeVarLiveness(const Function &F, const Cfg &C,
                               int32_t Slot) {
  const size_t N = F.Blocks.size();
  VarLiveness V;
  V.LiveIn.assign(N, false);
  V.LiveOut.assign(N, false);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = N; B-- > 0;) {
      bool Out = false;
      for (int S : C.Succs[B])
        Out |= V.LiveIn[static_cast<size_t>(S)];
      bool Cur = Out;
      const BasicBlock &Blk = F.Blocks[B];
      for (size_t J = Blk.Insts.size(); J-- > 0;)
        Cur = varLiveBefore(Blk.Insts[J], Slot, Cur);
      if (Out != V.LiveOut[B] || Cur != V.LiveIn[B]) {
        V.LiveOut[B] = Out;
        V.LiveIn[B] = Cur;
        Changed = true;
      }
    }
  }
  return V;
}

/// The allocatable registers that coexist with the variable in \p Slot:
/// live at some boundary where the variable is live, or written while the
/// variable is live across the write (which clobbers it even if the
/// register's own value is dead). Each block is walked backward once, with
/// one running live set for the registers and one flag for the variable.
std::bitset<target::NumAllocatableRegs>
conflictingRegs(const Function &F, const Liveness &LV, const VarLiveness &V,
                int32_t Slot) {
  std::bitset<target::NumAllocatableRegs> Conflicts;
  auto AddLive = [&Conflicts](const BitVector &Live) {
    for (RegNum R = 0; R != target::NumAllocatableRegs; ++R)
      if (Live.test(R))
        Conflicts.set(R);
  };
  BitVector Live;
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    if (V.LiveIn[B])
      AddLive(LV.liveIn(B));
    const BasicBlock &Blk = F.Blocks[B];
    Live = LV.liveOut(B);
    bool VarLive = V.LiveOut[B];
    for (size_t J = Blk.Insts.size(); J-- > 0;) {
      const Rtl &I = Blk.Insts[J];
      if (VarLive) { // The variable is live just after I.
        AddLive(Live);
        if (I.definesReg() && I.Dst.getReg() < target::NumAllocatableRegs)
          Conflicts.set(I.Dst.getReg());
      }
      Liveness::stepBackward(I, Live, LV.icIndex());
      VarLive = varLiveBefore(I, Slot, VarLive);
    }
  }
  return Conflicts;
}

/// True if every textual reference to \p Slot is as a load/store base
/// (i.e. the slot's address never escapes through a Lea and it is never
/// accessed with a nonzero offset), and promotion would actually help.
bool promotable(const Function &F, int32_t Slot) {
  size_t Loads = 0, Stores = 0;
  bool SoleLoadInEntry = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    for (const Rtl &I : F.Blocks[BI].Insts) {
      auto Mentions = [Slot](const Operand &O) {
        return O.isSlot() && O.Value == Slot;
      };
      if (Mentions(I.Src[0]) &&
          (I.Opcode == Op::Load || I.Opcode == Op::Store)) {
        if (I.Src[1].Value != 0)
          return false; // Offset access: not a plain scalar reference.
        if (I.Opcode == Op::Load) {
          ++Loads;
          SoleLoadInEntry = (BI == 0);
        } else {
          ++Stores;
        }
        continue;
      }
      for (const Operand &O : I.Src)
        if (Mentions(O))
          return false; // Lea or other escape.
    }
  }
  // A parameter whose only reference is a single load in the entry block
  // is what promotion itself produces (the materializing load); treating
  // it as a candidate again would spin forever — and promoting such a
  // slot could not reduce the access count anyway.
  if (Slot < F.NumParams && Stores == 0 && Loads == 1 && SoleLoadInEntry)
    return false;
  return Loads + Stores > 0;
}

/// Rewrites every access of \p Slot to use register \p R.
void promote(Function &F, int32_t Slot, RegNum R) {
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool Accesses = false;
    for (const Rtl &I : F.Blocks[BI].Insts)
      Accesses |= isVarUse(I, Slot) || isVarDef(I, Slot);
    if (!Accesses)
      continue;
    for (Rtl &I : F.Blocks.mut(BI).Insts) {
      if (isVarUse(I, Slot))
        I = rtl::mov(I.Dst, Operand::reg(R));
      else if (isVarDef(I, Slot))
        I = rtl::mov(Operand::reg(R), I.Src[2]);
    }
  }
  // Parameters arrive in their stack slot; materialize the register once
  // at function entry. The load must execute exactly once, so when the
  // current entry block is a branch target (e.g. a loop header), the
  // function gets a dedicated entry block first.
  if (Slot < F.NumParams) {
    Cfg C = Cfg::build(F);
    if (!C.Preds[0].empty())
      F.Blocks.insertAt(0, BasicBlock(F.makeLabel()));
    BasicBlock &Entry = F.Blocks.mut(0);
    Entry.Insts.insert(Entry.Insts.begin(),
                       rtl::load(Operand::reg(R), Operand::slot(Slot), 0));
  }
}

} // namespace

bool RegisterAllocationPhase::apply(Function &F) const {
  assert(F.State.RegsAssigned &&
         "register allocation requires register assignment");
  bool Changed = false;
  // Greedily promote candidates in slot order; recompute liveness after
  // each promotion since the chosen register becomes live over the range.
  for (int32_t Slot = 0; Slot != static_cast<int32_t>(F.Slots.size());
       ++Slot) {
    if (F.Slots[Slot].IsArray || !promotable(F, Slot))
      continue;
    Cfg C = Cfg::build(F);
    Liveness LV(F, C);
    const std::bitset<target::NumAllocatableRegs> Conflicts =
        conflictingRegs(F, LV, computeVarLiveness(F, C, Slot), Slot);
    for (RegNum R = 0; R != target::NumAllocatableRegs; ++R) {
      if (Conflicts.test(R))
        continue;
      promote(F, Slot, R);
      Changed = true;
      break;
    }
  }
  if (Changed)
    F.State.RegAllocDone = true;
  return Changed;
}
