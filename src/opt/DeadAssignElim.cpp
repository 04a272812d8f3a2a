//===- DeadAssignElim.cpp - Phase h -------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Uses global analysis to remove assignments when the assigned value is
// never used" (Table 1). Covers register assignments and compares whose
// condition code is never tested (the debris useless-jump removal leaves
// behind — an enabling interaction measured in Section 5).
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

bool DeadAssignElimPhase::apply(Function &F) const {
  // Deleting instructions that are not control transfers never changes
  // the CFG, so one serves every round.
  const Cfg C = Cfg::build(F);
  bool Changed = false;
  bool Progress = true;
  // Deleting one dead assignment can kill the uses that kept another
  // alive; iterate to a fixed point. A deletion only removes uses, so
  // liveness only shrinks and a round's stale sets stay conservative;
  // deletions are confluent, so the fixed point is the same whatever the
  // order. Each round sweeps every block backward with one running live
  // set, which a deleted instruction does not step.
  while (Progress) {
    Progress = false;
    const Liveness LV(F, C);
    BitVector Live;
    for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
      BasicBlock *MB = nullptr; // Materialized on the first deletion.
      Live = LV.liveOut(BI);
      for (size_t J = F.Blocks[BI].Insts.size(); J-- > 0;) {
        const Rtl &I = MB ? MB->Insts[J] : F.Blocks[BI].Insts[J];
        bool Dead = false;
        if (!I.hasSideEffects() && I.definesReg())
          Dead = !Live.test(I.Dst.getReg());
        else if (!I.hasSideEffects() && I.definesIC())
          Dead = !Live.test(LV.icIndex());
        if (!Dead) {
          Liveness::stepBackward(I, Live, LV.icIndex());
          continue;
        }
        if (!MB)
          MB = &F.Blocks.mut(BI);
        MB->Insts.erase(MB->Insts.begin() + static_cast<long>(J));
        Changed = true;
        Progress = true;
      }
    }
  }
  return Changed;
}
