//===- Liveness.cpp - Register liveness analysis ---------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"

#include <algorithm>

using namespace pose;

// Note on calls: the target's calling convention in this reproduction makes
// every register callee-saved (arguments and results are explicit operands
// of the Call RTL), so a call neither defines nor clobbers registers other
// than its explicit destination.

void Liveness::addUses(const Rtl &I, BitVector &Set, size_t IcIndex) {
  I.forEachUsedReg([&Set](RegNum R) { Set.set(R); });
  if (I.usesIC())
    Set.set(IcIndex);
}

void Liveness::stepBackward(const Rtl &I, BitVector &Set, size_t IcIndex) {
  if (I.definesReg())
    Set.reset(I.Dst.getReg());
  if (I.definesIC())
    Set.reset(IcIndex);
  addUses(I, Set, IcIndex);
}

Liveness::Liveness(const Function &F, const Cfg &C) {
  NumRegs = std::max<size_t>(F.pseudoLimit(), FirstPseudoReg);
  const size_t NumBits = NumRegs + 1; // +1 for IC
  const size_t N = F.Blocks.size();
  LiveIn.assign(N, BitVector(NumBits));
  LiveOut.assign(N, BitVector(NumBits));

  // Summarize each block once: Use holds its upward-exposed uses (stepping
  // backward from an empty set), Def everything it defines. Then
  // LiveIn = Use | (LiveOut - Def), which is what stepping backward
  // through the block from LiveOut gives.
  std::vector<BitVector> Def(N, BitVector(NumBits));
  for (size_t BI = 0; BI != N; ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    for (size_t J = B.Insts.size(); J-- > 0;) {
      const Rtl &I = B.Insts[J];
      if (I.definesReg())
        Def[BI].set(I.Dst.getReg());
      if (I.definesIC())
        Def[BI].set(NumRegs);
      stepBackward(I, LiveIn[BI], NumRegs);
    }
  }

  // Iterate to a fixed point, sweeping blocks in reverse layout order
  // (close to reverse topological order for typical CFGs). Both sets only
  // grow from their starting values (LiveOut empty, LiveIn = Use), so
  // unions with the new contributions compute the same least fixed point
  // as recomputing them from scratch.
  bool Changed = true;
  BitVector Tmp(NumBits);
  while (Changed) {
    Changed = false;
    for (size_t BI = N; BI-- > 0;) {
      for (int S : C.Succs[BI])
        LiveOut[BI].unionWith(LiveIn[S]);
      Tmp = LiveOut[BI];
      Tmp.subtract(Def[BI]);
      Changed |= LiveIn[BI].unionWith(Tmp);
    }
  }
}

std::vector<BitVector> Liveness::liveAfterEach(const Function &F,
                                               size_t Block) const {
  const BasicBlock &B = F.Blocks[Block];
  std::vector<BitVector> After(B.Insts.size(), BitVector(NumRegs + 1));
  BitVector Cur = LiveOut[Block];
  for (size_t J = B.Insts.size(); J-- > 0;) {
    After[J] = Cur;
    stepBackward(B.Insts[J], Cur, NumRegs);
  }
  return After;
}
