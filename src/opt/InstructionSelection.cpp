//===- InstructionSelection.cpp - Phase s -------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Combines pairs or triples of instructions together where the
// instructions are linked by set/use dependencies. After combining the
// effects of the instructions, it also performs constant folding and
// checks if the resulting effect is a legal instruction before committing
// to the transformation" (Table 1).
//
// Combination shapes handled (producer A, consumer B, within one block):
//   1. A: mov d, imm     B uses d          -> fold imm into B
//   2. A: mov d, s       B uses d          -> rename d to s in B
//   3. A: lea d, base    B: load/store [d] -> fold base into the access
//   4. A: <compute> d    B: mov x, d       -> retarget A to compute x
// All require that B is the only consumer of d and that nothing between A
// and B disturbs the combined effect. Shape 1 + constant folding subsumes
// the classic mov/mov/add triple: each pair collapses in turn.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"

using namespace pose;

namespace {

/// Checks whether instructions in (P, Q) leave the combination of A (at P)
/// into B (at Q) valid: nothing redefines A's destination or sources, no
/// other instruction consumes A's destination, and when A reads memory no
/// intervening instruction may write it.
bool regionAllowsCombine(const BasicBlock &B, size_t P, size_t Q,
                         const Rtl &A) {
  const RegNum D = A.Dst.getReg();
  for (size_t K = P + 1; K < Q; ++K) {
    const Rtl &M = B.Insts[K];
    bool UsesD = false;
    M.forEachUsedReg([&](RegNum R) { UsesD |= (R == D); });
    if (UsesD)
      return false; // d has another consumer.
    if (M.definesReg()) {
      RegNum W = M.Dst.getReg();
      if (W == D)
        return false;
      bool Clobbers = false;
      A.forEachUsedReg([&](RegNum R) { Clobbers |= (R == W); });
      if (Clobbers)
        return false;
    }
    if (A.readsMemory() &&
        (M.Opcode == Op::Store || M.Opcode == Op::Call))
      return false;
  }
  return true;
}

/// Returns true if register \p D is consumed anywhere at or after position
/// \p Q (exclusive of the instruction at Q itself), or is live out of the
/// block; used to decide whether the producer can be deleted.
bool usedBeyond(const Function &F, const Liveness &LV, size_t BlockIndex,
                size_t Q, RegNum D) {
  const BasicBlock &B = F.Blocks[BlockIndex];
  for (size_t K = Q + 1; K < B.Insts.size(); ++K) {
    const Rtl &M = B.Insts[K];
    bool Uses = false;
    M.forEachUsedReg([&](RegNum R) { Uses |= (R == D); });
    if (Uses)
      return true;
    if (M.definesReg() && M.Dst.getReg() == D)
      return false; // Redefined before any further use.
  }
  return LV.liveOut(BlockIndex).test(D);
}

/// Substitutes operand \p From with \p To in every use position of \p I.
/// Returns the rewritten instruction.
Rtl substitute(const Rtl &I, RegNum From, const Operand &To) {
  Rtl Out = I;
  for (Operand &S : Out.Src)
    if (S.isReg() && S.getReg() == From)
      S = To;
  for (Operand &A : Out.Args)
    if (A.isReg() && A.getReg() == From)
      A = To;
  return Out;
}

/// Attempts to combine producer at \p P with consumer at \p Q in block
/// \p BI of \p F. Returns true on success (the block was rewritten).
bool tryCombine(Function &F, const Liveness &LV, size_t BI, size_t P,
                size_t Q) {
  const BasicBlock &B = F.Blocks[BI];
  if (!B.Insts[P].definesReg())
    return false;
  const RegNum D = B.Insts[P].Dst.getReg();

  bool ConsumerUsesD = false;
  B.Insts[Q].forEachUsedReg([&](RegNum R) { ConsumerUsesD |= (R == D); });
  if (!ConsumerUsesD)
    return false;
  // By value: the rewrite below may give the block a new body.
  const Rtl A = B.Insts[P];
  const Rtl Use = B.Insts[Q];
  if (!regionAllowsCombine(B, P, Q, A))
    return false;
  // The combined instruction replaces both; d must die with the pair.
  if (usedBeyond(F, LV, BI, Q, D) && !(Use.definesReg() &&
                                       Use.Dst.getReg() == D))
    return false;

  // Shape 4: collapse a computation into the move that copies its result.
  if (Use.Opcode == Op::Mov && Use.Src[0].isReg() &&
      Use.Src[0].getReg() == D && A.Opcode != Op::Mov) {
    // Calls keep their position (side effects); everything else migrates
    // to the move's slot. Either way the destination becomes x.
    RegNum X = Use.Dst.getReg();
    if (X != D) {
      // x must be untouched between P and Q for the retarget to be valid.
      for (size_t K = P + 1; K < Q; ++K) {
        const Rtl &M = B.Insts[K];
        bool XInvolved = false;
        M.forEachUsedReg([&](RegNum R) { XInvolved |= (R == X); });
        if (M.definesReg() && M.Dst.getReg() == X)
          XInvolved = true;
        if (XInvolved)
          return false;
      }
      // A's own sources must not include x… rewriting dst only is fine
      // even then, but then A would read x before writing it; x's value
      // here equals its value at Q only if untouched — checked above, and
      // A reading x is fine since A precedes the region.
    }
    Rtl New = A;
    New.Dst = Operand::reg(X);
    std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
    if (A.Opcode == Op::Call) {
      MI[P] = New;
      MI.erase(MI.begin() + static_cast<long>(Q));
    } else {
      MI[Q] = New;
      MI.erase(MI.begin() + static_cast<long>(P));
    }
    return true;
  }

  // Shapes 1-3 require a deletable producer (pure value computation).
  if (A.hasSideEffects() || A.Opcode == Op::Call)
    return false;

  Rtl New = Use;
  if (A.Opcode == Op::Mov) {
    // Shapes 1 and 2: forward an immediate or another register.
    New = substitute(Use, D, A.Src[0]);
    foldConstant(New);
  } else if (A.Opcode == Op::Lea &&
             (Use.Opcode == Op::Load || Use.Opcode == Op::Store) &&
             Use.Src[0].isReg() && Use.Src[0].getReg() == D) {
    // Shape 3: fold the address computation into the memory access. Only
    // the base position may take it; if d is also the stored value, the
    // combination is impossible.
    bool DElsewhere = false;
    if (Use.Opcode == Op::Store && Use.Src[2].isReg() &&
        Use.Src[2].getReg() == D)
      DElsewhere = true;
    if (DElsewhere)
      return false;
    New.Src[0] = A.Src[0];
  } else {
    return false; // No other producer shapes combine.
  }

  if (!target::isLegal(New))
    return false;
  std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
  MI[Q] = New;
  MI.erase(MI.begin() + static_cast<long>(P));
  return true;
}

} // namespace

bool InstructionSelectionPhase::apply(Function &F) const {
  // One CFG and one liveness for the whole pass. A combine rewrites
  // instructions of one block and never a control instruction, so the CFG
  // stays exact; the region and usedBeyond checks keep every block's
  // live-in and live-out sets unchanged, so the liveness stays exact too.
  const Cfg C = Cfg::build(F);
  const Liveness LV(F, C);
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    // After a combine, rescan this block from its top: earlier blocks are
    // unchanged and still hold no combine.
    for (bool Progress = true; Progress;) {
      Progress = false;
      const BasicBlock &B = F.Blocks[BI];
      // A combine may give the block a new body (copy-on-write), so B is
      // not read again once one succeeds.
      for (size_t P = 0; !Progress && P < B.Insts.size(); ++P) {
        if (!B.Insts[P].definesReg())
          continue;
        for (size_t Q = P + 1; Q < B.Insts.size(); ++Q) {
          if (tryCombine(F, LV, BI, P, Q)) {
            Progress = true;
            Changed = true;
            break;
          }
          // Stop extending the window once d is redefined.
          if (B.Insts[Q].definesReg() &&
              B.Insts[Q].Dst.getReg() == B.Insts[P].Dst.getReg())
            break;
        }
      }
    }
  }
  return Changed;
}
