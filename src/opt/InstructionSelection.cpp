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

#include <cstdint>
#include <utility>
#include <vector>

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
  // Read only before the rewrite below, which may give the block a new
  // body: everything a rewrite needs is copied into New first.
  const Rtl &A = B.Insts[P];
  const Rtl &Use = B.Insts[Q];
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
    if (New.Opcode == Op::Call) {
      MI[P] = std::move(New);
      MI.erase(MI.begin() + static_cast<long>(Q));
    } else {
      MI[Q] = std::move(New);
      MI.erase(MI.begin() + static_cast<long>(P));
    }
    return true;
  }

  // Shapes 1-3 require a deletable producer (pure value computation).
  if (A.hasSideEffects() || A.Opcode == Op::Call)
    return false;

  Rtl New;
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
    New = Use;
    New.Src[0] = A.Src[0];
  } else {
    return false; // No other producer shapes combine.
  }

  if (!target::isLegal(New))
    return false;
  std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
  MI[Q] = std::move(New);
  MI.erase(MI.begin() + static_cast<long>(P));
  return true;
}

/// Consumer[] value of a position without a consumer.
constexpr uint32_t NoConsumer = UINT32_MAX;

/// The consumer of the instruction at \p P: the first later instruction
/// that uses its destination register before any redefinition. Only that
/// one can combine with it, since for any later use regionAllowsCombine
/// meets this one in between and refuses. NoConsumer when the instruction
/// defines no register or its destination has no such use.
uint32_t consumerOf(const std::vector<Rtl> &Insts, size_t P) {
  if (!Insts[P].definesReg())
    return NoConsumer;
  const RegNum D = Insts[P].Dst.getReg();
  for (size_t Q = P + 1; Q < Insts.size(); ++Q) {
    bool Uses = false;
    Insts[Q].forEachUsedReg([&](RegNum R) { Uses |= (R == D); });
    if (Uses)
      return static_cast<uint32_t>(Q);
    if (Insts[Q].definesReg() && Insts[Q].Dst.getReg() == D)
      return NoConsumer;
  }
  return NoConsumer;
}

/// Where the scan of a block resumes after a combine at producer \p P.
/// Every producer before P failed, and its outcome depends only on the
/// instructions from it to its consumer, on the later mentions of its
/// destination (usedBeyond) and on the block's live-out set, which no
/// combine changes. The combine rewrote only positions from P on, so an
/// earlier producer can now succeed only if its consumer lies at or after
/// P. Its destination's later mentions do not matter: for every register,
/// the kind of its first mention at or after P (a use, a definition, or
/// none) is the same before and after a combine of the current shapes, so
/// a producer without a consumer also stays without one
/// (docs/PERFORMANCE.md has the argument).
size_t resumePoint(const std::vector<uint32_t> &Consumer, size_t P) {
  for (size_t K = 0; K != P; ++K)
    if (Consumer[K] != NoConsumer && Consumer[K] >= P)
      return K;
  return P;
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
  std::vector<uint32_t> Consumer; // Consumer[K] = consumerOf(block, K).
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    // Earlier blocks are unchanged and still hold no combine. Within this
    // block the scan makes the combines a rescan from the top after each
    // one would make, in the same order: every producer before P fails.
    Consumer.resize(F.Blocks[BI].Insts.size());
    for (size_t P = 0; P < F.Blocks[BI].Insts.size();) {
      // A combine may give the block a new body (copy-on-write), so the
      // instructions are looked up again after one.
      const std::vector<Rtl> &Insts = F.Blocks[BI].Insts;
      const uint32_t Q = Consumer[P] = consumerOf(Insts, P);
      if (Q == NoConsumer) {
        ++P;
        continue;
      }
      if (tryCombine(F, LV, BI, P, Q)) {
        Changed = true;
        P = resumePoint(Consumer, P);
      } else {
        ++P;
      }
    }
  }
  return Changed;
}
