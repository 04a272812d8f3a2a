//===- MinimizeLoopJumps.cpp - Phase j ----------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Removes a jump associated with a loop by duplicating a portion of the
// loop" (Table 1) — loop inversion. For a while-shaped loop
//
//   H:    <test-prep> ; IC = ... ; PC = IC cond, Exit   (header test)
//   body: ...
//   Lt:   ... ; PC = H                                   (latch jump)
//   Exit: ...
//
// the header's instructions are duplicated in place of the latch's jump,
// with the branch retargeted so the loop continues directly at the block
// after the header. The back-edge jump executes zero times per iteration
// instead of once; the original header test runs only on entry.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"
#include "src/analysis/Loops.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

namespace {

/// Longest header worth duplicating; matches VPO's bias toward code size
/// on embedded targets.
constexpr size_t MaxDuplicatedInsts = 8;

bool invertOneLoop(Function &F, const Loop &L) {
  // Header must end with a conditional branch that exits the loop and fall
  // through into a loop block.
  size_t H = static_cast<size_t>(L.Header);
  const BasicBlock &Header = F.Blocks[H];
  const Rtl *T = Header.terminator();
  if (!T || T->Opcode != Op::Branch)
    return false;
  int ExitIndex = F.findBlock(T->Src[0].Value);
  assert(ExitIndex >= 0 && "dangling branch");
  if (L.contains(ExitIndex))
    return false; // Branch stays inside: not a top-exit loop.
  if (H + 1 >= F.Blocks.size() || !L.contains(static_cast<int>(H + 1)))
    return false; // No in-loop fall-through body.
  if (Header.Insts.size() > MaxDuplicatedInsts)
    return false;
  const int32_t BodyLabel = F.Blocks[H + 1].Label;
  const int32_t ExitLabel = T->Src[0].Value;

  bool Changed = false;
  for (int Latch : L.Latches) {
    const Rtl *LtTerm = F.Blocks[static_cast<size_t>(Latch)].terminator();
    if (!LtTerm || LtTerm->Opcode != Op::Jump ||
        LtTerm->Src[0].Value != Header.Label)
      continue;
    // The latch must sit directly before the exit block in layout, so the
    // duplicated (inverted) test can fall through out of the loop.
    if (Latch + 1 >= static_cast<int>(F.Blocks.size()) ||
        F.Blocks[static_cast<size_t>(Latch) + 1].Label != ExitLabel)
      continue;
    // Replace "PC = H" with a copy of the header's instructions, the
    // branch inverted to continue the loop and fall through to the exit.
    BasicBlock &Lt = F.Blocks.mut(static_cast<size_t>(Latch));
    Lt.Insts.pop_back();
    for (const Rtl &I : F.Blocks[H].Insts) {
      if (I.isControl()) {
        Rtl Back = I;
        Back.CC = invertCond(I.CC);
        Back.Src[0] = Operand::label(BodyLabel);
        Lt.Insts.push_back(Back);
      } else {
        Lt.Insts.push_back(I);
      }
    }
    Changed = true;
  }
  return Changed;
}

} // namespace

bool MinimizeLoopJumpsPhase::apply(Function &F) const {
  const Cfg C = Cfg::build(F);
  Dominators D(F, C);
  LoopInfo LI(F, C, D);
  for (const Loop &L : LI.loops()) {
    if (invertOneLoop(F, L)) {
      // Structure changed: try the remaining loops on fresh analyses,
      // which the recursive apply builds. One level of recursion per
      // transformed loop keeps this simple and bounded.
      MinimizeLoopJumpsPhase Again;
      Again.apply(F);
      return true;
    }
  }
  return false;
}
