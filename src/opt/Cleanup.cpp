//===- Cleanup.cpp - Implicit CFG normalization ------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/opt/Cleanup.h"

#include "src/ir/Function.h"

#include <algorithm>

using namespace pose;

namespace {

/// Retargets every Jump/Branch aimed at \p From to \p To.
void retarget(Function &F, int32_t From, int32_t To) {
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool Targets = false;
    for (const Rtl &I : F.Blocks[BI].Insts)
      Targets |= (I.Opcode == Op::Jump || I.Opcode == Op::Branch) &&
                 I.Src[0].Value == From;
    if (!Targets)
      continue;
    for (Rtl &I : F.Blocks.mut(BI).Insts)
      if ((I.Opcode == Op::Jump || I.Opcode == Op::Branch) &&
          I.Src[0].Value == From)
        I.Src[0] = Operand::label(To);
  }
}

bool eliminateEmptyBlocks(Function &F) {
  bool Changed = false;
  for (size_t I = 0; I < F.Blocks.size();) {
    if (!F.Blocks[I].empty() || F.Blocks.size() == 1) {
      ++I;
      continue;
    }
    // An empty block simply falls into the next one; an empty *last*
    // block is unreferenced by construction (nothing may fall off the
    // end), so it can be dropped outright.
    if (I + 1 < F.Blocks.size())
      retarget(F, F.Blocks[I].Label, F.Blocks[I + 1].Label);
    F.Blocks.eraseAt(I);
    Changed = true;
    // Re-examine the same index.
  }
  return Changed;
}

bool mergeFallThroughPairs(Function &F) {
  // Block I+1, which I falls into, has I as its only predecessor iff no
  // jump or branch targets its label. A merge never changes that set: the
  // merged block's terminator moves up, and its label was not in the set.
  std::vector<int32_t> Targeted;
  for (const BasicBlock &B : F.Blocks)
    if (const Rtl *T = B.terminator();
        T && (T->Opcode == Op::Jump || T->Opcode == Op::Branch))
      Targeted.push_back(T->Src[0].Value);
  std::sort(Targeted.begin(), Targeted.end());
  bool Changed = false;
  for (size_t I = 0; I + 1 < F.Blocks.size();) {
    // A must fall through unconditionally (no terminator at all), and the
    // fall-through successor must have A as its only predecessor.
    if (F.Blocks[I].terminator() ||
        std::binary_search(Targeted.begin(), Targeted.end(),
                           F.Blocks[I + 1].Label)) {
      ++I;
      continue;
    }
    {
      const BasicBlock &B = F.Blocks[I + 1];
      BasicBlock &A = F.Blocks.mut(I);
      A.Insts.insert(A.Insts.end(), B.Insts.begin(), B.Insts.end());
    }
    F.Blocks.eraseAt(I + 1);
    Changed = true;
    // Stay at I: A may now fall through into another mergeable block.
  }
  return Changed;
}

} // namespace

bool pose::cleanupCfg(Function &F) {
  bool Changed = false;
  // Run to a fixed point: merging can expose empty-block elimination and
  // vice versa. Functions are small; this converges in a few rounds.
  for (bool Round = true; Round;) {
    Round = false;
    Round |= eliminateEmptyBlocks(F);
    Round |= mergeFallThroughPairs(F);
    Changed |= Round;
  }
  return Changed;
}

bool pose::removeUnreachableBlocks(Function &F) {
  Cfg C = Cfg::build(F);
  std::vector<bool> Reached(F.Blocks.size(), false);
  std::vector<size_t> Work{0};
  Reached[0] = true;
  while (!Work.empty()) {
    size_t B = Work.back();
    Work.pop_back();
    for (int S : C.Succs[B])
      if (!Reached[S]) {
        Reached[S] = true;
        Work.push_back(static_cast<size_t>(S));
      }
  }
  bool Changed = false;
  for (size_t I = F.Blocks.size(); I-- > 0;) {
    if (!Reached[I]) {
      F.Blocks.eraseAt(I);
      Changed = true;
    }
  }
  return Changed;
}
