//===- Dominators.cpp - Dominator analysis ---------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"

using namespace pose;

Dominators::Dominators(const Function &F, const Cfg &C) {
  const size_t N = F.Blocks.size();

  // Reachability first: unreachable blocks get empty dominator sets and are
  // excluded from meets (otherwise they would poison the intersection).
  Reachable.assign(N, false);
  std::vector<size_t> Work;
  Work.reserve(N); // Each block is pushed at most once.
  Work.push_back(0);
  Reachable[0] = true;
  while (!Work.empty()) {
    size_t B = Work.back();
    Work.pop_back();
    for (int S : C.Succs[B]) {
      if (!Reachable[S]) {
        Reachable[S] = true;
        Work.push_back(S);
      }
    }
  }

  BitVector Full(N);
  for (size_t I = 0; I != N; ++I)
    Full.set(I);
  DomSets.assign(N, Full);
  BitVector Entry(N);
  Entry.set(0);
  DomSets[0] = Entry;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = 1; B != N; ++B) {
      if (!Reachable[B])
        continue;
      BitVector Meet = Full;
      bool AnyPred = false;
      for (int P : C.Preds[B]) {
        if (!Reachable[P])
          continue;
        Meet.intersectWith(DomSets[P]);
        AnyPred = true;
      }
      if (!AnyPred)
        Meet = BitVector(N);
      Meet.set(B);
      if (Meet != DomSets[B]) {
        DomSets[B] = Meet;
        Changed = true;
      }
    }
  }

  for (size_t B = 0; B != N; ++B)
    if (!Reachable[B])
      DomSets[B] = BitVector(N);
}
