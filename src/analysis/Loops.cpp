//===- Loops.cpp - Natural loop detection ----------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Loops.h"

#include "src/analysis/Dominators.h"

#include <algorithm>

using namespace pose;

LoopInfo::LoopInfo(const Function &F, const Cfg &C, const Dominators &D) {
  const size_t N = F.Blocks.size();

  // Visit headers in ascending order. A header's latches are its reachable
  // predecessors it dominates (back edges Tail -> Head); Cfg::build lists
  // predecessors in ascending order, so the latches come out ascending.
  // All back edges to one header form one loop.
  std::vector<char> InBody(N, 0);
  std::vector<int> Work;
  Work.reserve(N);
  for (size_t Head = 0; Head != N; ++Head) {
    Loop L;
    L.Header = static_cast<int>(Head);
    for (int Tail : C.Preds[Head])
      if (D.isReachable(Tail) && D.dominates(Head, Tail))
        L.Latches.push_back(Tail);
    if (L.Latches.empty())
      continue;

    // The body: Header plus all blocks that reach a latch without passing
    // through Header (standard natural-loop algorithm). Header is marked
    // first, so the walk never goes past it.
    InBody[Head] = 1;
    for (int Latch : L.Latches)
      if (!InBody[Latch]) {
        InBody[Latch] = 1;
        Work.push_back(Latch);
      }
    while (!Work.empty()) {
      int B = Work.back();
      Work.pop_back();
      for (int P : C.Preds[B])
        if (D.isReachable(P) && !InBody[P]) {
          InBody[P] = 1;
          Work.push_back(P);
        }
    }
    L.Blocks.reserve(std::count(InBody.begin(), InBody.end(), 1));
    for (size_t B = 0; B != N; ++B)
      if (InBody[B]) {
        L.Blocks.push_back(static_cast<int>(B));
        InBody[B] = 0;
      }
    Loops.push_back(std::move(L));
  }

  // Depth: number of loops whose body strictly contains this loop's header
  // (plus one for the loop itself).
  for (Loop &L : Loops) {
    int Depth = 0;
    for (const Loop &Other : Loops) {
      if (Other.Header != L.Header && Other.contains(L.Header))
        ++Depth;
    }
    L.Depth = Depth + 1;
  }

  // Innermost (deepest) first; ties broken by header index for determinism.
  std::sort(Loops.begin(), Loops.end(), [](const Loop &A, const Loop &B) {
    if (A.Depth != B.Depth)
      return A.Depth > B.Depth;
    return A.Header < B.Header;
  });
}
