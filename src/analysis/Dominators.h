//===- Dominators.h - Dominator analysis -----------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative dominator computation over block indices. Functions here are
/// tiny (tens of blocks), so the classic O(N^2) bit-set algorithm is both
/// simple and fast enough.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_ANALYSIS_DOMINATORS_H
#define POSE_ANALYSIS_DOMINATORS_H

#include "src/ir/Function.h"
#include "src/support/BitVector.h"

#include <vector>

namespace pose {

/// Dominator sets for every block of a function.
class Dominators {
public:
  Dominators(const Function &F, const Cfg &C);

  /// Returns true if block \p A dominates block \p B.
  bool dominates(size_t A, size_t B) const { return DomSets[B].test(A); }

  /// Returns true if \p Block is reachable from the entry block.
  bool isReachable(size_t Block) const { return Reachable[Block]; }

private:
  std::vector<BitVector> DomSets;
  std::vector<bool> Reachable;
};

} // namespace pose

#endif // POSE_ANALYSIS_DOMINATORS_H
