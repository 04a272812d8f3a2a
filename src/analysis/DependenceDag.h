//===- DependenceDag.h - Intra-block dependence analysis -------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The must-precede relation between instructions of one basic block,
/// used by the in-block reordering pass (evaluation order determination):
/// register RAW/WAR/WAW, condition-code dependences, memory ordering
/// (stores and calls are barriers; loads may reorder among themselves),
/// and block-final control transfers.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_ANALYSIS_DEPENDENCEDAG_H
#define POSE_ANALYSIS_DEPENDENCEDAG_H

#include "src/support/BitMatrix.h"

namespace pose {

struct BasicBlock;

/// Returns the must-precede relation of \p B, one row per instruction:
/// bit K of row J is set when the earlier instruction K must stay before
/// J under any legal reordering. A predecessor reached by several kinds of
/// dependence is one bit, so count(J) is J's exact predecessor count.
BitMatrix blockDependences(const BasicBlock &B);

} // namespace pose

#endif // POSE_ANALYSIS_DEPENDENCEDAG_H
