//===- PhaseManager.h - Phase registry and legality ------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the fifteen phase implementations and encodes the framework rules
/// of the paper's Section 3:
///
///  - evaluation order determination (o) is legal only before register
///    assignment;
///  - CSE (c) and register allocation (k) require register assignment,
///    which is performed implicitly before the first phase that needs it;
///  - loop unrolling (g) and loop transformations (l) are legal only after
///    register allocation has been applied;
///  - merge-basic-blocks and eliminate-empty-blocks run implicitly after
///    every active phase.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_OPT_PHASEMANAGER_H
#define POSE_OPT_PHASEMANAGER_H

#include "src/opt/Phase.h"

#include <memory>
#include <string>
#include <vector>

namespace pose {

class Function;

/// Registry plus legality/attempt logic for the fifteen phases.
class PhaseManager {
public:
  PhaseManager();

  const Phase &phase(PhaseId P) const {
    return *Phases[static_cast<int>(P)];
  }

  /// Returns true if \p P may be attempted on \p F in its current state.
  /// Legality depends only on F's compilation milestones, not its code.
  bool isLegal(PhaseId P, const Function &F) const;

  /// Returns true if attempting \p P forces the compulsory register
  /// assignment first.
  bool requiresRegAssignment(PhaseId P) const;

  /// Attempts phase \p P on \p F: performs implicit register assignment
  /// when required, applies the phase, and runs the implicit CFG cleanup
  /// if the phase was active. Each apply runs to the phase's own fixed
  /// point, so the phase is applied again only while that cleanup changes
  /// the code. \p P must be legal for \p F. Returns the active/dormant
  /// outcome.
  bool attempt(PhaseId P, Function &F) const;

  /// Applies a whole sequence (by designation letters, e.g. "sckh"),
  /// attempting each phase in order; illegal phases are skipped. Returns
  /// the string of letters that were active. Convenience for tests and
  /// examples.
  std::string applySequence(Function &F, const std::string &Codes) const;

private:
  std::vector<std::unique_ptr<Phase>> Phases;
};

} // namespace pose

#endif // POSE_OPT_PHASEMANAGER_H
