//===- Interaction.h - Phase interaction analysis --------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analysis of enumerated spaces (paper Section 5): weighted probabilities
/// of phase enabling (Table 4), disabling (Table 5), and independence
/// (Table 6), accumulated over any number of per-function DAGs.
///
/// Definitions implemented verbatim from the paper:
///  - enabling   e[y][x] = W(dormant->active) / W(dormant->*) over edges
///    labelled x, weighted by the child node's weight;
///  - disabling  d[y][x] = W(active->dormant) / W(active->*), same
///    weighting;
///  - independence ind[x][y]: of the occasions where x and y are
///    consecutively active from a node, the weighted fraction where both
///    orders produce the identical instance (weighted by the node's
///    weight; the paper does not pin the weighting down further).
/// Illegal phases count as dormant, which yields the paper's observation
/// that c and k "always disable" o (they force register assignment).
///
//===----------------------------------------------------------------------===//

#ifndef POSE_CORE_INTERACTION_H
#define POSE_CORE_INTERACTION_H

#include "src/core/Enumerator.h"

#include <string>

namespace pose {

/// Accumulates interaction statistics across enumerated functions and
/// renders the paper's Tables 4-6.
class InteractionAnalysis {
public:
  /// Folds one enumerated space into the running statistics.
  void addFunction(const EnumerationResult &R);

  /// Probability that phase \p Y is enabled by phase \p X (Table 4).
  /// Returns 0 when no transition was ever observed.
  double enabling(PhaseId Y, PhaseId X) const;

  /// Probability that phase \p Y is active on the unoptimized function
  /// (Table 4's "St" column).
  double startProbability(PhaseId Y) const;

  /// Probability that phase \p Y is disabled by phase \p X (Table 5).
  double disabling(PhaseId Y, PhaseId X) const;

  /// Probability that phases \p X and \p Y are independent (Table 6;
  /// symmetric).
  double independence(PhaseId X, PhaseId Y) const;

  /// True when \p X and \p Y were consecutively active at least once and
  /// every observed occurrence commuted — the "completely independent"
  /// case whose consequence the paper spells out: "we would never have to
  /// evaluate them in different orders" (Section 5.3). bench_ablation
  /// replays Section 7's independence pruning over it.
  bool alwaysIndependent(PhaseId X, PhaseId Y) const;

  /// Average code-size benefit of one active application of \p X:
  /// weighted mean of (parent size - child size) over edges labelled X.
  /// Negative for phases that grow code (loop unrolling). This is the
  /// per-phase "benefit" the paper's Section 6 names as the missing
  /// ingredient of its probabilistic compiler.
  double averageBenefit(PhaseId X) const;

  /// Number of functions folded in.
  size_t functionCount() const { return Functions; }

  /// Renders one of the three tables in the paper's layout (rows/columns
  /// in designation order, blanks below the paper's display thresholds).
  enum class TableKind { Enabling, Disabling, Independence };
  std::string renderTable(TableKind Kind) const;

  /// Serializes the accumulated statistics to a line-oriented text format
  /// so a model trained on one corpus can be saved and reused (posec's
  /// --save-model/--model flags).
  std::string serialize() const;

  /// Restores a model produced by serialize(). Returns false (leaving the
  /// object unspecified) on malformed input.
  bool deserialize(const std::string &Text);

private:
  size_t Functions = 0;
  // Weighted transition mass, indexed [y][x].
  double DormantToActive[NumPhases][NumPhases] = {};
  double DormantToAny[NumPhases][NumPhases] = {};
  double ActiveToDormant[NumPhases][NumPhases] = {};
  double ActiveToAny[NumPhases][NumPhases] = {};
  // Independence, unordered pair mass accumulated symmetrically.
  double IndependentMass[NumPhases][NumPhases] = {};
  double ConsecutiveMass[NumPhases][NumPhases] = {};
  // Start-of-compilation activity.
  double RootActive[NumPhases] = {};
  // Code-size delta accumulation per phase, weighted like the tables.
  double BenefitMass[NumPhases] = {};
  double BenefitWeight[NumPhases] = {};
};

} // namespace pose

#endif // POSE_CORE_INTERACTION_H
