//===- bench_ablation.cpp - Pruning-technique ablation --------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's Section 4.2.1 canonicalization: how much extra
// pruning does register remapping buy? "Although a complete live range
// register remapping might detect more instances as being equivalent …
// this approach of detecting equivalent function instances enables us to
// do more aggressive pruning of the search space." Enumerates each
// function twice — with and without register remapping — and compares
// distinct instances and attempted phases. (Label resolution cannot be
// ablated: raw label numbers carry no meaning.)
//
// Second experiment: the independence-based pruning the paper proposes in
// Section 7 ("independence relationships could also be used to more
// aggressively prune the enumeration space"), replayed over each complete
// DAG of the first experiment. Phases x and y that always commute in that
// DAG (InteractionAnalysis::alwaysIndependent) need not both be run: at a
// node E first reached from P by x, the y edge is predicted as the x edge
// of P's y-child D, and the optimizer run it replaces is saved. Every
// prediction is checked against the real y edge of E.
//
// Flags: --budget=N.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Interaction.h"

using namespace pose;
using namespace pose::bench;

namespace {

struct PruningReplay {
  uint64_t Predicted = 0;
  uint64_t Mispredicted = 0;
};

/// Replays independence pruning over the complete DAG \p R, trained on
/// \p IA, in the order the enumerator commits: a level's frontier in
/// node-id order, each node's edges in phase order. So a node is first
/// reached from the lowest-id node of the previous level with an edge to
/// it, by that node's first such edge, and a prediction may read D's
/// edges only once D is expanded: at an earlier level, or earlier in the
/// same one.
PruningReplay replayIndependencePruning(const EnumerationResult &R,
                                        const InteractionAnalysis &IA) {
  const size_t N = R.Nodes.size();
  std::vector<uint32_t> Parent(N, UINT32_MAX);
  std::vector<PhaseId> Via(N);
  for (uint32_t P = 0; P != N; ++P)
    for (const DagEdge &E : R.Nodes[P].Edges)
      if (Parent[E.To] == UINT32_MAX &&
          R.Nodes[E.To].Level == R.Nodes[P].Level + 1) {
        Parent[E.To] = P;
        Via[E.To] = E.Phase;
      }

  PruningReplay Out;
  for (uint32_t E = 0; E != N; ++E) {
    if (Parent[E] == UINT32_MAX)
      continue;
    const DagNode &Nd = R.Nodes[E];
    const PhaseId X = Via[E];
    for (int YI = 0; YI != NumPhases; ++YI) {
      const PhaseId Y = phaseByIndex(YI);
      if (!(Nd.AttemptedMask & (1u << YI)) || !IA.alwaysIndependent(X, Y))
        continue;
      const uint32_t D = R.Nodes[Parent[E]].childVia(Y);
      if (D == UINT32_MAX)
        continue;
      const bool Expanded = R.Nodes[D].Level < Nd.Level ||
                            (R.Nodes[D].Level == Nd.Level && D < E);
      const uint32_t Predicted =
          Expanded ? R.Nodes[D].childVia(X) : UINT32_MAX;
      if (Predicted == UINT32_MAX)
        continue;
      ++Out.Predicted;
      Out.Mispredicted += Predicted != Nd.childVia(Y);
    }
  }
  return Out;
}

/// A function whose space the first experiment enumerated completely.
struct CompleteSpace {
  std::string Name;
  char Tag;
  EnumerationResult Truth;
};

} // namespace

int main(int Argc, char **Argv) {
  EnumeratorConfig With;
  With.MaxLevelSequences = 100'000;
  parseBenchFlags(Argc, Argv, budgetFlag(With.MaxLevelSequences));
  EnumeratorConfig Without = With;
  Without.RemapRegisters = false;

  PhaseManager PM;
  Enumerator EWith(PM, With), EWithout(PM, Without);

  std::printf("Ablation: identical-instance detection with vs without "
              "register remapping (Section 4.2.1)\n\n");
  std::printf("%-24s | %9s %11s | %9s %11s | %7s\n", "Function",
              "instances", "attempted", "instances", "attempted",
              "blow-up");
  std::printf("%-24s | %21s | %21s |\n", "", "     with remapping",
              "   without remapping");

  uint64_t SumWith = 0, SumWithout = 0;
  size_t Counted = 0;
  std::vector<CompleteSpace> Complete;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult RW = EWith.enumerate(F);
      EnumerationResult RO = EWithout.enumerate(F);
      const char *Note = !RW.complete() && !RO.complete()
                             ? " (remap and no-remap exceeded budget)"
                         : !RO.complete() ? " (no-remap exceeded budget)"
                         : !RW.complete() ? " (remap exceeded budget)"
                                          : "";
      double Blowup = static_cast<double>(RO.Nodes.size()) /
                      static_cast<double>(RW.Nodes.size());
      std::printf("%-21s(%c) | %9zu %11llu | %9zu %11llu | %6.2fx%s\n",
                  F.Name.c_str(), programTag(W.Info->Name),
                  RW.Nodes.size(),
                  static_cast<unsigned long long>(RW.AttemptedPhases),
                  RO.Nodes.size(),
                  static_cast<unsigned long long>(RO.AttemptedPhases),
                  Blowup, Note);
      if (RW.complete() && RO.complete()) {
        SumWith += RW.Nodes.size();
        SumWithout += RO.Nodes.size();
        ++Counted;
      }
      if (RW.complete())
        Complete.push_back({F.Name, programTag(W.Info->Name), std::move(RW)});
    }
  }
  std::printf("\ntotals over %zu fully-enumerated functions: %llu vs %llu "
              "instances (%.2fx more without remapping)\n",
              Counted, static_cast<unsigned long long>(SumWith),
              static_cast<unsigned long long>(SumWithout),
              SumWith ? static_cast<double>(SumWithout) /
                            static_cast<double>(SumWith)
                      : 0.0);

  // Second experiment: independence pruning, trained per function on its
  // own ground truth and replayed over it.
  std::printf("\nIndependence pruning: optimizer attempts saved by "
              "predicting always-commuting pairs\n\n");
  std::printf("%-24s %11s %11s %10s %7s\n", "Function", "attempts",
              "w/ pruning", "predicted", "saved");
  uint64_t SumAtt = 0, SumPruned = 0, SumMispredicted = 0;
  for (const CompleteSpace &S : Complete) {
    InteractionAnalysis IA;
    IA.addFunction(S.Truth);
    const PruningReplay P = replayIndependencePruning(S.Truth, IA);
    const uint64_t Attempts = S.Truth.AttemptedPhases;
    const uint64_t Pruned = Attempts - P.Predicted;
    std::printf("%-21s(%c) %11llu %11llu %10llu %6.1f%%%s\n",
                S.Name.c_str(), S.Tag,
                static_cast<unsigned long long>(Attempts),
                static_cast<unsigned long long>(Pruned),
                static_cast<unsigned long long>(P.Predicted),
                100.0 * (1.0 - static_cast<double>(Pruned) /
                                   static_cast<double>(Attempts)),
                P.Mispredicted ? "  DAG MISMATCH!" : "");
    SumAtt += Attempts;
    SumPruned += Pruned;
    SumMispredicted += P.Mispredicted;
  }
  std::printf("\ntotals: %llu -> %llu optimizer attempts (%.1f%% saved), ",
              static_cast<unsigned long long>(SumAtt),
              static_cast<unsigned long long>(SumPruned),
              100.0 * (1.0 - static_cast<double>(SumPruned) /
                                 static_cast<double>(SumAtt)));
  if (SumMispredicted)
    std::printf("%llu mispredicted edges\n",
                static_cast<unsigned long long>(SumMispredicted));
  else
    std::printf("identical spaces\n");
  return 0;
}
