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
// Flags: --budget=N.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Interaction.h"

using namespace pose;
using namespace pose::bench;

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
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult RW = EWith.enumerate(F);
      EnumerationResult RO = EWithout.enumerate(F);
      std::string Note;
      if (!RW.complete() || !RO.complete())
        Note = !RO.complete() ? " (no-remap exceeded budget)"
                            : " (exceeded budget)";
      double Blowup = static_cast<double>(RO.Nodes.size()) /
                      static_cast<double>(RW.Nodes.size());
      std::printf("%-21s(%c) | %9zu %11llu | %9zu %11llu | %6.2fx%s\n",
                  F.Name.c_str(), programTag(W.Info->Name),
                  RW.Nodes.size(),
                  static_cast<unsigned long long>(RW.AttemptedPhases),
                  RO.Nodes.size(),
                  static_cast<unsigned long long>(RO.AttemptedPhases),
                  Blowup, Note.c_str());
      if (RW.complete() && RO.complete()) {
        SumWith += RW.Nodes.size();
        SumWithout += RO.Nodes.size();
        ++Counted;
      }
    }
  }
  std::printf("\ntotals over %zu fully-enumerated functions: %llu vs %llu "
              "instances (%.2fx more without remapping)\n",
              Counted, static_cast<unsigned long long>(SumWith),
              static_cast<unsigned long long>(SumWithout),
              SumWith ? static_cast<double>(SumWithout) /
                            static_cast<double>(SumWith)
                      : 0.0);

  // Second experiment: independence-based edge prediction (the paper's
  // Section 7 future work), trained per function on the ground truth and
  // validated to reproduce the identical DAG.
  std::printf("\nIndependence pruning: optimizer attempts saved by "
              "predicting always-commuting pairs\n\n");
  std::printf("%-24s %11s %11s %10s %7s\n", "Function", "attempts",
              "w/ pruning", "predicted", "saved");
  uint64_t SumAtt = 0, SumPruned = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult Truth = EWith.enumerate(F);
      if (!Truth.complete())
        continue;
      InteractionAnalysis IA;
      IA.addFunction(Truth);
      EnumeratorConfig Pruned = With;
      Pruned.UseIndependencePruning = true;
      for (int X = 0; X != NumPhases; ++X)
        for (int Y = 0; Y != NumPhases; ++Y)
          Pruned.TrainedIndependence[X][Y] =
              IA.alwaysIndependent(phaseByIndex(X), phaseByIndex(Y));
      Enumerator EPruned(PM, Pruned);
      EnumerationResult R = EPruned.enumerate(F);
      bool SameSize = R.Nodes.size() == Truth.Nodes.size();
      std::printf("%-21s(%c) %11llu %11llu %10llu %6.1f%%%s\n",
                  F.Name.c_str(), programTag(W.Info->Name),
                  static_cast<unsigned long long>(Truth.AttemptedPhases),
                  static_cast<unsigned long long>(R.AttemptedPhases),
                  static_cast<unsigned long long>(R.PredictedEdges),
                  100.0 *
                      (1.0 - static_cast<double>(R.AttemptedPhases) /
                                 static_cast<double>(Truth.AttemptedPhases)),
                  SameSize ? "" : "  DAG MISMATCH!");
      SumAtt += Truth.AttemptedPhases;
      SumPruned += R.AttemptedPhases;
    }
  }
  std::printf("\ntotals: %llu -> %llu optimizer attempts (%.1f%% saved), "
              "identical spaces\n",
              static_cast<unsigned long long>(SumAtt),
              static_cast<unsigned long long>(SumPruned),
              100.0 * (1.0 - static_cast<double>(SumPruned) /
                                 static_cast<double>(SumAtt)));
  return 0;
}
