//===- bench_fig6_enhancements.cpp - Reproduces Figure 6 ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 6, "Enhancements for Faster Searches": the naive evaluation of
// every optimization sequence re-applies the entire phase prefix to a
// fresh copy of the unoptimized function, while the enhanced search keeps
// function instances in memory and shares prefixes. The paper found the
// enhancements cut search time "at least by a factor of 5 to 10".
//
// The enumerator is the enhanced search. The naive column replays the DAG
// it produced: for every node and every phase attempted there, the node's
// instance is rebuilt from the unoptimized function along a shortest
// active path (DagPaths::materialize), the phase is attempted, and an
// active result is canonicalized, as the enumerator does with it. Each
// such attempt costs Level + 1 optimizer invocations: the node's Level
// prefix phases plus the attempt itself.
//
// Flags: --budget=N, --max-insts=N (skip functions larger than this;
// prefix replay on big spaces is exactly as slow as the paper says it is).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "src/core/DagPaths.h"

#include <bit>
#include <chrono>

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 100'000;
  uint64_t MaxInsts = 100;
  parseBenchFlags(Argc, Argv, budgetFlag(Cfg.MaxLevelSequences),
                  uintFlag("--max-insts", MaxInsts, 0, UINT64_MAX,
                           "skip functions with more instructions "
                           "(default 100)"));

  PhaseManager PM;
  Enumerator E(PM, Cfg);
  CanonicalScratch Scratch;

  std::printf("Figure 6: naive re-application vs in-memory prefix "
              "sharing\n\n");
  std::printf("%-24s %10s | %12s %9s | %12s %9s | %7s\n", "Function",
              "instances", "naive applies", "naive s", "shared applies",
              "shared s", "speedup");

  double TotalNaive = 0, TotalFast = 0;
  uint64_t TotalNaiveApplies = 0, TotalFastApplies = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      if (F.instructionCount() > MaxInsts)
        continue;
      auto T0 = std::chrono::steady_clock::now();
      EnumerationResult R = E.enumerate(F);
      auto T1 = std::chrono::steady_clock::now();
      if (!R.complete())
        continue;
      const DagPaths Paths(R);
      uint64_t NaiveApplies = 0;
      for (uint32_t Id = 0; Id != R.Nodes.size(); ++Id) {
        const DagNode &N = R.Nodes[Id];
        for (uint16_t Left = N.AttemptedMask; Left; Left &= Left - 1) {
          Function Work = Paths.materialize(F, PM, Id);
          if (PM.attempt(phaseByIndex(std::countr_zero(Left)), Work))
            canonicalize(Work, Scratch, /*KeepBytes=*/false,
                         Cfg.RemapRegisters);
          NaiveApplies += N.Level + 1;
        }
      }
      auto T2 = std::chrono::steady_clock::now();
      double SF = std::chrono::duration<double>(T1 - T0).count();
      double SN = std::chrono::duration<double>(T2 - T1).count();
      std::printf("%-21s(%c) %10zu | %12llu %9.3f | %12llu %9.3f | %6.1fx\n",
                  F.Name.c_str(), programTag(W.Info->Name), R.Nodes.size(),
                  static_cast<unsigned long long>(NaiveApplies), SN,
                  static_cast<unsigned long long>(R.AttemptedPhases), SF,
                  SF > 0 ? SN / SF : 0.0);
      TotalNaive += SN;
      TotalFast += SF;
      TotalNaiveApplies += NaiveApplies;
      TotalFastApplies += R.AttemptedPhases;
    }
  }
  std::printf("\ntotals: %llu vs %llu optimizer invocations "
              "(%.1fx), %.2f s vs %.2f s (%.1fx)\n",
              static_cast<unsigned long long>(TotalNaiveApplies),
              static_cast<unsigned long long>(TotalFastApplies),
              TotalFastApplies
                  ? static_cast<double>(TotalNaiveApplies) /
                        static_cast<double>(TotalFastApplies)
                  : 0.0,
              TotalNaive, TotalFast,
              TotalFast > 0 ? TotalNaive / TotalFast : 0.0);
  std::printf("Paper shape: enhancements reduce search time by 5-10x.\n");
  return 0;
}
