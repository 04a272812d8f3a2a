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
// enhancements cut search time "at least by a factor of 5 to 10". This
// driver enumerates a sample of workload functions both ways and reports
// optimizer invocations and wall-clock time.
//
// Flags: --budget=N, --max-insts=N (skip functions larger than this in
// naive mode; prefix replay on big spaces is exactly as slow as the paper
// says it is).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <chrono>

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig Fast;
  Fast.MaxLevelSequences = 100'000;
  uint64_t MaxInsts = 100;
  parseBenchFlags(Argc, Argv, budgetFlag(Fast.MaxLevelSequences),
                  uintFlag("--max-insts", MaxInsts, 0, UINT64_MAX,
                           "skip functions with more instructions "
                           "(default 100)"));
  EnumeratorConfig Naive = Fast;
  Naive.NaiveReapply = true;

  PhaseManager PM;
  Enumerator EFast(PM, Fast), ENaive(PM, Naive);

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
      EnumerationResult RN = ENaive.enumerate(F);
      auto T1 = std::chrono::steady_clock::now();
      EnumerationResult RF = EFast.enumerate(F);
      auto T2 = std::chrono::steady_clock::now();
      if (!RN.complete() || !RF.complete())
        continue;
      double SN = std::chrono::duration<double>(T1 - T0).count();
      double SF = std::chrono::duration<double>(T2 - T1).count();
      std::printf("%-21s(%c) %10zu | %12llu %9.3f | %12llu %9.3f | %6.1fx\n",
                  F.Name.c_str(), programTag(W.Info->Name), RF.Nodes.size(),
                  static_cast<unsigned long long>(RN.PhaseApplications), SN,
                  static_cast<unsigned long long>(RF.PhaseApplications), SF,
                  SF > 0 ? SN / SF : 0.0);
      TotalNaive += SN;
      TotalFast += SF;
      TotalNaiveApplies += RN.PhaseApplications;
      TotalFastApplies += RF.PhaseApplications;
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
