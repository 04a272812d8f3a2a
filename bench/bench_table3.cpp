//===- bench_table3.cpp - Reproduces Table 3 ----------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 3, "Function-Level Search Space Statistics for MiBench Benchmarks":
// for every function of the six workloads, exhaustively enumerate the
// phase-order space and report Insts, Blk, Brch, Loop, Fn inst, Attempted
// Phases, Len, CF, Leaf, and the leaf code-size range. Functions whose
// per-level active-sequence count exceeds the budget (default one million,
// as in the paper) are marked N/A, exactly like fft_float and main(f) in
// the original.
//
// Flags: --budget=N (per-level active sequences). The phase list of
// Table 1 is `posec --list-phases`.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/SpaceStats.h"
#include "src/support/Str.h"

#include <algorithm>
#include <chrono>

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000'000;
  parseBenchFlags(Argc, Argv, budgetFlag(Cfg.MaxLevelSequences));
  PhaseManager PM;
  Enumerator E(PM, Cfg);

  std::printf("Table 3: Function-Level Search Space Statistics "
              "(budget: %llu active sequences per level)\n\n",
              static_cast<unsigned long long>(Cfg.MaxLevelSequences));
  std::printf("%-24s %6s %4s %5s %5s %9s %11s %4s %4s %6s %6s %6s %7s\n",
              "Function", "Insts", "Blk", "Brch", "Loop", "Fn inst",
              "Attempt", "Len", "CF", "Leaf", "Max", "Min", "% Diff");

  std::vector<SpaceStats> Rows;
  double TotalSeconds = 0;
  size_t Completed = 0, Total = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      auto T0 = std::chrono::steady_clock::now();
      EnumerationResult R = E.enumerate(F);
      TotalSeconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
      SpaceStats S = computeSpaceStats(F, R);
      S.Name = F.Name + "(" + programTag(W.Info->Name) + ")";
      Rows.push_back(S);
      ++Total;
      Completed += S.complete();
    }
  }

  // The paper sorts by unoptimized instruction count, descending.
  std::sort(Rows.begin(), Rows.end(),
            [](const SpaceStats &A, const SpaceStats &B) {
              return A.Insts > B.Insts;
            });

  double SumDiff = 0;
  size_t DiffCount = 0;
  for (const SpaceStats &S : Rows) {
    if (!S.complete()) {
      std::printf("%-24s %6u %4u %5u %5u %9s %11s %4s %4s %6s %6s %6s %7s\n",
                  S.Name.c_str(), S.Insts, S.Blocks, S.Branches, S.Loops,
                  "N/A", "N/A", "N/A", "N/A", "N/A", "N/A", "N/A", "N/A");
      continue;
    }
    std::printf(
        "%-24s %6u %4u %5u %5u %9llu %11llu %4u %4llu %6llu %6u %6u %7.1f\n",
        S.Name.c_str(), S.Insts, S.Blocks, S.Branches, S.Loops,
        static_cast<unsigned long long>(S.FnInstances),
        static_cast<unsigned long long>(S.AttemptedPhases), S.MaxActiveLen,
        static_cast<unsigned long long>(S.DistinctControlFlows),
        static_cast<unsigned long long>(S.LeafInstances), S.LeafCodeSizeMax,
        S.LeafCodeSizeMin, S.codeSizeDiffPercent());
    SumDiff += S.codeSizeDiffPercent();
    ++DiffCount;
  }

  std::printf("\nEnumerated %zu/%zu functions completely in %.1f s total.\n",
              Completed, Total, TotalSeconds);
  if (DiffCount)
    std::printf("Average best-to-worst leaf code-size gap: %.1f%% "
                "(paper: 37.8%%).\n",
                SumDiff / static_cast<double>(DiffCount));
  std::printf("Paper shape check: enumeration completes for ~all functions; "
              "distinct instances << attempted sequences; few leaves.\n");
  return 0;
}
