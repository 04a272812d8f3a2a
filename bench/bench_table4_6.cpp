//===- bench_table4_6.cpp - Reproduces Tables 4, 5 and 6 ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tables 4-6: weighted probabilities of enabling, disabling, and
// independence interactions between phases, computed over the enumerated
// spaces of every completely-enumerated workload function (Section 5).
//
// Flags: --budget=N.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Interaction.h"

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000'000;
  parseBenchFlags(Argc, Argv, budgetFlag(Cfg.MaxLevelSequences));
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  InteractionAnalysis IA;

  size_t Used = 0, Skipped = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult R = E.enumerate(F);
      if (!R.complete()) {
        ++Skipped;
        continue;
      }
      IA.addFunction(R);
      ++Used;
    }
  }
  std::printf("Interaction analysis over %zu exhaustively enumerated "
              "functions (%zu skipped as too big).\n\n",
              Used, Skipped);

  std::printf("Table 4: Enabling Interaction between Optimization Phases\n"
              "(row y, column x: probability that x enables y; St = active "
              "at start)\n\n%s\n",
              IA.renderTable(InteractionAnalysis::TableKind::Enabling)
                  .c_str());
  std::printf("Table 5: Disabling Interaction between Optimization Phases\n"
              "(row y, column x: probability that x disables y)\n\n%s\n",
              IA.renderTable(InteractionAnalysis::TableKind::Disabling)
                  .c_str());
  std::printf("Table 6: Independence Relationship between Optimization "
              "Phases\n(symmetric; blank: never consecutively active or "
              "> 0.995)\n\n%s\n",
              IA.renderTable(InteractionAnalysis::TableKind::Independence)
                  .c_str());

  std::printf(
      "Paper shape checks:\n"
      "  s and c always active at the start (St column = 1.00)\n"
      "  s frequently enabled by k (register moves collapse)\n"
      "  control-flow phases (b) never enabled by k\n"
      "  c and k always disable o (they force register assignment)\n"
      "  phases are usually disabled by themselves, not others\n");
  return 0;
}
