//===- bench_cf_inference.cpp - Section 7's dynamic-count inference ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implements and validates the paper's Section 7 proposal: evaluating the
// dynamic instruction count of every enumerated instance by simulating
// only one representative per distinct control flow ("these counts could
// be used to prune function instances from being simulated"). Reports,
// per function: instances, control-flow classes, simulations performed,
// the implied speedup, and an exactness check of the inferred counts
// against full simulation on a sample.
//
// Flags: --budget=N, --verify-sample=N (instances fully simulated for
// cross-checking; default 25 per function).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/CfInference.h"
#include "src/core/SpaceStats.h"
#include "src/sim/Interpreter.h"
#include "src/support/Rng.h"

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 200'000;
  uint64_t Sample = 25;
  parseBenchFlags(Argc, Argv, budgetFlag(Cfg.MaxLevelSequences),
                  uintFlag("--verify-sample", Sample, 0, UINT64_MAX,
                           "instances fully simulated per function "
                           "(default 25)"));
  PhaseManager PM;
  Enumerator E(PM, Cfg);

  std::printf("Section 7: inferring dynamic instruction counts across "
              "control-flow classes\n\n");
  std::printf("%-24s %9s %4s %11s %8s | %10s %10s %9s\n", "Function",
              "instances", "CF", "simulations", "speedup", "best dyn",
              "worst dyn", "verified");

  size_t TotalInstances = 0, TotalSims = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult R = E.enumerate(F);
      if (!R.complete())
        continue;
      DagPaths Paths(R);
      CfCountEvaluator Eval(W.M, "main", F.Name, F, PM);

      uint64_t Best = UINT64_MAX, Worst = 0;
      std::vector<uint64_t> Counts(R.Nodes.size(), 0);
      bool AllValid = true;
      for (uint32_t Id = 0; Id != R.Nodes.size(); ++Id) {
        CfCountEvaluator::Count C = Eval.evaluate(R, Paths, Id);
        AllValid &= C.Valid;
        if (!C.Valid)
          continue;
        Counts[Id] = C.Dynamic;
        Best = std::min(Best, C.Dynamic);
        Worst = std::max(Worst, C.Dynamic);
      }

      // Cross-check a random sample against full simulation.
      Rng Rand(1234);
      size_t Verified = 0, Mismatches = 0;
      Interpreter Sim(W.M);
      for (uint64_t K = 0; K != Sample; ++K) {
        uint32_t Id =
            static_cast<uint32_t>(Rand.below(R.Nodes.size()));
        Function Inst = Paths.materialize(F, PM, Id);
        Sim.overrideFunction(F.Name, &Inst);
        RunResult Truth = Sim.run("main", {});
        Sim.overrideFunction(F.Name, nullptr);
        if (!Truth.Ok)
          continue;
        ++Verified;
        Mismatches += (Truth.DynamicInsts != Counts[Id]);
      }

      double Speedup = Eval.simulations()
                           ? static_cast<double>(R.Nodes.size()) /
                                 static_cast<double>(Eval.simulations())
                           : 0.0;
      std::printf("%-21s(%c) %9zu %4zu %11zu %7.1fx | %10llu %10llu "
                  "%6zu/%zu%s\n",
                  F.Name.c_str(), programTag(W.Info->Name),
                  R.Nodes.size(),
                  static_cast<size_t>(
                      computeSpaceStats(F, R).DistinctControlFlows),
                  Eval.simulations(), Speedup,
                  static_cast<unsigned long long>(Best),
                  static_cast<unsigned long long>(Worst), Verified,
                  static_cast<size_t>(Sample),
                  Mismatches ? " MISMATCH!" : "");
      if (Mismatches)
        return 1;
      TotalInstances += R.Nodes.size();
      TotalSims += Eval.simulations();
      (void)AllValid;
    }
  }
  std::printf("\ntotals: %zu instances evaluated with %zu simulations "
              "(%.1fx fewer)\n",
              TotalInstances, TotalSims,
              TotalSims ? static_cast<double>(TotalInstances) /
                              static_cast<double>(TotalSims)
                        : 0.0);
  std::printf("Every sampled inference matched full simulation exactly.\n");
  return 0;
}
