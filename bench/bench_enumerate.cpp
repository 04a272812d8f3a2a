//===- bench_enumerate.cpp - Enumerate-throughput benchmarks -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Bounded enumeration throughput over a spread of suite functions, and the
// copy-on-write working-copy mechanism in isolation: a COW instance copy
// against a deep copy. check_regression.py gates the copy ratio
// BM_InstanceCopyDeep / BM_InstanceCopyCow via the
// instance-copy-cow-speedup entry of baseline_ratios.json.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Compilers.h"

#include <benchmark/benchmark.h>

using namespace pose;
using namespace pose::bench;

namespace {

Function workloadFunction(const char *Program, const char *Name) {
  const Workload *W = findWorkload(Program);
  CompileResult R = compileMC(W->Source);
  Module &M = R.M;
  return *M.functionFor(M.findGlobal(Name));
}

/// A spread of function sizes from the suite; each enumeration is bounded
/// by the node cap below so the benchmark finishes in seconds while still
/// spending its time where real sweeps do (frontier copies + attempts).
std::vector<Function> enumerationTargets() {
  std::vector<Function> Fns;
  Fns.push_back(workloadFunction("fft", "make_sine"));
  Fns.push_back(workloadFunction("stringsearch", "bmh_search"));
  Fns.push_back(workloadFunction("sha", "sha_transform"));
  Fns.push_back(workloadFunction("crc32", "crc_of_stream"));
  return Fns;
}

constexpr uint64_t NodeCap = 1200;

/// Enumerates every target with a node cap, a deterministic stop, so the
/// work done is identical on every run.
void BM_EnumerateCow(benchmark::State &State) {
  const std::vector<Function> Fns = enumerationTargets();
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxTotalNodes = NodeCap;
  const Enumerator E(PM, Cfg);
  uint64_t Nodes = 0, Attempts = 0;
  for (auto _ : State) {
    Nodes = Attempts = 0;
    for (const Function &F : Fns) {
      EnumerationResult R = E.enumerate(F);
      Nodes += R.Nodes.size();
      Attempts += R.AttemptedPhases;
    }
    benchmark::DoNotOptimize(Nodes);
  }
  State.counters["nodes"] = static_cast<double>(Nodes);
  State.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(Nodes * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["attempts_per_sec"] = benchmark::Counter(
      static_cast<double>(Attempts * State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EnumerateCow)->Unit(benchmark::kMillisecond);

/// The mechanism in isolation: a COW working copy bumps one refcount per
/// block; a deep copy clones every block and instruction.
void BM_InstanceCopyCow(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  for (auto _ : State) {
    Function G = F;
    benchmark::DoNotOptimize(G.Blocks.size());
  }
}
BENCHMARK(BM_InstanceCopyCow);

void BM_InstanceCopyDeep(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  for (auto _ : State) {
    Function G = F.deepCopy();
    benchmark::DoNotOptimize(G.Blocks.size());
  }
}
BENCHMARK(BM_InstanceCopyDeep);

} // namespace

BENCHMARK_MAIN();
