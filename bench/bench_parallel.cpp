//===- bench_parallel.cpp - Parallel enumeration speedup ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the level-synchronous enumerator at 1/2/4/8 jobs (1 expands
// inline with no worker threads), on real workload functions large
// enough for a level to amortize the barrier. Every job count produces a
// byte-identical DAG (enforced by tests/core/parallel_enumerator_test.cpp),
// so this benchmark is a pure wall-clock comparison; speedup is bounded
// by the host's core count and by Amdahl on the single-threaded commit.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Compilers.h"
#include "src/drive/Supervisor.h"

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>

using namespace pose;
using namespace pose::bench;

namespace {

Function workloadFunction(const char *Program, const char *Name) {
  const Workload *W = findWorkload(Program);
  CompileResult R = compileMC(W->Source);
  Module &M = R.M;
  return *M.functionFor(M.findGlobal(Name));
}

/// Enumeration of a mid-size function whose space completes, at the job
/// count given by the benchmark argument.
void BM_EnumerateJobs(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.Jobs = static_cast<unsigned>(State.range(0));
  Enumerator E(PM, Cfg);
  uint64_t Nodes = 0;
  for (auto _ : State) {
    EnumerationResult R = E.enumerate(F);
    Nodes = R.Nodes.size();
    benchmark::DoNotOptimize(R);
  }
  State.counters["nodes"] = static_cast<double>(Nodes);
}
BENCHMARK(BM_EnumerateJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// A large function under a node budget: wide levels, where parallel
/// expansion matters most.
void BM_EnumerateLargeBudgeted(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.Jobs = static_cast<unsigned>(State.range(0));
  Cfg.MaxTotalNodes = 2'000;
  Enumerator E(PM, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateLargeBudgeted)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Verified enumeration: the per-attempt snapshot + verifyFunction makes
/// each work item heavier, improving the parallel fraction.
void BM_EnumerateVerifiedJobs(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.Jobs = static_cast<unsigned>(State.range(0));
  Cfg.VerifyIr = true;
  Enumerator E(PM, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateVerifiedJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Whole-module batch compilation, parallel across functions.
void BM_BatchCompileModuleJobs(benchmark::State &State) {
  const Workload *W = findWorkload("jpeg");
  PhaseManager PM;
  for (auto _ : State) {
    State.PauseTiming();
    CompileResult R = compileMC(W->Source);
    State.ResumeTiming();
    benchmark::DoNotOptimize(batchCompileModule(
        PM, R.M, static_cast<unsigned>(State.range(0))));
  }
}
BENCHMARK(BM_BatchCompileModuleJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Four structurally identical mid-size functions distinguished only by
/// constants: four distinct enumeration roots of near-equal weight, so
/// the sweep's parallel speedup is not capped by one dominant function.
const char *SweepModuleSource =
    "int f0(int n){int s=3;int i=0;while(i<n){if(s>90){s=s-3;}"
    "s=s+i*2;i=i+1;}return s;}"
    "int f1(int n){int s=5;int i=0;while(i<n){if(s>91){s=s-4;}"
    "s=s+i*3;i=i+1;}return s;}"
    "int f2(int n){int s=7;int i=0;while(i<n){if(s>92){s=s-5;}"
    "s=s+i*4;i=i+1;}return s;}"
    "int f3(int n){int s=9;int i=0;while(i<n){if(s>93){s=s-6;}"
    "s=s+i*5;i=i+1;}return s;}";

/// Full supervised module sweep at --sweep-jobs=N: real posec worker
/// processes under the SubprocessPool, a fresh store per iteration so no
/// work is served from the cache. This is the tentpole number — the
/// process-level path the concurrency overhaul targets; outputs are
/// byte-identical across N (tests/drive/sweep_determinism_test.cpp), so
/// the ratio to Arg(1) is pure wall-clock speedup.
void BM_SupervisedSweepJobs(benchmark::State &State) {
  CompileResult R = compileMC(SweepModuleSource);
  const std::string Base = std::filesystem::temp_directory_path().string() +
                           "/pose-bench-sweep";
  const std::string Input = Base + ".mc";
  {
    std::ofstream Out(Input, std::ios::trunc);
    Out << SweepModuleSource;
  }
  drive::SupervisorOptions O;
  O.PosecPath = POSE_POSEC_PATH;
  O.InputPath = Input;
  O.Budget = 30'000;
  O.SweepJobs = static_cast<uint64_t>(State.range(0));
  PhaseManager PM;
  uint64_t Iter = 0;
  uint64_t Nodes = 0;
  for (auto _ : State) {
    State.PauseTiming();
    O.StoreDir = Base + "-j" + std::to_string(State.range(0)) + "-" +
                 std::to_string(Iter++);
    std::filesystem::remove_all(O.StoreDir);
    State.ResumeTiming();
    drive::SweepReport Report = superviseModule(PM, R.M, O);
    State.PauseTiming();
    Nodes = 0;
    for (const drive::JobOutcome &J : Report.Jobs)
      Nodes += J.Nodes;
    if (!Report.Error.empty() || Report.exitCode() != 0)
      State.SkipWithError("sweep failed");
    std::filesystem::remove_all(O.StoreDir);
    State.ResumeTiming();
  }
  State.counters["nodes"] = static_cast<double>(Nodes);
}
BENCHMARK(BM_SupervisedSweepJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
