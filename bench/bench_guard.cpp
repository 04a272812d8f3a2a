//===- bench_guard.cpp - PhaseGuard overhead microbenchmarks ------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what the robustness layer costs along the two paths that
// matter: a disarmed guard (no verification, no faults) must stay within
// noise of a bare PhaseManager::attempt / unguarded enumeration, and the
// verify-on path shows the price of a snapshot plus verifyFunction per
// active application.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/opt/PhaseGuard.h"

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

void BM_AttemptUnguarded(benchmark::State &State) {
  Function F = workloadFunction("jpeg", "quantize_block");
  PhaseManager PM;
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(
        PM.attempt(PhaseId::InstructionSelection, Copy));
  }
}
BENCHMARK(BM_AttemptUnguarded);

void BM_AttemptGuardDisarmed(benchmark::State &State) {
  Function F = workloadFunction("jpeg", "quantize_block");
  PhaseManager PM;
  PhaseGuard Guard(PM);
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(
        Guard.attemptNth(PhaseId::InstructionSelection, Copy, 1));
  }
}
BENCHMARK(BM_AttemptGuardDisarmed);

void BM_AttemptGuardVerify(benchmark::State &State) {
  Function F = workloadFunction("jpeg", "quantize_block");
  PhaseManager PM;
  PhaseGuard::Options Opts;
  Opts.Verify = true;
  PhaseGuard Guard(PM, Opts);
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(
        Guard.attemptNth(PhaseId::InstructionSelection, Copy, 1));
  }
}
BENCHMARK(BM_AttemptGuardVerify);

void BM_EnumerateGuardDisarmed(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  // The guard always sits on the enumeration path now; with no deadline,
  // memory budget, verification, or faults configured this measures the
  // pass-through cost (plus governor bookkeeping).
  EnumeratorConfig Cfg;
  Enumerator E(PM, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateGuardDisarmed);

void BM_EnumerateVerifyIr(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Enumerator E(PM, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateVerifyIr);

void BM_EnumerateWithGovernor(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  // Armed but never-tripping limits: the per-node governor check cost.
  EnumeratorConfig Cfg;
  Cfg.DeadlineMs = 3'600'000;
  Cfg.MaxMemoryBytes = uint64_t(1) << 40;
  Enumerator E(PM, Cfg);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateWithGovernor);

} // namespace

BENCHMARK_MAIN();
