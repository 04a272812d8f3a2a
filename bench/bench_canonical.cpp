//===- bench_canonical.cpp - Canonicalization fast path vs reference -----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the zero-allocation canonicalization fast path (dense remap
// arrays + one bulk CRC-32 pass over a preallocated buffer) against the
// original map-based byte-at-a-time implementation, which is kept in the
// tree as the differential oracle. Canonicalization runs once per
// attempted phase application, so this ratio multiplies through every
// enumeration the project runs; the fast path is required to be >= 3x on
// the workload suite (tracked by bench/check_regression.py in CI).
//
// The CRC-32 pair times the bulk path (the carry-less multiplication
// fold) against the per-byte table step over the same 64 KiB. Its ratio
// is gated in CI too, with a floor far above what the table walk reaches,
// so a build or CPU check that silently drops the fold fails; the
// measured ratios are in the gate's provenance in
// bench/baseline_ratios.json.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Canonical.h"
#include "src/support/Crc32.h"

#include <benchmark/benchmark.h>

using namespace pose;
using namespace pose::bench;

namespace {

/// Every function of the six-workload suite, the population the
/// enumerator actually canonicalizes.
std::vector<Function> &suite() {
  static std::vector<Function> Fns = [] {
    std::vector<Function> Out;
    for (CompiledWorkload &W : compileAllWorkloads())
      for (Function &F : W.M.Functions)
        Out.push_back(F);
    return Out;
  }();
  return Fns;
}

/// Reference implementation over the whole suite: the honest baseline.
void BM_CanonicalizeReferenceSuite(benchmark::State &State) {
  std::vector<Function> &Fns = suite();
  uint64_t Insts = 0;
  for (auto _ : State) {
    Insts = 0;
    for (const Function &F : Fns) {
      CanonicalForm C = canonicalizeReference(F);
      Insts += C.Hash.InstCount;
      benchmark::DoNotOptimize(C);
    }
  }
  State.counters["insts"] = static_cast<double>(Insts);
  State.counters["fns"] = static_cast<double>(Fns.size());
}
BENCHMARK(BM_CanonicalizeReferenceSuite);

/// Fast path over the whole suite through one reused scratch — the
/// enumerator's steady state (one scratch per worker, zero allocation).
void BM_CanonicalizeFastSuite(benchmark::State &State) {
  std::vector<Function> &Fns = suite();
  CanonicalScratch Scratch;
  uint64_t Insts = 0;
  for (auto _ : State) {
    Insts = 0;
    for (const Function &F : Fns) {
      CanonicalForm C = canonicalize(F, Scratch);
      Insts += C.Hash.InstCount;
      benchmark::DoNotOptimize(C);
    }
  }
  State.counters["insts"] = static_cast<double>(Insts);
  State.counters["fns"] = static_cast<double>(Fns.size());
}
BENCHMARK(BM_CanonicalizeFastSuite);

/// Cold fast path: a fresh scratch each call, measuring what a caller
/// without scratch reuse (the convenience overload) pays.
void BM_CanonicalizeFastColdSuite(benchmark::State &State) {
  std::vector<Function> &Fns = suite();
  for (auto _ : State)
    for (const Function &F : Fns)
      benchmark::DoNotOptimize(canonicalize(F));
}
BENCHMARK(BM_CanonicalizeFastColdSuite);

/// Single large function (sha_transform), reference vs fast, for a
/// per-function view uncontaminated by the small functions in the suite.
void BM_CanonicalizeReferenceSha(benchmark::State &State) {
  const Workload *W = findWorkload("sha");
  CompileResult R = compileMC(W->Source);
  Function &F = *R.M.functionFor(R.M.findGlobal("sha_transform"));
  for (auto _ : State)
    benchmark::DoNotOptimize(canonicalizeReference(F));
}
BENCHMARK(BM_CanonicalizeReferenceSha);

void BM_CanonicalizeFastSha(benchmark::State &State) {
  const Workload *W = findWorkload("sha");
  CompileResult R = compileMC(W->Source);
  Function &F = *R.M.functionFor(R.M.findGlobal("sha_transform"));
  CanonicalScratch Scratch;
  for (auto _ : State)
    benchmark::DoNotOptimize(canonicalize(F, Scratch));
}
BENCHMARK(BM_CanonicalizeFastSha);

/// 64 KiB of pseudo-random bytes, made at run time.
const std::vector<uint8_t> &crcInput() {
  static const std::vector<uint8_t> Bytes = [] {
    std::vector<uint8_t> Out(64 * 1024);
    uint32_t X = 2463534242u;
    for (uint8_t &B : Out) {
      X ^= X << 13;
      X ^= X >> 17;
      X ^= X << 5;
      B = static_cast<uint8_t>(X);
    }
    return Out;
  }();
  return Bytes;
}

/// The per-byte step, as the reference canonicalization streams its bytes.
void BM_Crc32PerByte(benchmark::State &State) {
  const std::vector<uint8_t> &Bytes = crcInput();
  for (auto _ : State) {
    Crc32Stream Crc;
    for (uint8_t B : Bytes)
      Crc.update(B);
    benchmark::DoNotOptimize(Crc.value());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Bytes.size()));
}
BENCHMARK(BM_Crc32PerByte);

/// The bulk path every frame and the canonicalization fast path use.
void BM_Crc32Bulk(benchmark::State &State) {
  const std::vector<uint8_t> &Bytes = crcInput();
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Bytes));
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Bytes.size()));
}
BENCHMARK(BM_Crc32Bulk);

} // namespace

BENCHMARK_MAIN();
