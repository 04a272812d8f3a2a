//===- parallel_enumerator_test.cpp - Job-count determinism differentials ------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The enumerator's whole contract is "byte-identical for every job count":
// node ids, edge order, every statistic, every diagnostic, the accounted
// memory and the stop reason. This suite enforces that differentially —
// over every workload function under enumeration budgets, without
// register remapping and with injected verifier faults — and checks that
// Deadline/Cancelled stops, which discard the in-flight level, still
// yield self-consistent partial DAGs.
//
// The Jobs=1 results are also pinned to recorded digests. They were taken
// from the separate sequential engine the enumerator had before the
// level-synchronous engine became its only one, so every comparison below
// stays anchored to that independent implementation, not only to the job
// counts agreeing with each other. The digests include the accounted
// memory, whose per-object sizes are those of an LP64 libstdc++ build.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

EnumerationResult enumerateWithJobs(const Function &F, EnumeratorConfig Cfg,
                                    unsigned Jobs) {
  Cfg.Jobs = Jobs;
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  return E.enumerate(F);
}

/// Field-by-field equality of two enumeration results. EXPECT (not
/// ASSERT) per field so one mismatch shows every divergent statistic.
void expectIdentical(const EnumerationResult &A, const EnumerationResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Stop, B.Stop) << What;
  EXPECT_EQ(A.Cyclic, B.Cyclic) << What;
  EXPECT_EQ(A.AttemptedPhases, B.AttemptedPhases) << What;
  EXPECT_EQ(A.MaxActiveLength, B.MaxActiveLength) << What;
  EXPECT_EQ(A.ApproxMemoryBytes, B.ApproxMemoryBytes) << What;

  ASSERT_EQ(A.Nodes.size(), B.Nodes.size()) << What;
  for (size_t I = 0; I != A.Nodes.size(); ++I) {
    const DagNode &NA = A.Nodes[I];
    const DagNode &NB = B.Nodes[I];
    EXPECT_EQ(NA.Hash, NB.Hash) << What << " node " << I;
    EXPECT_EQ(NA.Level, NB.Level) << What << " node " << I;
    EXPECT_EQ(NA.CodeSize, NB.CodeSize) << What << " node " << I;
    EXPECT_EQ(NA.CfHash, NB.CfHash) << What << " node " << I;
    EXPECT_EQ(NA.ActiveMask, NB.ActiveMask) << What << " node " << I;
    EXPECT_EQ(NA.DormantMask, NB.DormantMask) << What << " node " << I;
    EXPECT_EQ(NA.AttemptedMask, NB.AttemptedMask) << What << " node " << I;
    EXPECT_EQ(NA.Weight, NB.Weight) << What << " node " << I;
    ASSERT_EQ(NA.Edges.size(), NB.Edges.size()) << What << " node " << I;
    for (size_t E = 0; E != NA.Edges.size(); ++E) {
      EXPECT_EQ(NA.Edges[E].Phase, NB.Edges[E].Phase)
          << What << " node " << I << " edge " << E;
      EXPECT_EQ(NA.Edges[E].To, NB.Edges[E].To)
          << What << " node " << I << " edge " << E;
    }
  }

  ASSERT_EQ(A.Levels.size(), B.Levels.size()) << What;
  for (size_t I = 0; I != A.Levels.size(); ++I) {
    EXPECT_EQ(A.Levels[I].Level, B.Levels[I].Level) << What << " level " << I;
    EXPECT_EQ(A.Levels[I].NewNodes, B.Levels[I].NewNodes)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].ActiveSequences, B.Levels[I].ActiveSequences)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].Attempted, B.Levels[I].Attempted)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].Active, B.Levels[I].Active)
        << What << " level " << I;
  }

  ASSERT_EQ(A.Diagnostics.size(), B.Diagnostics.size()) << What;
  for (size_t I = 0; I != A.Diagnostics.size(); ++I) {
    EXPECT_EQ(A.Diagnostics[I].Phase, B.Diagnostics[I].Phase)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Func, B.Diagnostics[I].Func)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Message, B.Diagnostics[I].Message)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Application, B.Diagnostics[I].Application)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Injected, B.Diagnostics[I].Injected)
        << What << " diag " << I;
  }
}

/// FNV-1a over every field expectIdentical() compares, so one recorded
/// value pins a whole result.
uint64_t resultDigest(const EnumerationResult &R) {
  uint64_t H = 0xCBF29CE484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int K = 0; K != 8; ++K) {
      H ^= (V >> (8 * K)) & 0xFF;
      H *= 0x100000001B3ull;
    }
  };
  auto MixText = [&Mix](const std::string &S) {
    Mix(S.size());
    for (char C : S)
      Mix(static_cast<uint8_t>(C));
  };
  Mix(static_cast<uint64_t>(R.Stop));
  Mix(R.Cyclic);
  Mix(R.AttemptedPhases);
  // The results once carried a phase-application count here, equal to
  // AttemptedPhases in every recorded run; mixing that keeps the recorded
  // digests valid.
  Mix(R.AttemptedPhases);
  Mix(R.MaxActiveLength);
  // The results once carried a hash-collision count and a predicted-edge
  // count here, both 0 in every recorded run; mixing the 0s keeps the
  // recorded digests valid.
  Mix(0);
  Mix(0);
  Mix(R.ApproxMemoryBytes);
  Mix(R.Nodes.size());
  for (const DagNode &N : R.Nodes) {
    Mix(N.Hash.InstCount);
    Mix(N.Hash.ByteSum);
    Mix(N.Hash.Crc);
    Mix(N.Level);
    Mix(N.CodeSize);
    Mix(N.CfHash);
    Mix(N.ActiveMask);
    Mix(N.DormantMask);
    Mix(N.AttemptedMask);
    Mix(N.Weight);
    Mix(N.Edges.size());
    for (const DagEdge &E : N.Edges) {
      Mix(static_cast<uint64_t>(E.Phase));
      Mix(E.To);
    }
  }
  Mix(R.Levels.size());
  for (const LevelStat &L : R.Levels) {
    Mix(L.Level);
    Mix(L.NewNodes);
    Mix(L.ActiveSequences);
    Mix(L.Attempted);
    Mix(L.Active);
  }
  Mix(R.Diagnostics.size());
  for (const PhaseDiagnostic &D : R.Diagnostics) {
    Mix(static_cast<uint64_t>(D.Phase));
    MixText(D.Func);
    MixText(D.Message);
    Mix(D.Application);
    Mix(D.Injected);
  }
  return H;
}

/// A recorded Jobs=1 result: "program/function" (or a function name) and
/// its resultDigest().
struct Golden {
  const char *Key;
  uint64_t Digest;
};

/// Every workload function under cappedConfig(), in allWorkloads() order.
const Golden CappedGoldens[] = {
    {"bitcount/bit_count", 0x0328e1635a8daaaeull},
    {"bitcount/bit_shifter", 0x3de716f77b8d003cull},
    {"bitcount/ntbl_bitcount", 0xd0f8a3214bc41aebull},
    {"bitcount/btbl_init", 0xf606e8a367054df0ull},
    {"bitcount/btbl_bitcount", 0x5ed6e66899ac2c0dull},
    {"bitcount/bitcount_swar", 0x6ee9cd7581581bfdull},
    {"bitcount/bitcount_recursive", 0x8ae417d18560bce3ull},
    {"bitcount/bitcount_dense", 0x79b8bfe29a169ae3ull},
    {"bitcount/main", 0x8cf666b86784ca94ull},
    {"dijkstra/build_graph", 0xe6d0ee9c1d42f6beull},
    {"dijkstra/pick_nearest", 0x4b43bcf05cb80295ull},
    {"dijkstra/dijkstra", 0xa9084fbea3d86fa5ull},
    {"dijkstra/enqueue", 0x412e9b0bb02cbb23ull},
    {"dijkstra/dequeue", 0xad1fca3babf37d1full},
    {"dijkstra/qcount", 0x0249d118c682a52eull},
    {"dijkstra/path_length", 0xdf18253501895e8cull},
    {"dijkstra/main", 0x7622750acda49cfbull},
    {"fft/fix_mul", 0x768c010bf90e8bdfull},
    {"fft/make_sine", 0x36ac85027bb4695eull},
    {"fft/sin_q", 0x309274783ee488a2ull},
    {"fft/cos_q", 0xed5d845a8ee5887full},
    {"fft/load_signal", 0x88dc342380123571ull},
    {"fft/bit_reverse", 0xb18b326e87a7704dull},
    {"fft/fix_fft", 0x6408a030869d35d9ull},
    {"fft/isqrt", 0xa890bba5c2c705c2ull},
    {"fft/window_signal", 0x894ec344213836c2ull},
    {"fft/spectrum_checksum", 0x851f81d1ed5aa793ull},
    {"fft/main", 0xfa4f4a502cdee74cull},
    {"jpeg/rgb_ycc_setup", 0xcc30a47398b0f7afull},
    {"jpeg/rgb_to_y", 0xefb421a0fe483d81ull},
    {"jpeg/fill_block", 0xb794acfc0dee2f60ull},
    {"jpeg/forward_dct_rows", 0x7d7c0b8619fa62a9ull},
    {"jpeg/forward_dct_cols", 0xe0ad2f7086a7b4d3ull},
    {"jpeg/quantize_block", 0xc40331a0e0c768b6ull},
    {"jpeg/zigzag_order", 0xc3072c35fd994bacull},
    {"jpeg/dequantize_block", 0x5e72338f433e7c14ull},
    {"jpeg/reconstruction_error", 0x06049a46bd910978ull},
    {"jpeg/emit_bits", 0x0402264af2a428eaull},
    {"jpeg/flush_bits", 0x23a5d80e67c64e5full},
    {"jpeg/magnitude_bits", 0xc515fb90b45d2cacull},
    {"jpeg/encode_block", 0xb722ecc30eea06e1ull},
    {"jpeg/packed_checksum", 0xefc735944c1e9df3ull},
    {"jpeg/run_length_checksum", 0x7dbf7b086da93fefull},
    {"jpeg/main", 0x98eef2742ee19be0ull},
    {"sha/rotl", 0x421b6f6f804fde36ull},
    {"sha/sha_init", 0x390cba2d295a1567ull},
    {"sha/fill_data", 0x1024c7656d344112ull},
    {"sha/sha_transform", 0x0015c929463dfce1ull},
    {"sha/copy_block", 0xc2f7d50340713e27ull},
    {"sha/block_checksum", 0x11b44c7579b31042ull},
    {"sha/main", 0xd26ac7672aced4ccull},
    {"stringsearch/str_len", 0x8daf93561e1176d9ull},
    {"stringsearch/bmh_init", 0xb91f5c3160fad0a1ull},
    {"stringsearch/text_len", 0xdff2a1769cdfd258ull},
    {"stringsearch/bmh_search", 0xcfcbe734cb5efc27ull},
    {"stringsearch/to_lower", 0xb947092902f407c6ull},
    {"stringsearch/naive_search", 0x7f99759c0bc6be84ull},
    {"stringsearch/count_matches", 0xa6bb18cf40ed303eull},
    {"stringsearch/count_naive", 0xbe406a38617298e2ull},
    {"stringsearch/main", 0x02abed4325286252ull},
    {"crc32/make_crc_table", 0x0530a5c311c01c20ull},
    {"crc32/crc_bitwise", 0x31ac285fe300f72bull},
    {"crc32/crc_byte", 0x05c37d1e62497c2full},
    {"crc32/crc_nibble", 0x06c604036c74c7d7ull},
    {"crc32/fill_stream", 0xf0a0904c468b02e5ull},
    {"crc32/crc_of_stream", 0x8a0b55f8673e9cf2ull},
    {"crc32/main", 0xccd278f8eb196cbdull},
};

/// bitcount's functions under cappedConfig() with faults "c:5,i:2".
const Golden FaultedBitcountGoldens[] = {
    {"bit_count", 0xfdad81745dfda40full},
    {"bit_shifter", 0x8184c1ed047e0247ull},
    {"ntbl_bitcount", 0x953631e17c45c87cull},
    {"btbl_init", 0x001679eb057492efull},
    {"btbl_bitcount", 0x6a0046bfd2c9bd90ull},
    {"bitcount_swar", 0xe96c5fb9f0fdff25ull},
    {"bitcount_recursive", 0x32106d3651fea0b8ull},
    {"bitcount_dense", 0xf9d379c920b01b14ull},
    {"main", 0x17f92c0ad43976c3ull},
};

/// Checks \p R against entry \p Index of \p Table, which must be recorded
/// under \p Key.
template <size_t N>
void expectGolden(const Golden (&Table)[N], size_t Index,
                  const std::string &Key, const EnumerationResult &R) {
  ASSERT_LT(Index, N) << Key << ": no golden recorded";
  ASSERT_EQ(Key, Table[Index].Key);
  EXPECT_EQ(resultDigest(R), Table[Index].Digest) << Key;
}

/// Partial DAGs must still satisfy every structural invariant.
void expectSelfConsistent(const EnumerationResult &R) {
  for (const DagNode &N : R.Nodes) {
    uint64_t Sum = 0;
    for (const DagEdge &E : N.Edges) {
      ASSERT_LT(E.To, R.Nodes.size());
      EXPECT_LE(R.Nodes[E.To].Level, N.Level + 1);
      Sum += R.Nodes[E.To].Weight;
    }
    if (N.isLeaf()) {
      EXPECT_EQ(N.Weight, 1u);
    } else if (!R.Cyclic) {
      EXPECT_EQ(N.Weight, Sum);
    }
  }
}

/// Budgets that let small functions complete and deterministically stop
/// large ones (LevelBudget / NodeBudget are barrier-only conditions, so
/// the stopped prefix must also be byte-identical).
EnumeratorConfig cappedConfig() {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000;
  Cfg.MaxTotalNodes = 8'000;
  return Cfg;
}

TEST(ParallelEnumerator, WorkloadFunctionsIdenticalAcrossJobCounts) {
  size_t Index = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (Function &F : M.Functions) {
      const std::string Key = std::string(W.Name) + "/" + F.Name;
      EnumerationResult Seq = enumerateWithJobs(F, cappedConfig(), 1);
      expectGolden(CappedGoldens, Index++, Key, Seq);
      for (unsigned Jobs : {2u, 4u, 8u}) {
        EnumerationResult Par = enumerateWithJobs(F, cappedConfig(), Jobs);
        expectIdentical(Seq, Par, Key + " jobs=" + std::to_string(Jobs));
      }
    }
  }
  EXPECT_EQ(Index, std::size(CappedGoldens));
}

TEST(ParallelEnumerator, CompleteSpaceIdenticalAndComplete) {
  // A function whose space is exhaustively enumerable: every job count
  // must agree *and* report Complete (the budgets above may hide an
  // engine that silently stops early).
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Seq = enumerateWithJobs(F, {}, 1);
  ASSERT_EQ(Seq.Stop, StopReason::Complete);
  EXPECT_EQ(resultDigest(Seq), 0xa94141105c964e95ull);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EnumerationResult Par = enumerateWithJobs(F, {}, Jobs);
    EXPECT_EQ(Par.Stop, StopReason::Complete);
    expectIdentical(Seq, Par, "sum jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelEnumerator, NoRegisterRemappingIdentical) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg = cappedConfig();
  Cfg.RemapRegisters = false;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(resultDigest(Seq), 0x454f525bd4ce7e76ull);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "no-remap");
}

TEST(ParallelEnumerator, InjectedFaultsIdenticalAcrossJobCounts) {
  // Fault coordinates are per-phase application ordinals, precomputed in
  // frontier order, so the same application must fail, the same edge
  // must be pruned, and the same diagnostic (with the same ordinal) must
  // surface for any job count.
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("s:1,c:2,d:3", Plan));
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.Stop, StopReason::VerifierFailure);
  EXPECT_FALSE(Seq.Diagnostics.empty());
  EXPECT_EQ(resultDigest(Seq), 0x59b82ba20c6a242aull);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EnumerationResult Par = enumerateWithJobs(F, Cfg, Jobs);
    expectIdentical(Seq, Par, "faults jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelEnumerator, InjectedFaultsOnWorkloadIdentical) {
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("c:5,i:2", Plan));
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  EnumeratorConfig Cfg = cappedConfig();
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  size_t Index = 0;
  for (Function &F : M.Functions) {
    EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
    expectGolden(FaultedBitcountGoldens, Index++, F.Name, Seq);
    EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
    expectIdentical(Seq, Par, "workload faults " + F.Name);
  }
}

TEST(ParallelEnumerator, MemoryBudgetStopIdentical) {
  // MemoryBudget is checked only at barriers with deterministic
  // accounting, so even this stop must be byte-identical.
  const Workload *W = findWorkload("sha");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  Function &F = functionNamed(M, "sha_transform");
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 50'000;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.Stop, StopReason::MemoryBudget);
  EXPECT_EQ(resultDigest(Seq), 0x5c974791efd10e6eull);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "memory budget");
}

TEST(ParallelEnumerator, PreCancelledTokenStopsWithPartialResult) {
  // Deadline/Cancelled are polled per node and discard the in-flight
  // level: the stop reason and self-consistency are guaranteed, the
  // partial DAG is that of the last completed level.
  StopToken Token;
  Token.requestStop();
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.Stop = &Token;
  for (unsigned Jobs : {1u, 4u}) {
    EnumerationResult R = enumerateWithJobs(F, Cfg, Jobs);
    EXPECT_EQ(R.Stop, StopReason::Cancelled);
    EXPECT_FALSE(R.complete());
    EXPECT_GE(R.Nodes.size(), 1u);
    expectSelfConsistent(R);
  }
}

TEST(ParallelEnumerator, DeadlineStopsMidRunWithConsistentResult) {
  const Workload *W = findWorkload("sha");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  Function &F = functionNamed(M, "sha_transform");
  EnumeratorConfig Cfg;
  Cfg.DeadlineMs = 1;
  for (unsigned Jobs : {1u, 4u}) {
    EnumerationResult R = enumerateWithJobs(F, Cfg, Jobs);
    EXPECT_EQ(R.Stop, StopReason::Deadline);
    EXPECT_FALSE(R.complete());
    EXPECT_GE(R.Nodes.size(), 1u);
    expectSelfConsistent(R);
  }
}

} // namespace
