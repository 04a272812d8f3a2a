//===- serialize_test.cpp - Binary codec round-trip tests ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The store codecs promise exact round trips: decode(encode(X)) == X for
// function instances, enumeration results, and checkpoints. Because the
// encoding is canonical (one byte string per value), exactness is proved
// by re-encoding the decoded value and comparing bytes. The decoders also
// promise strictness: truncated input, out-of-range enums, and oversized
// length prefixes are rejected, never crashed on.
//
//===----------------------------------------------------------------------===//

#include "src/store/Serialize.h"

#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

std::vector<uint8_t> encodedFunction(const Function &F) {
  ByteWriter W;
  store::encode(W, F);
  return W.take();
}

TEST(Serialize, FunctionRoundTripIsExact) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  std::vector<uint8_t> Bytes = encodedFunction(F);

  ByteReader R(Bytes);
  Function G;
  ASSERT_TRUE(store::decode(R, G));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(encodedFunction(G), Bytes);
  EXPECT_EQ(G.Name, F.Name);
  EXPECT_EQ(G.instructionCount(), F.instructionCount());
  EXPECT_EQ(G.pseudoLimit(), F.pseudoLimit());
  EXPECT_EQ(G.labelLimit(), F.labelLimit());
}

TEST(Serialize, OptimizedFunctionRoundTripKeepsStateAndCounters) {
  // An instance mid-enumeration carries phase state and allocation
  // counters that recomputeCounters() cannot reconstruct; the codec must
  // carry them verbatim or a resumed run would hand out different fresh
  // registers than the original.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  PM.applySequence(F, "sck");
  std::vector<uint8_t> Bytes = encodedFunction(F);

  ByteReader R(Bytes);
  Function G;
  ASSERT_TRUE(store::decode(R, G));
  EXPECT_EQ(G.State.RegsAssigned, F.State.RegsAssigned);
  EXPECT_EQ(G.State.RegAllocDone, F.State.RegAllocDone);
  EXPECT_EQ(G.pseudoLimit(), F.pseudoLimit());
  EXPECT_EQ(G.labelLimit(), F.labelLimit());
  EXPECT_EQ(encodedFunction(G), Bytes);
}

TEST(Serialize, ResultRoundTripIsExact) {
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult Res = E.enumerate(functionNamed(M, "f"));
  ASSERT_TRUE(Res.complete());
  ASSERT_GT(Res.Nodes.size(), 1u);

  ByteWriter W;
  store::encodeResult(W, Res);
  ByteReader R(W.bytes());
  EnumerationResult Out;
  ASSERT_TRUE(store::decodeResult(R, Out));
  EXPECT_TRUE(R.atEnd());

  ByteWriter W2;
  store::encodeResult(W2, Out);
  EXPECT_EQ(W2.bytes(), W.bytes());
  EXPECT_EQ(Out.Nodes.size(), Res.Nodes.size());
  EXPECT_EQ(Out.Stop, Res.Stop);
  EXPECT_EQ(Out.AttemptedPhases, Res.AttemptedPhases);
}

TEST(Serialize, ResultWithDiagnosticsRoundTrips) {
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("s:1", Plan));
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  Enumerator E(PM, Cfg);
  EnumerationResult Res = E.enumerate(functionNamed(M, "f"));
  ASSERT_FALSE(Res.Diagnostics.empty());

  ByteWriter W;
  store::encodeResult(W, Res);
  ByteReader R(W.bytes());
  EnumerationResult Out;
  ASSERT_TRUE(store::decodeResult(R, Out));
  ASSERT_EQ(Out.Diagnostics.size(), Res.Diagnostics.size());
  EXPECT_EQ(Out.Diagnostics[0].Message, Res.Diagnostics[0].Message);
  EXPECT_EQ(Out.Diagnostics[0].Application, Res.Diagnostics[0].Application);
  EXPECT_EQ(Out.Diagnostics[0].Injected, Res.Diagnostics[0].Injected);
}

TEST(Serialize, CheckpointRoundTripIsExact) {
  // A real checkpoint from a memory-budget stop, so every field of the
  // struct is exercised.
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 20'000;
  Enumerator E(PM, Cfg);
  EnumerationCheckpoint Cp;
  EnumerationResult Res = E.enumerate(functionNamed(M, "f"), &Cp);
  ASSERT_EQ(Res.Stop, StopReason::MemoryBudget);
  ASSERT_TRUE(Cp.Valid);
  ASSERT_FALSE(Cp.Frontier.empty());

  ByteWriter W;
  store::encode(W, Cp);
  ByteReader R(W.bytes());
  EnumerationCheckpoint Out;
  ASSERT_TRUE(store::decode(R, Out));
  EXPECT_TRUE(R.atEnd());

  ByteWriter W2;
  store::encode(W2, Out);
  EXPECT_EQ(W2.bytes(), W.bytes());
  EXPECT_EQ(Out.LevelCounter, Cp.LevelCounter);
  EXPECT_EQ(Out.FrontierBytes, Cp.FrontierBytes);
  EXPECT_EQ(Out.Frontier.size(), Cp.Frontier.size());
  for (int P = 0; P != NumPhases; ++P)
    EXPECT_EQ(Out.AppCount[P], Cp.AppCount[P]);
}

TEST(Serialize, TruncatedInputAlwaysRejected) {
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult Res = E.enumerate(functionNamed(M, "f"));
  ByteWriter W;
  store::encodeResult(W, Res);
  const std::vector<uint8_t> &Bytes = W.bytes();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    ByteReader R(Bytes.data(), Len);
    EnumerationResult Out;
    EXPECT_FALSE(store::decodeResult(R, Out)) << "prefix length " << Len;
  }
}

TEST(Serialize, OutOfRangeEnumsRejected) {
  // A frontier-path phase id >= NumPhases must fail, not index out of
  // bounds later.
  ByteWriter W;
  W.u8(NumPhases); // Invalid PhaseId in a one-entry path.
  {
    ByteReader R(W.bytes());
    PhaseId P;
    (void)P;
    EnumerationResult Out;
    EXPECT_FALSE(store::decodeResult(R, Out));
  }
  // An out-of-range stop reason.
  Module M = compileOrDie(SumSource);
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult Res = E.enumerate(functionNamed(M, "f"));
  ByteWriter WR;
  store::encodeResult(WR, Res);
  std::vector<uint8_t> Bytes = WR.take();
  // The stop-reason byte directly follows the node array; find it by
  // decoding up to it is fragile, so instead corrupt the node count to a
  // value larger than the buffer — the count guard must reject it before
  // allocating.
  std::vector<uint8_t> Huge = Bytes;
  for (int I = 0; I != 8; ++I)
    Huge[I] = 0xFF;
  ByteReader R(Huge);
  EnumerationResult Out;
  EXPECT_FALSE(store::decodeResult(R, Out));
}

TEST(Serialize, QuarantineRoundTripIsExact) {
  store::QuarantineRecord Q;
  Q.Failure = store::WorkerFailure::Timeout;
  Q.Signal = 9;
  Q.ExitCode = 0;
  Q.Attempts = 3;
  Q.Message = "worker timed out after 200 ms";
  ByteWriter W;
  store::encode(W, Q);
  ByteReader R(W.bytes());
  store::QuarantineRecord Out;
  ASSERT_TRUE(store::decode(R, Out));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Out.Failure, Q.Failure);
  EXPECT_EQ(Out.Signal, Q.Signal);
  EXPECT_EQ(Out.ExitCode, Q.ExitCode);
  EXPECT_EQ(Out.Attempts, Q.Attempts);
  EXPECT_EQ(Out.Message, Q.Message);
  // Canonical encoding: re-encoding the decoded value is byte-identical.
  ByteWriter W2;
  store::encode(W2, Out);
  EXPECT_EQ(W.bytes(), W2.bytes());
}

TEST(Serialize, QuarantineStrictness) {
  store::QuarantineRecord Q;
  Q.Failure = store::WorkerFailure::Signal;
  Q.Signal = 11;
  Q.Attempts = 2;
  Q.Message = "segfault";
  ByteWriter W;
  store::encode(W, Q);
  const std::vector<uint8_t> &Bytes = W.bytes();
  // Every truncated prefix is rejected.
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    ByteReader R(Bytes.data(), Len);
    store::QuarantineRecord Out;
    EXPECT_FALSE(store::decode(R, Out)) << "prefix length " << Len;
  }
  // An out-of-range failure kind (first byte) is rejected.
  std::vector<uint8_t> Bad = Bytes;
  Bad[0] = 0xFF;
  ByteReader R(Bad);
  store::QuarantineRecord Out;
  EXPECT_FALSE(store::decode(R, Out));
}

TEST(ByteIo, ReaderIsBoundedAndLatching) {
  ByteWriter W;
  W.u32(7);
  ByteReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(R.u64(), 0u); // Overrun: zero, and the failure latches.
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u8(), 0u);
  EXPECT_FALSE(R.ok());
}

TEST(ByteIo, OversizedLengthPrefixRejectedBeforeAllocation) {
  ByteWriter W;
  W.u64(UINT64_MAX); // A string "longer" than any buffer.
  ByteReader R(W.bytes());
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
}

TEST(ByteIo, ScalarsRoundTrip) {
  ByteWriter W;
  W.u8(0xAB);
  W.u16(0xCDEF);
  W.u32(0xDEADBEEF);
  W.u64(0x0123456789ABCDEFull);
  W.i32(-42);
  W.str("hello");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u16(), 0xCDEF);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i32(), -42);
  EXPECT_EQ(R.str(), "hello");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

} // namespace
