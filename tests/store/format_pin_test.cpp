//===- format_pin_test.cpp - Byte-for-byte pin of every encoded format ----===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The round-trip tests prove decode(encode(X)) == X, which cannot see a
// field that moved on both the encode and the decode side at once. This
// test pins the bytes themselves: every artifact kind the store persists,
// every posed payload, the configuration fingerprints that key the store,
// and the shard assignment of every suite root. Each group is pinned by
// its item count, total encoded size and CRC-32.
//
// A format change that is meant to happen bumps kFormatVersion (or
// kStatsVersion for the stats payload) and re-records the affected rows
// from this test's failure output.
//
//===----------------------------------------------------------------------===//

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/drive/Supervisor.h"
#include "src/opt/PhaseManager.h"
#include "src/sem/Equivalence.h"
#include "src/serve/Protocol.h"
#include "src/store/ArtifactStore.h"
#include "src/store/Serialize.h"
#include "src/support/Crc32.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

/// One pinned group: how many items were encoded, their total size, and
/// the CRC-32 of their concatenation.
struct Pin {
  uint64_t Items = 0;
  ByteWriter Bytes;

  void add(const std::vector<uint8_t> &B) {
    ++Items;
    for (uint8_t X : B)
      Bytes.u8(X);
  }
};

void expectPin(const char *Name, const Pin &P, uint64_t Items, uint64_t Size,
               uint32_t Crc) {
  const uint32_t Got = crc32(P.Bytes.bytes());
  EXPECT_EQ(P.Items, Items) << Name;
  EXPECT_EQ(P.Bytes.bytes().size(), Size) << Name;
  EXPECT_EQ(Got, Crc) << Name << ": recorded {" << P.Items << ", "
                      << P.Bytes.bytes().size() << ", 0x" << std::hex << Got
                      << "}";
}

template <class T> std::vector<uint8_t> encoded(const T &X) {
  ByteWriter W;
  store::encode(W, X);
  return W.take();
}

TEST(FormatPin, EveryEncodedFormatIsByteIdenticalToItsRecording) {
  PhaseManager PM;
  const EnumeratorConfig Cfg;
  EnumeratorConfig Budgeted;
  Budgeted.MaxMemoryBytes = 20'000;

  Pin Instances, Results, Checkpoints, Equivs, Shards;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      Instances.add(encoded(F));

      Enumerator E(PM, Cfg);
      const EnumerationResult R = E.enumerate(F);
      Results.add(encoded(R));

      Enumerator EB(PM, Budgeted);
      EnumerationCheckpoint Cp;
      EB.enumerate(F, &Cp);
      if (Cp.Valid)
        Checkpoints.add(encoded(Cp));

      if (R.Nodes.size() < 60)
        Equivs.add(encoded(
            sem::computeEquivalence(M, F, PM, R, sem::EquivInputs())));

      const HashTriple Root = canonicalize(F, false, true).Hash;
      ByteWriter S;
      for (uint64_t N = 2; N <= 8; ++N)
        S.u8(static_cast<uint8_t>(drive::shardOfRoot(Root, N)));
      Shards.add(S.bytes());
    }
  }

  Pin Quarantine;
  store::QuarantineRecord Q;
  Q.Failure = store::WorkerFailure::Timeout;
  Q.Signal = 9;
  Q.ExitCode = -3;
  Q.Attempts = 4;
  Q.Message = "worker timed out after 200 ms";
  Quarantine.add(encoded(Q));

  Pin Posed;
  serve::RunRequest Run;
  Run.Id = 0x0102030405060708ull;
  Run.Args = {"--workload=bitcount", "--enumerate=bit_count", ""};
  Posed.add(serve::encodeRunRequest(Run));
  serve::RunResponse Resp;
  Resp.Id = 77;
  Resp.Served = serve::ServedFrom::Coalesced;
  Resp.ExitCode = -2;
  Resp.Stdout = "285\n";
  Resp.Stderr = "note: reusing cached DAG\n";
  Posed.add(serve::encodeRunResponse(Resp));
  serve::ErrorResponse Err;
  Err.Id = 5;
  Err.Code = serve::ErrorCode::Overloaded;
  Err.Message = "queue full";
  Err.RetryAfterMs = 250;
  Posed.add(serve::encodeErrorResponse(Err));
  serve::StatsReport Stats;
  uint64_t *Counters[] = {
      &Stats.Requests, &Stats.Computed,     &Stats.Coalesced,
      &Stats.CacheHits, &Stats.Errors,      &Stats.Clients,
      &Stats.Running,  &Stats.Queued,       &Stats.Shed,
      &Stats.ReadTimeouts, &Stats.Restarts, &Stats.Reloads,
      &Stats.ReloadsRejected, &Stats.SockFaults};
  uint64_t Next = 1;
  for (uint64_t *C : Counters)
    *C = Next++ * 0x1000000001ull;
  Posed.add(serve::encodeStatsReport(Stats));

  Pin Fingerprints;
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("s:3,k:1:wrongcode,c:2:segv", Plan));
  EnumeratorConfig Faulted;
  Faulted.VerifyIr = true;
  Faulted.Faults = &Plan;
  for (const EnumeratorConfig &C : {Cfg, Faulted}) {
    ByteWriter Fp;
    Fp.u64(store::configFingerprint(C));
    Fp.u64(store::equivFingerprint(store::configFingerprint(C),
                                   sem::kDefaultVectorSeed,
                                   sem::kDefaultVectorCount));
    Fingerprints.add(Fp.bytes());
  }

  expectPin("instances", Instances, 67, 130332, 0x723b515);
  expectPin("results", Results, 67, 827249, 0xafe9905f);
  expectPin("checkpoints", Checkpoints, 38, 599206, 0xd0eaa637);
  expectPin("equivalence records", Equivs, 33, 16002, 0x5c6b4ee3);
  expectPin("quarantine record", Quarantine, 1, 50, 0xd0906537);
  expectPin("posed payloads", Posed, 4, 383, 0x96e01e79);
  expectPin("config fingerprints", Fingerprints, 2, 32, 0xc6bbcef5);
  expectPin("shard assignments", Shards, 67, 469, 0xb2128853);
}

} // namespace
