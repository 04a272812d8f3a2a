//===- checkpoint_test.cpp - Checkpoint/resume byte-identity tests -------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The resume contract: an enumeration stopped by a transient limit
// (Deadline, MemoryBudget, Cancelled) and continued from its checkpoint —
// in the same process or after a serialize/deserialize round trip through
// the store — produces a final result byte-identical to an uninterrupted
// run, for any mix of job counts across the sessions. "Byte-identical" is
// enforced literally: both results are serialized with the store codec
// and the byte strings compared.
//
//===----------------------------------------------------------------------===//

#include "src/store/StoreDriver.h"

#include "src/store/ByteIo.h"
#include "src/store/Serialize.h"

#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

std::vector<uint8_t> resultBytes(const EnumerationResult &R) {
  ByteWriter W;
  store::encodeResult(W, R);
  return W.take();
}

void expectByteIdentical(const EnumerationResult &A,
                         const EnumerationResult &B, const std::string &What) {
  EXPECT_EQ(resultBytes(A), resultBytes(B)) << What;
  // Redundant with the byte compare, but gives readable failures.
  EXPECT_EQ(A.Nodes.size(), B.Nodes.size()) << What;
  EXPECT_EQ(A.Stop, B.Stop) << What;
  EXPECT_EQ(A.AttemptedPhases, B.AttemptedPhases) << What;
  EXPECT_EQ(A.ApproxMemoryBytes, B.ApproxMemoryBytes) << What;
  EXPECT_EQ(A.Diagnostics.size(), B.Diagnostics.size()) << What;
}

EnumerationResult cleanRun(const Function &F, EnumeratorConfig Cfg,
                           unsigned Jobs) {
  Cfg.Jobs = Jobs;
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  return E.enumerate(F);
}

/// Round-trips \p Cp through the binary codec, proving the persisted form
/// carries everything resume needs.
EnumerationCheckpoint throughCodec(const EnumerationCheckpoint &Cp) {
  ByteWriter W;
  store::encode(W, Cp);
  ByteReader R(W.bytes());
  EnumerationCheckpoint Out;
  EXPECT_TRUE(store::decode(R, Out));
  EXPECT_TRUE(R.atEnd());
  return Out;
}

/// Runs to the first stop under \p StartBudget bytes of memory, then
/// repeatedly resumes with the budget raised by \p Step until the run no
/// longer checkpoints. Every intermediate checkpoint crosses the codec.
/// \p ResumeJobs rotates through the job counts used for the resume legs.
EnumerationResult resumeLadder(const Function &F, EnumeratorConfig Base,
                               uint64_t StartBudget, uint64_t Step,
                               unsigned FirstJobs,
                               std::vector<unsigned> ResumeJobs,
                               int &Interruptions) {
  PhaseManager PM;
  EnumeratorConfig Cfg = Base;
  Cfg.Jobs = FirstJobs;
  Cfg.MaxMemoryBytes = StartBudget;
  EnumerationCheckpoint Cp;
  EnumerationResult R;
  {
    Enumerator E(PM, Cfg);
    R = E.enumerate(F, &Cp);
  }
  Interruptions = 0;
  size_t Leg = 0;
  while (Cp.Valid) {
    if (++Interruptions > 100) {
      ADD_FAILURE() << "resume ladder did not converge";
      break;
    }
    EnumerationCheckpoint From = throughCodec(Cp);
    Cp = EnumerationCheckpoint();
    Cfg.MaxMemoryBytes += Step;
    Cfg.Jobs = ResumeJobs[Leg++ % ResumeJobs.size()];
    Enumerator E(PM, Cfg);
    R = E.resume(F, std::move(From), &Cp);
  }
  return R;
}

TEST(CheckpointResume, SequentialMemoryLadderIsByteIdentical) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Clean = cleanRun(F, {}, 1);
  ASSERT_TRUE(Clean.complete());

  int Interruptions = 0;
  EnumerationResult Resumed =
      resumeLadder(F, {}, 20'000, 20'000, 1, {1}, Interruptions);
  ASSERT_GE(Interruptions, 1) << "budget too generous to test resume";
  expectByteIdentical(Clean, Resumed, "sequential ladder");
}

TEST(CheckpointResume, ParallelMemoryLadderIsByteIdentical) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Clean = cleanRun(F, {}, 1);

  int Interruptions = 0;
  EnumerationResult Resumed =
      resumeLadder(F, {}, 20'000, 20'000, 4, {4}, Interruptions);
  ASSERT_GE(Interruptions, 1);
  expectByteIdentical(Clean, Resumed, "parallel ladder");
}

TEST(CheckpointResume, MixedJobCountsAcrossSessionsAreByteIdentical) {
  // A checkpoint written at one job count must resume under another: the
  // saved state is barrier state, which no job count changes.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Clean = cleanRun(F, {}, 1);

  int Interruptions = 0;
  EnumerationResult SeqThenPar =
      resumeLadder(F, {}, 20'000, 20'000, 1, {4, 1, 8}, Interruptions);
  ASSERT_GE(Interruptions, 1);
  expectByteIdentical(Clean, SeqThenPar, "jobs 1 -> {4,1,8}");

  EnumerationResult ParThenSeq =
      resumeLadder(F, {}, 20'000, 20'000, 4, {1, 4}, Interruptions);
  ASSERT_GE(Interruptions, 1);
  expectByteIdentical(Clean, ParThenSeq, "jobs 4 -> {1,4}");
}

TEST(CheckpointResume, BudgetCappedWorkloadReachesTheSameVerdict) {
  // A space too large for its node budget: the clean run ends with a
  // (deterministic, barrier-only) NodeBudget verdict. The
  // interrupted-and-resumed run must reach the exact same verdict and
  // partial DAG — a resume must not change the meaning of a budget stop.
  // The cap is calibrated from the full space so it trips near the end,
  // after the memory ladder has had room to interrupt.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Full = cleanRun(F, {}, 1);
  ASSERT_TRUE(Full.complete());
  ASSERT_GT(Full.Nodes.size(), 20u);
  EnumeratorConfig Capped;
  Capped.MaxTotalNodes = Full.Nodes.size() - 10;
  EnumerationResult Clean = cleanRun(F, Capped, 1);
  ASSERT_EQ(Clean.Stop, StopReason::NodeBudget);
  ASSERT_FALSE(isResumableStop(Clean.Stop));

  int Interruptions = 0;
  EnumerationResult Resumed =
      resumeLadder(F, Capped, 20'000, 20'000, 4, {1, 4}, Interruptions);
  ASSERT_GE(Interruptions, 1);
  expectByteIdentical(Clean, Resumed, "node-capped f");
}

TEST(CheckpointResume, InjectedFaultCoordinatesSurviveResume) {
  // Fault applications are numbered in frontier order across the whole
  // run; the checkpoint carries the counters so an injection scheduled
  // after the interruption still fires on the same application.
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("s:1,c:2,d:3", Plan));
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  EnumerationResult Clean = cleanRun(F, Cfg, 1);
  ASSERT_FALSE(Clean.Diagnostics.empty());

  int Interruptions = 0;
  EnumerationResult Resumed =
      resumeLadder(F, Cfg, 20'000, 20'000, 1, {4, 1}, Interruptions);
  ASSERT_GE(Interruptions, 1);
  expectByteIdentical(Clean, Resumed, "fault ladder");
  ASSERT_EQ(Resumed.Diagnostics.size(), Clean.Diagnostics.size());
  for (size_t I = 0; I != Clean.Diagnostics.size(); ++I)
    EXPECT_EQ(Resumed.Diagnostics[I].Application,
              Clean.Diagnostics[I].Application);
}

TEST(CheckpointResume, CancelledRunResumesToTheIdenticalResult) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Clean = cleanRun(F, {}, 1);

  for (unsigned Jobs : {1u, 4u}) {
    StopToken Token;
    Token.requestStop();
    EnumeratorConfig Cfg;
    Cfg.Stop = &Token;
    Cfg.Jobs = Jobs;
    PhaseManager PM;
    Enumerator E(PM, Cfg);
    EnumerationCheckpoint Cp;
    EnumerationResult Partial = E.enumerate(F, &Cp);
    ASSERT_EQ(Partial.Stop, StopReason::Cancelled);
    ASSERT_TRUE(Cp.Valid);

    EnumeratorConfig Free;
    Free.Jobs = Jobs;
    Enumerator E2(PM, Free);
    EnumerationResult Resumed =
        E2.resume(F, throughCodec(Cp), nullptr);
    expectByteIdentical(Clean, Resumed,
                        "cancelled jobs=" + std::to_string(Jobs));
  }
}

TEST(CheckpointResume, DeadlineInterruptionsResumeToTheIdenticalResult) {
  // The acceptance scenario: a run stopped by --deadline-ms, resumed until
  // done, must equal the uninterrupted run — at jobs 1 and 4. A deadline
  // discards the level in flight, so it doubles each leg until one fits:
  // even a slow CI machine converges.
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  EnumeratorConfig Capped;
  Capped.MaxLevelSequences = 1'000;
  Capped.MaxTotalNodes = 8'000;
  for (Function &F : M.Functions) {
    EnumerationResult Clean = cleanRun(F, Capped, 1);
    for (unsigned Jobs : {1u, 4u}) {
      PhaseManager PM;
      EnumeratorConfig Cfg = Capped;
      Cfg.Jobs = Jobs;
      Cfg.DeadlineMs = 2;
      EnumerationCheckpoint Cp;
      EnumerationResult R;
      {
        Enumerator E(PM, Cfg);
        R = E.enumerate(F, &Cp);
      }
      int Legs = 0;
      while (Cp.Valid && Legs < 64) {
        ++Legs;
        EnumerationCheckpoint From = throughCodec(Cp);
        Cp = EnumerationCheckpoint();
        Cfg.DeadlineMs *= 2;
        Enumerator E(PM, Cfg);
        R = E.resume(F, std::move(From), &Cp);
      }
      ASSERT_FALSE(Cp.Valid) << "deadline ladder did not converge";
      expectByteIdentical(Clean, R,
                          F.Name + " deadline jobs=" + std::to_string(Jobs));
    }
  }
}

TEST(CheckpointResume, NonResumableStopsLeaveNoCheckpoint) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.MaxTotalNodes = 10; // NodeBudget: a verdict, not an interruption.
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  EnumerationCheckpoint Cp;
  EnumerationResult R = E.enumerate(F, &Cp);
  EXPECT_EQ(R.Stop, StopReason::NodeBudget);
  EXPECT_FALSE(Cp.Valid);
}

TEST(StoreDriver, CachesResumesAndReuses) {
  std::string Dir = ::testing::TempDir() + "pose-store-driver";
  std::filesystem::remove_all(Dir);
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  EnumerationResult Clean = cleanRun(F, {}, 1);

  // Leg 1: a memory budget interrupts; the driver saves a checkpoint.
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 20'000;
  store::DriveResult D1 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D1.Ok) << D1.Error;
  ASSERT_EQ(D1.Result.Stop, StopReason::MemoryBudget);
  ASSERT_TRUE(D1.CheckpointSaved);
  EXPECT_EQ(D1.Source, store::DriveSource::Fresh);

  // Leg 2 without --resume: the checkpoint is ignored, the fresh run is
  // interrupted again (resuming is opt-in).
  store::DriveResult D2 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D2.Ok) << D2.Error;
  EXPECT_EQ(D2.Source, store::DriveSource::Fresh);

  // Leg 3 with --resume and room to finish: completes, byte-identical to
  // the clean run, and the result is cached.
  Cfg.MaxMemoryBytes = 0;
  store::DriveResult D3 = store::driveEnumeration(PM, Cfg, F, Dir, true);
  ASSERT_TRUE(D3.Ok) << D3.Error;
  EXPECT_EQ(D3.Source, store::DriveSource::Resumed);
  EXPECT_FALSE(D3.CheckpointSaved);
  expectByteIdentical(Clean, D3.Result, "driver resumed");

  // Leg 4: served from the cache without enumerating.
  store::DriveResult D4 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D4.Ok) << D4.Error;
  EXPECT_EQ(D4.Source, store::DriveSource::Cached);
  expectByteIdentical(Clean, D4.Result, "driver cached");
}

TEST(StoreDriver, StaleArtifactIsRejectedAndRegenerated) {
  std::string Dir = ::testing::TempDir() + "pose-store-stale";
  std::filesystem::remove_all(Dir);
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;

  EnumeratorConfig Cfg;
  store::DriveResult D1 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D1.Ok) << D1.Error;
  ASSERT_TRUE(D1.Result.complete());

  // Corrupt the stored result on disk; the next drive must reject it
  // (with a note), re-enumerate, and overwrite it with a good artifact.
  store::ArtifactStore Store(Dir);
  std::string Path = Store.pathFor(D1.Root, store::ArtifactKind::Result);
  {
    std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
    File.seekp(-1, std::ios::end);
    File.put('\xFF');
  }
  store::DriveResult D2 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D2.Ok) << D2.Error;
  EXPECT_EQ(D2.Source, store::DriveSource::Fresh);
  ASSERT_FALSE(D2.RejectionNotes.empty());
  EXPECT_NE(D2.RejectionNotes[0].find("payload checksum mismatch"),
            std::string::npos);

  store::DriveResult D3 = store::driveEnumeration(PM, Cfg, F, Dir, false);
  ASSERT_TRUE(D3.Ok) << D3.Error;
  EXPECT_EQ(D3.Source, store::DriveSource::Cached);
  expectByteIdentical(D1.Result, D3.Result, "regenerated artifact");
}

} // namespace
