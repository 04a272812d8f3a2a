//===- sweep_determinism_test.cpp - Concurrent sweep determinism ---------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The concurrent supervisor's contract: --sweep-jobs is execution-only.
// For any job count, a sweep must produce the same report (statuses,
// attempts, stop reasons, node counts, quarantine decisions, exit code),
// byte-identical stored artifacts, and byte-identical quarantine records
// — including under injected worker crashes, where the retry ladder and
// quarantine machinery run concurrently with healthy jobs.
//
//===----------------------------------------------------------------------===//

#include "src/drive/Supervisor.h"

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/drive/ExitCodes.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/store/ArtifactStore.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;
using namespace pose::drive;
using namespace pose::testhelpers;

namespace {

// Four distinct-body functions (four distinct roots), plus the fault
// target "f" first so crash scenarios interleave with healthy workers.
const char *SweepSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
    "int g(int a,int b){return a+b+7;}"
    "int h(int x){int y=x*3;if(y>10){y=y-1;}return y;}"
    "int k(int a){int t=0;int j=a;while(j>0){t=t+j;j=j-2;}return t;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-sweepdet-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::string sourceFile(const char *Name, const char *Source) {
  std::string Path =
      ::testing::TempDir() + "pose-sweepdet-" + Name + ".mc";
  std::ofstream Out(Path, std::ios::trunc);
  Out << Source;
  return Path;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

SupervisorOptions baseOptions(const std::string &Input,
                              const std::string &StoreDir) {
  SupervisorOptions O;
  O.PosecPath = POSE_POSEC_PATH;
  O.InputPath = Input;
  O.StoreDir = StoreDir;
  O.Budget = 50'000;
  O.Retry.BaseDelayMs = 1;
  O.Retry.MaxDelayMs = 2;
  return O;
}

/// Everything observable about a job except the Detail prose (which may
/// embed the store path and therefore legitimately differs between the
/// separate stores the sweeps under comparison use).
void expectSameOutcomes(const SweepReport &A, const SweepReport &B,
                        const char *What) {
  ASSERT_EQ(A.Jobs.size(), B.Jobs.size()) << What;
  for (size_t I = 0; I != A.Jobs.size(); ++I) {
    const JobOutcome &JA = A.Jobs[I];
    const JobOutcome &JB = B.Jobs[I];
    EXPECT_EQ(JA.Func, JB.Func) << What << " job " << I;
    EXPECT_EQ(JA.Status, JB.Status)
        << What << " job " << JA.Func << ": " << JA.Detail << " vs "
        << JB.Detail;
    EXPECT_EQ(JA.Attempts, JB.Attempts) << What << " job " << JA.Func;
    EXPECT_EQ(JA.Stop, JB.Stop) << What << " job " << JA.Func;
    EXPECT_EQ(JA.Nodes, JB.Nodes) << What << " job " << JA.Func;
    EXPECT_EQ(JA.NewlyQuarantined, JB.NewlyQuarantined)
        << What << " job " << JA.Func;
  }
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.exitCode(), B.exitCode()) << What;
}

/// Byte-compares the artifact of \p Kind for every function's root
/// between two stores (missing in both is also "equal").
void expectSameArtifacts(Module &M, const std::string &DirA,
                         const std::string &DirB, store::ArtifactKind Kind,
                         const char *What) {
  store::ArtifactStore A(DirA), B(DirB);
  for (Function &F : M.Functions) {
    const HashTriple Root = canonicalize(F, false, true).Hash;
    const std::vector<uint8_t> BytesA = readFile(A.pathFor(Root, Kind));
    const std::vector<uint8_t> BytesB = readFile(B.pathFor(Root, Kind));
    EXPECT_EQ(BytesA, BytesB) << What << " fn " << F.Name;
  }
}

TEST(SweepDeterminism, CrashRecoverySweepIsIdenticalForAnyJobCount) {
  // f crashes on its first attempt and recovers on the second while g, h,
  // and k enumerate cleanly; every job count must tell the same story.
  const std::string Input = sourceFile("recover", SweepSource);
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;

  std::vector<SweepReport> Reports;
  std::vector<std::string> Stores;
  for (const uint64_t Jobs : {1u, 2u, 8u}) {
    SupervisorOptions O =
        baseOptions(Input, freshDir("recover-j" + std::to_string(Jobs)));
    O.FaultSpec = "s:1:segv";
    O.FaultFunc = "f";
    O.FaultAttempts = 1; // Attempt 1 crashes, attempt 2 is clean.
    O.Retry.MaxRetries = 2;
    O.SweepJobs = Jobs;
    Stores.push_back(O.StoreDir);
    Reports.push_back(superviseModule(PM, M, O));
    ASSERT_EQ(Reports.back().Error, "");
    ASSERT_EQ(Reports.back().Jobs.size(), 4u);
  }

  // The baseline (jobs=1) has the expected shape: f recovered, the rest
  // clean, report in function order.
  EXPECT_EQ(Reports[0].Jobs[0].Func, "f");
  EXPECT_EQ(Reports[0].Jobs[0].Status, JobStatus::Ok)
      << Reports[0].Jobs[0].Detail;
  EXPECT_EQ(Reports[0].Jobs[0].Attempts, 2u);
  for (size_t I = 1; I != 4; ++I)
    EXPECT_EQ(Reports[0].Jobs[I].Attempts, 1u)
        << Reports[0].Jobs[I].Func;
  EXPECT_EQ(Reports[0].exitCode(), ExitCode::Ok);

  expectSameOutcomes(Reports[0], Reports[1], "jobs 1 vs 2");
  expectSameOutcomes(Reports[0], Reports[2], "jobs 1 vs 8");
  for (size_t I = 1; I != Stores.size(); ++I)
    expectSameArtifacts(M, Stores[0], Stores[I],
                        store::ArtifactKind::Result, "result");
}

TEST(SweepDeterminism, QuarantineRecordsAreIdenticalForAnyJobCount) {
  // f burns its whole retry ladder crashing; the quarantine record and
  // every healthy artifact must be byte-identical across job counts.
  const std::string Input = sourceFile("quarantine", SweepSource);
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;

  std::vector<SweepReport> Reports;
  std::vector<std::string> Stores;
  for (const uint64_t Jobs : {1u, 2u, 8u}) {
    SupervisorOptions O = baseOptions(
        Input, freshDir("quarantine-j" + std::to_string(Jobs)));
    O.FaultSpec = "s:1:segv";
    O.FaultFunc = "f";
    O.Retry.MaxRetries = 1;
    O.SweepJobs = Jobs;
    Stores.push_back(O.StoreDir);
    Reports.push_back(superviseModule(PM, M, O));
    ASSERT_EQ(Reports.back().Error, "");
  }

  EXPECT_EQ(Reports[0].Jobs[0].Status, JobStatus::Degraded)
      << Reports[0].Jobs[0].Detail;
  EXPECT_TRUE(Reports[0].Jobs[0].NewlyQuarantined);
  EXPECT_EQ(Reports[0].exitCode(), ExitCode::WorkerCrash);

  expectSameOutcomes(Reports[0], Reports[1], "jobs 1 vs 2");
  expectSameOutcomes(Reports[0], Reports[2], "jobs 1 vs 8");
  for (size_t I = 1; I != Stores.size(); ++I) {
    expectSameArtifacts(M, Stores[0], Stores[I],
                        store::ArtifactKind::Result, "result");
    expectSameArtifacts(M, Stores[0], Stores[I],
                        store::ArtifactKind::Quarantine, "quarantine");
  }
}

TEST(SweepDeterminism, SameRootJobsSerializeAndHitTheCache) {
  // Two functions with identical bodies canonicalize to the same root and
  // therefore share a store key. Even at high concurrency the second must
  // wait for the first and then be served from the cache — exactly the
  // sequential outcome — instead of racing it on the artifact file.
  const char *TwinSource =
      "int a(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
      "int b(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";
  const std::string Input = sourceFile("twins", TwinSource);
  Module M = compileOrDie(TwinSource);
  ASSERT_EQ(canonicalize(functionNamed(M, "a"), false, true).Hash,
            canonicalize(functionNamed(M, "b"), false, true).Hash);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("twins"));
  O.SweepJobs = 8;

  SweepReport R = superviseModule(PM, M, O);
  ASSERT_EQ(R.Error, "");
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.Jobs[0].Func, "a");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Ok) << R.Jobs[0].Detail;
  EXPECT_EQ(R.Jobs[1].Func, "b");
  EXPECT_EQ(R.Jobs[1].Status, JobStatus::Cached) << R.Jobs[1].Detail;
  EXPECT_EQ(R.Jobs[1].Attempts, 0u);
}

TEST(SweepDeterminism, ConcurrentSweepCompletesEveryJobInOrder) {
  // Plain concurrency smoke: four healthy jobs at --sweep-jobs=4 all
  // finish Ok and the report stays in function order.
  const std::string Input = sourceFile("smoke", SweepSource);
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("smoke"));
  O.SweepJobs = 4;

  SweepReport R = superviseModule(PM, M, O);
  ASSERT_EQ(R.Error, "");
  ASSERT_EQ(R.Jobs.size(), 4u);
  const char *Expected[] = {"f", "g", "h", "k"};
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(R.Jobs[I].Func, Expected[I]);
    EXPECT_EQ(R.Jobs[I].Status, JobStatus::Ok) << R.Jobs[I].Detail;
    EXPECT_GT(R.Jobs[I].Nodes, 0u);
  }
  EXPECT_EQ(R.exitCode(), ExitCode::Ok);
}

} // namespace
