//===- supervisor_test.cpp - Supervised sweep tests ----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The supervisor's contract: a worker that crashes, hangs, or babbles
// costs one classified job (retried, then quarantined and degraded) and
// never the sweep; a worker that recovers within its retry budget leaves
// a result byte-identical to an uninterrupted run. The integration tests
// spawn the real posec binary (POSE_POSEC_PATH, injected by CMake) with
// crash-class fault injection.
//
//===----------------------------------------------------------------------===//

#include "src/drive/Supervisor.h"

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/drive/ExitCodes.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/store/ArtifactStore.h"
#include "src/store/StoreDriver.h"
#include "tests/common/Helpers.h"

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;
using namespace pose::drive;
using namespace pose::testhelpers;

namespace {

// Two functions: "f" (the fault target in the crash tests) and a clean
// bystander "g" that must keep enumerating no matter what happens to f.
const char *SweepSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
    "int g(int a,int b){return a+b+7;}";

std::string freshDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "pose-drive-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Writes the sweep source to a throwaway .mc file and returns its path.
std::string sourceFile(const char *Name) {
  std::string Path = ::testing::TempDir() + "pose-drive-" + Name + ".mc";
  std::ofstream Out(Path, std::ios::trunc);
  Out << SweepSource;
  return Path;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

/// Baseline options: real posec, fast retries, a store under \p Dir.
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

const JobOutcome *jobNamed(const SweepReport &R, const std::string &Func) {
  for (const JobOutcome &J : R.Jobs)
    if (J.Func == Func)
      return &J;
  return nullptr;
}

TEST(ExitCodes, StopReasonMapIsStable) {
  // Budget stops are final fingerprinted results: success.
  EXPECT_EQ(exitCodeForStop(StopReason::Complete), ExitCode::Ok);
  EXPECT_EQ(exitCodeForStop(StopReason::LevelBudget), ExitCode::Ok);
  EXPECT_EQ(exitCodeForStop(StopReason::NodeBudget), ExitCode::Ok);
  EXPECT_EQ(exitCodeForStop(StopReason::VerifierFailure),
            ExitCode::VerifyFailure);
  EXPECT_EQ(exitCodeForStop(StopReason::Deadline), ExitCode::Deadline);
  EXPECT_EQ(exitCodeForStop(StopReason::MemoryBudget),
            ExitCode::MemoryBudget);
  EXPECT_EQ(exitCodeForStop(StopReason::Cancelled), ExitCode::Cancelled);
  EXPECT_EQ(exitCodeForStop(StopReason::InternalError), ExitCode::Error);
  EXPECT_EQ(exitCodeForStop(StopReason::WorkerCrash),
            ExitCode::WorkerCrash);
}

TEST(ExitCodes, SweepSeverityPrecedence) {
  SweepReport R;
  EXPECT_EQ(R.exitCode(), ExitCode::Ok);
  JobOutcome Ok;
  Ok.Status = JobStatus::Ok;
  R.Jobs.push_back(Ok);
  EXPECT_EQ(R.exitCode(), ExitCode::Ok);

  JobOutcome Skipped;
  Skipped.Status = JobStatus::Quarantined;
  R.Jobs.push_back(Skipped);
  EXPECT_EQ(R.exitCode(), ExitCode::QuarantinedSkip);

  JobOutcome Budget;
  Budget.Status = JobStatus::Degraded;
  Budget.Stop = StopReason::Deadline;
  R.Jobs.push_back(Budget);
  EXPECT_EQ(R.exitCode(), ExitCode::Deadline);

  JobOutcome Crashed;
  Crashed.Status = JobStatus::Degraded;
  Crashed.Stop = StopReason::WorkerCrash;
  R.Jobs.push_back(Crashed);
  EXPECT_EQ(R.exitCode(), ExitCode::WorkerCrash);

  JobOutcome Failed;
  Failed.Status = JobStatus::Failed;
  R.Jobs.push_back(Failed);
  EXPECT_EQ(R.exitCode(), ExitCode::Error);

  R.Jobs.clear();
  R.Error = "store unusable";
  EXPECT_EQ(R.exitCode(), ExitCode::Error);
}

TEST(Supervisor, CleanSweepThenFullyCached) {
  const std::string Input = sourceFile("clean");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("clean"));

  SweepReport First = superviseModule(PM, M, O);
  ASSERT_EQ(First.Error, "");
  ASSERT_EQ(First.Jobs.size(), 2u);
  for (const JobOutcome &J : First.Jobs) {
    EXPECT_EQ(J.Status, JobStatus::Ok) << J.Func << ": " << J.Detail;
    EXPECT_EQ(J.Stop, StopReason::Complete) << J.Func;
    EXPECT_EQ(J.Attempts, 1u) << J.Func;
    EXPECT_GT(J.Nodes, 0u) << J.Func;
  }
  EXPECT_EQ(First.exitCode(), ExitCode::Ok);

  // Second sweep: everything served from the store, no workers spawned.
  SweepReport Second = superviseModule(PM, M, O);
  ASSERT_EQ(Second.Jobs.size(), 2u);
  for (const JobOutcome &J : Second.Jobs) {
    EXPECT_EQ(J.Status, JobStatus::Cached) << J.Func << ": " << J.Detail;
    EXPECT_EQ(J.Attempts, 0u) << J.Func;
  }
  EXPECT_EQ(Second.exitCode(), ExitCode::Ok);
}

TEST(Supervisor, AlwaysCrashingJobIsQuarantinedOthersUnaffected) {
  const std::string Input = sourceFile("crash");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("crash"));
  O.FaultSpec = "s:1:segv";
  O.FaultFunc = "f";
  O.Retry.MaxRetries = 1;

  SweepReport R = superviseModule(PM, M, O);
  ASSERT_EQ(R.Error, "");
  const JobOutcome *F = jobNamed(R, "f");
  const JobOutcome *G = jobNamed(R, "g");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(G, nullptr);

  // f burned the whole ladder crashing: MaxRetries + 1 spawns, then the
  // quarantine record and a degraded fallback result.
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Attempts, 2u);
  EXPECT_EQ(F->Stop, StopReason::WorkerCrash);
  EXPECT_TRUE(F->NewlyQuarantined);
  EXPECT_NE(F->Detail.find("signal"), std::string::npos) << F->Detail;

  // The bystander is untouched.
  EXPECT_EQ(G->Status, JobStatus::Ok) << G->Detail;
  EXPECT_EQ(G->Stop, StopReason::Complete);
  EXPECT_EQ(R.exitCode(), ExitCode::WorkerCrash);

  // The persisted record carries the crash metadata.
  store::ArtifactStore Store(O.StoreDir);
  const HashTriple Root =
      canonicalize(functionNamed(M, "f"), false, true).Hash;
  store::QuarantineRecord Q;
  std::string Err;
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  ASSERT_EQ(Store.loadQuarantine(Root, store::configFingerprint(KeyCfg), Q,
                                 Err),
            store::LoadStatus::Hit)
      << Err;
  EXPECT_EQ(Q.Failure, store::WorkerFailure::Signal);
  EXPECT_EQ(Q.Signal, SIGSEGV);
  EXPECT_EQ(Q.Attempts, 2u);

  // A later sweep skips the quarantined job with a diagnostic instead of
  // burning the retry ladder again; the clean job is served cached.
  SweepReport Again = superviseModule(PM, M, O);
  const JobOutcome *F2 = jobNamed(Again, "f");
  const JobOutcome *G2 = jobNamed(Again, "g");
  ASSERT_NE(F2, nullptr);
  ASSERT_NE(G2, nullptr);
  EXPECT_EQ(F2->Status, JobStatus::Quarantined) << F2->Detail;
  EXPECT_EQ(F2->Attempts, 0u);
  EXPECT_NE(F2->Detail.find("quarantined"), std::string::npos);
  EXPECT_EQ(G2->Status, JobStatus::Cached) << G2->Detail;
  EXPECT_EQ(Again.exitCode(), ExitCode::QuarantinedSkip);
}

TEST(Supervisor, CleanExitWithoutAStoredResultIsAProtocolFailure) {
  // The store is a worker's only report: a child that exits 0 without
  // storing the job's result (a binary that never reached the enumerator,
  // or one keying the store differently) has not finished the job.
  const std::string Input = sourceFile("protocol");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("protocol"));
  O.PosecPath = "/bin/true";
  O.Retry.MaxRetries = 1;

  SweepReport R = superviseModule(PM, M, O);
  ASSERT_EQ(R.Error, "");
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.exitCode(), ExitCode::WorkerCrash);

  store::ArtifactStore Store(O.StoreDir);
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  const uint64_t Fp = store::configFingerprint(KeyCfg);
  for (const JobOutcome &J : R.Jobs) {
    EXPECT_EQ(J.Status, JobStatus::Degraded) << J.Func << ": " << J.Detail;
    EXPECT_EQ(J.Attempts, O.Retry.MaxRetries + 1) << J.Func;
    EXPECT_NE(J.Detail.find("without storing a result"), std::string::npos)
        << J.Detail;

    const HashTriple Root =
        canonicalize(functionNamed(M, J.Func), false, true).Hash;
    store::QuarantineRecord Q;
    std::string Err;
    ASSERT_EQ(Store.loadQuarantine(Root, Fp, Q, Err), store::LoadStatus::Hit)
        << J.Func << ": " << Err;
    EXPECT_EQ(Q.Failure, store::WorkerFailure::Protocol) << J.Func;
    EXPECT_EQ(Q.ExitCode, 0) << J.Func;
    EXPECT_EQ(Q.Attempts, O.Retry.MaxRetries + 1) << J.Func;
  }
}

TEST(Supervisor, ResumableExitIsTransientOnlyWithAStoredCheckpoint) {
  // A worker that exits MemoryBudget (5) has stopped resumably only if
  // the job's partial result is in the store: f's is staged, g has none.
  const std::string Input = sourceFile("transient");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("transient"));
  O.Retry.MaxRetries = 1;
  O.PosecPath = ::testing::TempDir() + "pose-drive-exit5.sh";
  {
    std::ofstream Script(O.PosecPath, std::ios::trunc);
    Script << "#!/bin/sh\nexit 5\n";
  }
  std::filesystem::permissions(O.PosecPath,
                               std::filesystem::perms::owner_all);

  EnumeratorConfig StageCfg;
  StageCfg.MaxLevelSequences = O.Budget;
  StageCfg.MaxMemoryBytes = 20'000; // Execution-only: same fingerprint.
  store::DriveResult Staged = store::driveEnumeration(
      PM, StageCfg, functionNamed(M, "f"), O.StoreDir);
  ASSERT_TRUE(Staged.Ok) << Staged.Error;
  ASSERT_TRUE(isResumableStop(Staged.Result.Stop));

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  const JobOutcome *G = jobNamed(R, "g");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(G, nullptr);
  // f rode the retry ladder as a transient stop, then degraded to the
  // staged partial DAG without a quarantine record.
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Attempts, 2u);
  EXPECT_EQ(F->Stop, StopReason::MemoryBudget);
  EXPECT_EQ(F->Nodes, Staged.Result.Nodes.size());
  EXPECT_FALSE(F->NewlyQuarantined);
  EXPECT_NE(F->Detail.find("memory-budget (checkpoint saved)"),
            std::string::npos)
      << F->Detail;
  // g's exit promised a partial result the store does not hold: a bad
  // exit.
  EXPECT_EQ(G->Status, JobStatus::Degraded) << G->Detail;
  EXPECT_EQ(G->Stop, StopReason::WorkerCrash);
  EXPECT_TRUE(G->NewlyQuarantined);
  EXPECT_NE(G->Detail.find("worker exited 5"), std::string::npos)
      << G->Detail;
  EXPECT_EQ(R.exitCode(), ExitCode::WorkerCrash);
}

TEST(Supervisor, SweepDeadlineBoundsTheWorkerInFlightAndTheJobsAfterIt) {
  // Every worker would sleep for a minute. The sweep's deadline, not the
  // per-worker kill timer, must end f's worker, refuse its retry, and
  // degrade g without spawning it.
  const std::string Input = sourceFile("deadline");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("deadline"));
  O.PosecPath = ::testing::TempDir() + "pose-drive-sleep.sh";
  {
    std::ofstream Script(O.PosecPath, std::ios::trunc);
    Script << "#!/bin/sh\nsleep 60\n";
  }
  std::filesystem::permissions(O.PosecPath,
                               std::filesystem::perms::owner_all);
  O.SweepDeadlineMs = 500;
  O.Retry.MaxRetries = 5;

  const auto Start = std::chrono::steady_clock::now();
  SweepReport R = superviseModule(PM, M, O);
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(30));
  const JobOutcome *F = jobNamed(R, "f");
  const JobOutcome *G = jobNamed(R, "g");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Attempts, 1u) << F->Detail;
  EXPECT_NE(F->Detail.find("kill timer"), std::string::npos) << F->Detail;
  EXPECT_EQ(G->Status, JobStatus::Degraded) << G->Detail;
  EXPECT_EQ(G->Attempts, 0u);
  EXPECT_EQ(G->Stop, StopReason::Deadline);
  EXPECT_NE(G->Detail.find("sweep deadline exhausted"), std::string::npos)
      << G->Detail;
}

TEST(Supervisor, SweepDeadlineKillIsNotQuarantined) {
  // A worker killed because the sweep ran out of time never had a fair
  // run: the job degrades as a Deadline stop, writes no quarantine
  // record, and the next sweep without a deadline runs it normally.
  const std::string Input = sourceFile("deadline-noq");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("deadline-noq"));
  O.PosecPath = ::testing::TempDir() + "pose-drive-sleep-noq.sh";
  {
    std::ofstream Script(O.PosecPath, std::ios::trunc);
    Script << "#!/bin/sh\nsleep 60\n";
  }
  std::filesystem::permissions(O.PosecPath,
                               std::filesystem::perms::owner_all);
  O.SweepDeadlineMs = 500;

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Stop, StopReason::Deadline) << F->Detail;
  EXPECT_FALSE(F->NewlyQuarantined) << F->Detail;
  EXPECT_EQ(R.exitCode(), ExitCode::Deadline);

  store::ArtifactStore Store(O.StoreDir);
  const HashTriple Root =
      canonicalize(functionNamed(M, "f"), false, true).Hash;
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  store::QuarantineRecord Q;
  std::string Err;
  EXPECT_EQ(Store.loadQuarantine(Root, store::configFingerprint(KeyCfg), Q,
                                 Err),
            store::LoadStatus::Miss)
      << Err;

  SweepReport Again = superviseModule(PM, M, baseOptions(Input, O.StoreDir));
  const JobOutcome *F2 = jobNamed(Again, "f");
  ASSERT_NE(F2, nullptr);
  EXPECT_EQ(F2->Status, JobStatus::Ok) << F2->Detail;
}

/// Writes a fake worker that appends its command line to \p Log and exits
/// 1, and returns its path.
std::string recordingWorker(const char *Name, const std::string &Log) {
  const std::string Path =
      ::testing::TempDir() + "pose-drive-" + Name + ".sh";
  {
    std::ofstream Script(Path, std::ios::trunc);
    Script << "#!/bin/sh\necho \"$@\" >> '" << Log << "'\nexit 1\n";
  }
  std::filesystem::permissions(Path, std::filesystem::perms::owner_all);
  return Path;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

TEST(Supervisor, SweepDeadlineReachesTheWorkerAsItsOwnDeadline) {
  // Where the sweep's deadline comes before the per-worker timeout, each
  // worker gets the time left as its own --deadline-ms, so it can stop at
  // a level barrier and save a checkpoint rather than be killed.
  const std::string Input = sourceFile("deadline-argv");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  const std::string Log =
      ::testing::TempDir() + "pose-drive-deadline-argv.log";
  std::filesystem::remove(Log);
  SupervisorOptions O = baseOptions(Input, freshDir("deadline-argv"));
  O.PosecPath = recordingWorker("deadline-argv", Log);
  O.Retry.MaxRetries = 0;
  O.SweepDeadlineMs = 20'000;
  superviseModule(PM, M, O);
  std::vector<std::string> Lines = readLines(Log);
  ASSERT_EQ(Lines.size(), 2u); // f and g, one attempt each.
  for (const std::string &L : Lines) {
    const size_t At = L.find("--deadline-ms=");
    ASSERT_NE(At, std::string::npos) << L;
    const uint64_t N = std::stoull(L.substr(At + 14));
    EXPECT_GT(N, 0u) << L;
    EXPECT_LE(N, O.SweepDeadlineMs) << L;
  }

  // A per-worker timeout shorter than the time left binds instead: the
  // worker gets no deadline of its own.
  std::filesystem::remove(Log);
  O.StoreDir = freshDir("deadline-argv-timer");
  O.WorkerTimeoutMs = 10'000;
  superviseModule(PM, M, O);
  Lines = readLines(Log);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines)
    EXPECT_EQ(L.find("--deadline-ms"), std::string::npos) << L;
}

// One function whose space takes far longer to enumerate than the sweep
// deadline below: 1643 nodes under these options, about 0.1 s in a
// release build.
const char *BigSource =
    "int crc_table[256];int nibble_table[16];"
    "void make_crc_table(){int n;for(n=0;n<256;n=n+1){int c=n;int k;"
    "for(k=0;k<8;k=k+1){if(c&1)c=0xEDB88320^(c>>>1);else c=c>>>1;}"
    "crc_table[n]=c;}for(n=0;n<16;n=n+1)nibble_table[n]=crc_table[n*16];}";

TEST(Supervisor, SweepDeadlineKeepsThePartialDagForTheNextSweep) {
  // The real worker cut short by the sweep's deadline stores its partial
  // DAG, so the job degrades to it instead of a batch compile,
  // and the next sweep, without a deadline, resumes it to the full space.
  const std::string Input = ::testing::TempDir() + "pose-drive-big.mc";
  {
    std::ofstream Out(Input, std::ios::trunc);
    Out << BigSource;
  }
  Module M = compileOrDie(BigSource);
  const Function &F = functionNamed(M, "make_crc_table");
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("deadline-partial"));
  O.SweepDeadlineMs = 25;
  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *J = jobNamed(R, "make_crc_table");
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->Status, JobStatus::Degraded) << J->Detail;
  EXPECT_EQ(J->Stop, StopReason::Deadline) << J->Detail;
  EXPECT_FALSE(J->NewlyQuarantined) << J->Detail;
  EXPECT_NE(J->Detail.find("partial DAG from checkpoint"), std::string::npos)
      << J->Detail;

  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = O.Budget;
  const EnumerationResult Whole = Enumerator(PM, Cfg).enumerate(F);
  EXPECT_LT(J->Nodes, Whole.Nodes.size());
  store::ArtifactStore Store(O.StoreDir);
  EnumerationResult Partial;
  std::string Err;
  ASSERT_EQ(Store.loadResult(canonicalize(F, false, true).Hash,
                             store::configFingerprint(Cfg), Partial, Err),
            store::LoadStatus::Hit)
      << Err;
  EXPECT_EQ(Partial.Stop, StopReason::Deadline);
  EXPECT_EQ(Partial.Nodes.size(), J->Nodes);

  SweepReport Again = superviseModule(PM, M, baseOptions(Input, O.StoreDir));
  const JobOutcome *J2 = jobNamed(Again, "make_crc_table");
  ASSERT_NE(J2, nullptr);
  EXPECT_EQ(J2->Status, JobStatus::Ok) << J2->Detail;
  EXPECT_EQ(J2->Stop, Whole.Stop) << J2->Detail;
  EXPECT_EQ(J2->Nodes, Whole.Nodes.size()) << J2->Detail;
}

TEST(Supervisor, HangingWorkerIsKilledAndClassifiedAsTimeout) {
  const std::string Input = sourceFile("hang");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("hang"));
  O.FaultSpec = "s:1:hang";
  O.FaultFunc = "f";
  O.Retry.MaxRetries = 0;
  O.WorkerTimeoutMs = 500;

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Attempts, 1u);
  EXPECT_TRUE(F->NewlyQuarantined);

  store::ArtifactStore Store(O.StoreDir);
  const HashTriple Root =
      canonicalize(functionNamed(M, "f"), false, true).Hash;
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  store::QuarantineRecord Q;
  std::string Err;
  ASSERT_EQ(Store.loadQuarantine(Root, store::configFingerprint(KeyCfg), Q,
                                 Err),
            store::LoadStatus::Hit)
      << Err;
  EXPECT_EQ(Q.Failure, store::WorkerFailure::Timeout);
}

TEST(Supervisor, CrashTwiceThenSucceedMatchesUninterruptedRun) {
  // The retry ladder's headline guarantee: a worker that SIGSEGVs on its
  // first two attempts and completes on the third leaves the exact bytes
  // an uninterrupted run leaves (crash faults are execution-only and
  // excluded from the store fingerprint).
  const std::string Input = sourceFile("retry");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;

  SupervisorOptions Clean = baseOptions(Input, freshDir("retry-clean"));
  SweepReport CleanRun = superviseModule(PM, M, Clean);
  ASSERT_EQ(CleanRun.exitCode(), ExitCode::Ok);

  SupervisorOptions O = baseOptions(Input, freshDir("retry-faulted"));
  O.FaultSpec = "s:1:segv";
  O.FaultFunc = "f";
  O.FaultAttempts = 2; // Attempts 1 and 2 crash; attempt 3 is clean.
  O.Retry.MaxRetries = 2;

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Ok) << F->Detail;
  EXPECT_EQ(F->Attempts, 3u);
  EXPECT_EQ(F->Stop, StopReason::Complete);
  EXPECT_FALSE(F->NewlyQuarantined);
  EXPECT_EQ(R.exitCode(), ExitCode::Ok);

  // Byte-identical stored artifact, and no lingering quarantine record.
  const HashTriple Root =
      canonicalize(functionNamed(M, "f"), false, true).Hash;
  store::ArtifactStore CleanStore(Clean.StoreDir);
  store::ArtifactStore FaultStore(O.StoreDir);
  const std::vector<uint8_t> A =
      readFile(CleanStore.pathFor(Root, store::ArtifactKind::Result));
  const std::vector<uint8_t> B =
      readFile(FaultStore.pathFor(Root, store::ArtifactKind::Result));
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  store::QuarantineRecord Q;
  std::string Err;
  EXPECT_EQ(FaultStore.loadQuarantine(Root, store::configFingerprint(KeyCfg),
                                      Q, Err),
            store::LoadStatus::Miss);
}

TEST(Supervisor, DegradedJobFallsBackToNewestCheckpoint) {
  // Stage a partial result the way a budget-stopped run would, then make
  // every supervised attempt crash *after* its progress point:
  // degradation must surface the stored partial DAG, not the
  // batch-compile fallback.
  const std::string Input = sourceFile("ckpt");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("ckpt"));
  O.Retry.MaxRetries = 0;

  EnumeratorConfig StageCfg;
  StageCfg.MaxLevelSequences = O.Budget;
  StageCfg.MaxMemoryBytes = 20'000; // Execution-only: same fingerprint.
  store::DriveResult Staged = store::driveEnumeration(
      PM, StageCfg, functionNamed(M, "f"), O.StoreDir);
  ASSERT_TRUE(Staged.Ok) << Staged.Error;
  ASSERT_EQ(Staged.Result.Stop, StopReason::MemoryBudget);

  // Pick a coordinate past the stop: a resume numbers applications on
  // from the partial DAG's attempted masks, so the (N+1)-th CSE
  // application happens post-resume.
  const HashTriple Root =
      canonicalize(functionNamed(M, "f"), false, true).Hash;
  EnumeratorConfig KeyCfg;
  KeyCfg.MaxLevelSequences = O.Budget;
  store::ArtifactStore Store(O.StoreDir);
  EnumerationResult Partial;
  std::string Err;
  ASSERT_EQ(Store.loadResult(Root, store::configFingerprint(KeyCfg), Partial,
                             Err),
            store::LoadStatus::Hit)
      << Err;
  uint64_t Nth = 1;
  for (const DagNode &Nd : Partial.Nodes)
    Nth += (Nd.AttemptedMask >> static_cast<int>(PhaseId::Cse)) & 1;
  const std::string Spec = "c:" + std::to_string(Nth) + ":segv";
  O.FaultSpec = Spec;
  O.FaultFunc = "f";

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Stop, StopReason::WorkerCrash);
  EXPECT_EQ(F->Nodes, Partial.Nodes.size());
  EXPECT_NE(F->Detail.find("checkpoint"), std::string::npos) << F->Detail;
}

TEST(Supervisor, RejectedStoredPartialIsNamedInTheJobDetail) {
  // A worker that exits Deadline (4) promises a stored partial result.
  // When the one in the store fails validation, the job's detail says so
  // on both paths that read it: the bad exit and the batch-compile
  // fallback.
  const std::string Input = sourceFile("rejected");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  SupervisorOptions O = baseOptions(Input, freshDir("rejected"));
  O.Retry.MaxRetries = 0;
  O.PosecPath = ::testing::TempDir() + "pose-drive-exit4.sh";
  {
    std::ofstream Script(O.PosecPath, std::ios::trunc);
    Script << "#!/bin/sh\nexit 4\n";
  }
  std::filesystem::permissions(O.PosecPath,
                               std::filesystem::perms::owner_all);

  EnumeratorConfig StageCfg;
  StageCfg.MaxLevelSequences = O.Budget;
  StageCfg.MaxMemoryBytes = 20'000; // Execution-only: same fingerprint.
  store::DriveResult Staged = store::driveEnumeration(
      PM, StageCfg, functionNamed(M, "f"), O.StoreDir);
  ASSERT_TRUE(Staged.Ok) << Staged.Error;
  ASSERT_TRUE(isResumableStop(Staged.Result.Stop));
  const std::string Path = store::ArtifactStore(O.StoreDir)
                               .pathFor(Staged.Root,
                                        store::ArtifactKind::Result);
  {
    std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
    File.seekp(-1, std::ios::end);
    File.put('\xFF');
  }

  SweepReport R = superviseModule(PM, M, O);
  const JobOutcome *F = jobNamed(R, "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Status, JobStatus::Degraded) << F->Detail;
  EXPECT_EQ(F->Stop, StopReason::WorkerCrash) << F->Detail;
  EXPECT_EQ(F->Nodes, 0u) << F->Detail;
  EXPECT_NE(F->Detail.find("worker exited 4 (stored result rejected: "),
            std::string::npos)
      << F->Detail;
  EXPECT_NE(F->Detail.find(") (stored result rejected: "), std::string::npos)
      << "the batch-compile fallback names the rejection too: "
      << F->Detail;
  EXPECT_NE(F->Detail.find("payload checksum mismatch"), std::string::npos)
      << F->Detail;
}

} // namespace
