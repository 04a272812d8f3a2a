//===- quarantine_cli_test.cpp - posec quarantine operator surface --------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the standalone quarantine modes, driving the real
// posec binary: --list-quarantine prints persisted records without
// running a sweep, --clear-quarantine removes them, and a cleared
// function is retried (not skipped) by the next supervised sweep.
//
//===----------------------------------------------------------------------===//

#include "src/support/Subprocess.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;

namespace {

const char *Source =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
    "int g(int a,int b){return a+b+7;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-qcli-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::string sourceFile(const char *Name) {
  std::string Path = ::testing::TempDir() + "pose-qcli-" + Name + ".mc";
  std::ofstream Out(Path, std::ios::trunc);
  Out << Source;
  return Path;
}

SubprocessResult runPosec(std::vector<std::string> Args) {
  SubprocessSpec Spec;
  Spec.Argv.push_back(POSE_POSEC_PATH);
  for (std::string &A : Args)
    Spec.Argv.push_back(std::move(A));
  Spec.TimeoutMs = 60'000;
  return runSubprocess(Spec);
}

/// Sweeps with f crashing until its single-attempt ladder is exhausted,
/// leaving a persisted quarantine record for f (and a clean result for g).
void quarantineF(const std::string &Input, const std::string &Store) {
  SubprocessResult R = runPosec({Input, "--supervise", "--store=" + Store,
                                 "--budget=2000", "--inject-fault=s:1:segv",
                                 "--fault-func=f", "--max-retries=1"});
  ASSERT_EQ(R.Kind, ExitKind::Exited) << R.Error;
  ASSERT_EQ(R.ExitCode, 7) << R.Stderr; // WorkerCrash: f was quarantined.
}

TEST(QuarantineCli, EmptyStoreListsNothing) {
  const std::string Input = sourceFile("empty");
  SubprocessResult R = runPosec(
      {Input, "--list-quarantine", "--store=" + freshDir("empty")});
  ASSERT_EQ(R.Kind, ExitKind::Exited) << R.Error;
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("no quarantined jobs"), std::string::npos)
      << R.Stdout;
}

TEST(QuarantineCli, ListShowsPersistedRecordWithoutSweeping) {
  const std::string Input = sourceFile("list");
  const std::string Store = freshDir("list");
  quarantineF(Input, Store);

  // Quarantine records are keyed by the enumerator configuration (like
  // stored results and --analyze-store), so the listing passes the same
  // budget the sweep ran under.
  SubprocessResult R = runPosec(
      {Input, "--list-quarantine", "--store=" + Store, "--budget=2000"});
  ASSERT_EQ(R.Kind, ExitKind::Exited) << R.Error;
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  // --max-retries=1 is one retry on top of the initial attempt.
  EXPECT_NE(R.Stdout.find("quarantined after 2 attempt(s)"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("f"), std::string::npos) << R.Stdout;
  // g enumerated cleanly and must not be listed as quarantined.
  EXPECT_EQ(R.Stdout.find("g "), std::string::npos) << R.Stdout;
}

TEST(QuarantineCli, ListRequiresAStore) {
  const std::string Input = sourceFile("nostore");
  SubprocessResult R = runPosec({Input, "--list-quarantine"});
  ASSERT_EQ(R.Kind, ExitKind::Exited) << R.Error;
  EXPECT_EQ(R.ExitCode, 2) << R.Stderr; // Usage.
}

TEST(QuarantineCli, ClearedFunctionIsRetriedByTheNextSweep) {
  const std::string Input = sourceFile("clear");
  const std::string Store = freshDir("clear");
  quarantineF(Input, Store);

  // Without clearing, a fault-free re-sweep still skips f (exit 8).
  SubprocessResult Skip = runPosec(
      {Input, "--supervise", "--store=" + Store, "--budget=2000"});
  ASSERT_EQ(Skip.Kind, ExitKind::Exited) << Skip.Error;
  EXPECT_EQ(Skip.ExitCode, 8) << Skip.Stderr; // QuarantinedSkip.

  SubprocessResult Clear = runPosec(
      {Input, "--clear-quarantine", "--store=" + Store, "--budget=2000"});
  ASSERT_EQ(Clear.Kind, ExitKind::Exited) << Clear.Error;
  EXPECT_EQ(Clear.ExitCode, 0) << Clear.Stderr;
  EXPECT_NE(Clear.Stdout.find("cleared"), std::string::npos)
      << Clear.Stdout;

  // The record is gone...
  SubprocessResult List = runPosec(
      {Input, "--list-quarantine", "--store=" + Store, "--budget=2000"});
  ASSERT_EQ(List.Kind, ExitKind::Exited) << List.Error;
  EXPECT_NE(List.Stdout.find("no quarantined jobs"), std::string::npos)
      << List.Stdout;

  // ...and a healthy re-sweep now enumerates f instead of skipping it.
  SubprocessResult Retry = runPosec(
      {Input, "--supervise", "--store=" + Store, "--budget=2000"});
  ASSERT_EQ(Retry.Kind, ExitKind::Exited) << Retry.Error;
  EXPECT_EQ(Retry.ExitCode, 0) << Retry.Stderr << Retry.Stdout;
}

} // namespace
