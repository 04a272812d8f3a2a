//===- subprocess_test.cpp - Sandboxed child process tests ----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace pose;

namespace {

SubprocessResult runSh(const std::string &Script, uint64_t TimeoutMs = 0) {
  SubprocessSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", Script};
  Spec.TimeoutMs = TimeoutMs;
  return runSubprocess(Spec);
}

TEST(Subprocess, CapturesStdoutAndExitCode) {
  SubprocessResult R = runSh("echo out; echo err 1>&2; exit 0");
  EXPECT_EQ(R.Kind, ExitKind::Exited);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Stdout, "out\n");
  EXPECT_EQ(R.Stderr, "err\n");
}

TEST(Subprocess, NonzeroExitIsExitedNotError) {
  SubprocessResult R = runSh("exit 42");
  EXPECT_EQ(R.Kind, ExitKind::Exited);
  EXPECT_EQ(R.ExitCode, 42);
  EXPECT_FALSE(R.ok());
}

TEST(Subprocess, DeathBySignalIsClassified) {
  SubprocessResult R = runSh("kill -SEGV $$");
  EXPECT_EQ(R.Kind, ExitKind::Signalled);
  EXPECT_EQ(R.Signal, SIGSEGV);
  EXPECT_FALSE(R.ok());
}

TEST(Subprocess, HangIsKilledByTheTimer) {
  const auto Start = std::chrono::steady_clock::now();
  SubprocessResult R = runSh("sleep 30", /*TimeoutMs=*/200);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(R.Kind, ExitKind::TimedOut);
  EXPECT_EQ(R.Signal, SIGKILL);
  EXPECT_FALSE(R.ok());
  // The call returns promptly after the kill; it must not sit out the
  // child's full sleep waiting for a pipe EOF.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            10);
}

TEST(Subprocess, KilledWorkersChildrenDoNotStallTheDrain) {
  // The child forks its own children, all inheriting the pipe write
  // ends. The kill timer must take down the whole process group — an
  // orphan holding the pipes open would otherwise stall the caller for
  // the orphan's full lifetime.
  const auto Start = std::chrono::steady_clock::now();
  SubprocessResult R = runSh("sleep 30 & sleep 30", /*TimeoutMs=*/200);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(R.Kind, ExitKind::TimedOut);
  EXPECT_EQ(R.Signal, SIGKILL);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            10);
}

TEST(Subprocess, SpawnFailureIsReportedNotConfusedWithExit) {
  SubprocessSpec Spec;
  Spec.Argv = {"/nonexistent/definitely-not-a-program"};
  SubprocessResult R = runSubprocess(Spec);
  EXPECT_EQ(R.Kind, ExitKind::SpawnFailed);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_FALSE(R.ok());
}

TEST(Subprocess, LargeOutputDoesNotDeadlock) {
  // More than a pipe buffer on both streams: the poll()-driven drain must
  // keep both flowing.
  SubprocessResult R = runSh("i=0; while [ $i -lt 3000 ]; do "
                             "echo 0123456789012345678901234567890123456789; "
                             "echo e0123456789012345678901234567890123456789 "
                             "1>&2; i=$((i+1)); done");
  EXPECT_EQ(R.Kind, ExitKind::Exited);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout.size(), 3000u * 41u);
  EXPECT_EQ(R.Stderr.size(), 3000u * 42u);
}

SubprocessSpec shSpec(const std::string &Script, uint64_t TimeoutMs = 0) {
  SubprocessSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", Script};
  Spec.TimeoutMs = TimeoutMs;
  return Spec;
}

/// Drains \p Pool until \p Count results arrived (failing the test on a
/// stuck pool rather than hanging it).
std::vector<std::pair<SubprocessPool::JobId, SubprocessResult>>
drainPool(SubprocessPool &Pool, size_t Count) {
  std::vector<std::pair<SubprocessPool::JobId, SubprocessResult>> All;
  while (All.size() < Count) {
    auto Done = Pool.wait(10'000);
    if (Done.empty()) {
      ADD_FAILURE() << "pool wait timed out with " << All.size() << "/"
                    << Count << " results";
      break;
    }
    for (auto &P : Done)
      All.push_back(std::move(P));
  }
  return All;
}

TEST(SubprocessPool, RunsChildrenConcurrently) {
  SubprocessPool Pool;
  const auto Start = std::chrono::steady_clock::now();
  Pool.spawn(shSpec("sleep 0.4; echo done"));
  Pool.spawn(shSpec("sleep 0.4; echo done"));
  EXPECT_EQ(Pool.live(), 2u);
  auto All = drainPool(Pool, 2);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  ASSERT_EQ(All.size(), 2u);
  for (auto &P : All) {
    EXPECT_TRUE(P.second.ok()) << P.second.Error;
    EXPECT_EQ(P.second.Stdout, "done\n");
  }
  EXPECT_EQ(Pool.live(), 0u);
  EXPECT_TRUE(Pool.idle());
  // Two sequential 0.4s sleeps would need at least 0.8s; concurrent ones
  // fit comfortably under that.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            700);
}

TEST(SubprocessPool, HugeKillTimerNeverFires) {
  // --worker-timeout-ms accepts up to 2^64-1; that timer must mean "far
  // away", not wrap into the past and kill the child at once.
  SubprocessPool Pool;
  SubprocessSpec Spec;
  Spec.Argv = {"/bin/true"};
  Spec.TimeoutMs = UINT64_MAX;
  Pool.spawn(Spec);
  auto All = drainPool(Pool, 1);
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].second.Kind, ExitKind::Exited);
  EXPECT_EQ(All[0].second.ExitCode, 0);
}

TEST(SubprocessPool, FastChildIsDeliveredBeforeSlowSibling) {
  SubprocessPool Pool;
  Pool.spawn(shSpec("sleep 0.6"));
  const SubprocessPool::JobId Fast = Pool.spawn(shSpec("echo hi"));
  auto First = Pool.wait(10'000);
  ASSERT_FALSE(First.empty());
  bool SawFast = false;
  for (auto &P : First)
    SawFast |= P.first == Fast;
  EXPECT_TRUE(SawFast) << "fast child not in the first completion batch";
  drainPool(Pool, 2 - First.size());
}

TEST(SubprocessPool, MixedOutcomesAreClassifiedIndependently) {
  SubprocessPool Pool;
  const SubprocessPool::JobId Ok = Pool.spawn(shSpec("echo fine"));
  const SubprocessPool::JobId Sig = Pool.spawn(shSpec("kill -SEGV $$"));
  const SubprocessPool::JobId Hung =
      Pool.spawn(shSpec("sleep 30", /*TimeoutMs=*/300));
  SubprocessSpec Bad;
  Bad.Argv = {"/nonexistent/definitely-not-a-program"};
  const SubprocessPool::JobId Spawn = Pool.spawn(Bad);
  EXPECT_EQ(Pool.live(), 3u); // The failed spawn never became a child.

  auto All = drainPool(Pool, 4);
  ASSERT_EQ(All.size(), 4u);
  for (auto &P : All) {
    const SubprocessResult &R = P.second;
    if (P.first == Ok) {
      EXPECT_EQ(R.Kind, ExitKind::Exited);
      EXPECT_EQ(R.Stdout, "fine\n");
    } else if (P.first == Sig) {
      EXPECT_EQ(R.Kind, ExitKind::Signalled);
      EXPECT_EQ(R.Signal, SIGSEGV);
    } else if (P.first == Hung) {
      EXPECT_EQ(R.Kind, ExitKind::TimedOut);
      EXPECT_EQ(R.Signal, SIGKILL);
    } else if (P.first == Spawn) {
      EXPECT_EQ(R.Kind, ExitKind::SpawnFailed);
      EXPECT_FALSE(R.Error.empty());
    } else {
      ADD_FAILURE() << "unknown job id";
    }
  }
}

TEST(SubprocessPool, WaitTimesOutEmptyWithoutDroppingChildren) {
  SubprocessPool Pool;
  Pool.spawn(shSpec("sleep 0.4; echo late"));
  auto Early = Pool.wait(30);
  EXPECT_TRUE(Early.empty());
  EXPECT_EQ(Pool.live(), 1u);
  auto All = drainPool(Pool, 1);
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].second.Stdout, "late\n");
}

TEST(SubprocessPool, DestructorKillsLiveChildren) {
  const auto Start = std::chrono::steady_clock::now();
  {
    SubprocessPool Pool;
    Pool.spawn(shSpec("sleep 30"));
    Pool.spawn(shSpec("sleep 30"));
  }
  // The destructor SIGKILLs and reaps; it must not sit out the sleeps.
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            10);
}

TEST(Subprocess, ExitKindNamesAreStable) {
  EXPECT_STREQ(exitKindName(ExitKind::Exited), "exited");
  EXPECT_STREQ(exitKindName(ExitKind::Signalled), "signalled");
  EXPECT_STREQ(exitKindName(ExitKind::TimedOut), "timed-out");
  EXPECT_STREQ(exitKindName(ExitKind::SpawnFailed), "spawn-failed");
  EXPECT_STREQ(exitKindName(ExitKind::PollFailed), "poll-failed");
}

TEST(SubprocessPool, PollFailureIsItsOwnFailureClassNotATimeout) {
  SubprocessPool Pool;
  Pool.spawn(shSpec("sleep 30"));
  Pool.spawn(shSpec("sleep 30"));

  // Four pipe fds are in the poll set; dropping RLIMIT_NOFILE below that
  // makes poll() itself fail with EINVAL. Before the fix this surfaced as
  // a bogus per-child TimedOut; it must be the distinct PollFailed class
  // carrying the errno text.
  struct rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  struct rlimit Tiny = Old;
  Tiny.rlim_cur = 3;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Tiny), 0);
  auto All = Pool.wait(5'000);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Old), 0);

  ASSERT_EQ(All.size(), 2u);
  for (auto &P : All) {
    EXPECT_EQ(P.second.Kind, ExitKind::PollFailed);
    EXPECT_NE(P.second.Error.find("poll"), std::string::npos)
        << P.second.Error;
    EXPECT_FALSE(P.second.Error.empty());
  }
  // Every child was killed and reaped on the way out.
  EXPECT_EQ(Pool.live(), 0u);
  EXPECT_TRUE(Pool.idle());
}

TEST(SubprocessPool, KillTerminatesARunningJobPromptly) {
  SubprocessPool Pool;
  const SubprocessPool::JobId Id = Pool.spawn(shSpec("sleep 30"));
  EXPECT_FALSE(Pool.kill(Id + 999)); // Unknown id.

  const auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Pool.kill(Id));
  auto All = drainPool(Pool, 1);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            10);

  // The killed job still funnels through wait(), as a kill-classified
  // result the caller can drop.
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].first, Id);
  EXPECT_EQ(All[0].second.Kind, ExitKind::TimedOut);
  EXPECT_EQ(All[0].second.Signal, SIGKILL);
  EXPECT_FALSE(Pool.kill(Id)); // Already completed.
}

TEST(SubprocessPool, ExternalFdReadinessWakesWaitWithNoChildren) {
  SubprocessPool Pool;
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_EQ(::write(Fds[1], "x", 1), 1);

  std::vector<ExternalFd> Ext(1);
  Ext[0].Fd = Fds[0];
  Ext[0].Events = POLLIN;
  const auto Start = std::chrono::steady_clock::now();
  auto Out = Pool.wait(10'000, &Ext);
  const auto Elapsed = std::chrono::steady_clock::now() - Start;

  // Woken by the external fd, long before the timeout, with no children
  // at all — the pool can serve as a server's sole blocking point.
  EXPECT_TRUE(Out.empty());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(Elapsed).count(),
            5);
  EXPECT_NE(Ext[0].Revents & POLLIN, 0);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(SubprocessPool, QuietExternalFdTimesOutWithReventsClear) {
  SubprocessPool Pool;
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::vector<ExternalFd> Ext(1);
  Ext[0].Fd = Fds[0];
  Ext[0].Events = POLLIN;
  Ext[0].Revents = POLLIN; // Stale value; wait() must clear it.
  auto Out = Pool.wait(60, &Ext);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(Ext[0].Revents, 0);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(SubprocessPool, ChildCompletionsStillFlowWhileWatchingExternalFds) {
  SubprocessPool Pool;
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0); // Never written: stays quiet.
  const SubprocessPool::JobId Id = Pool.spawn(shSpec("echo via-ext"));
  std::vector<ExternalFd> Ext(1);
  Ext[0].Fd = Fds[0];
  Ext[0].Events = POLLIN;

  std::vector<std::pair<SubprocessPool::JobId, SubprocessResult>> All;
  for (int Round = 0; Round != 200 && All.empty(); ++Round) {
    auto Out = Pool.wait(100, &Ext);
    All.insert(All.end(), Out.begin(), Out.end());
  }
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].first, Id);
  EXPECT_EQ(All[0].second.Stdout, "via-ext\n");
  EXPECT_EQ(Ext[0].Revents, 0);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

} // namespace
