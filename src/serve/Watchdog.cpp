//===- Watchdog.cpp - posed crash/hang supervisor -------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Watchdog.h"

#include "src/drive/ExitCodes.h"
#include "src/support/Fnv.h"
#include "src/support/RetryPolicy.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pose;
using namespace pose::serve;

namespace {

/// Watchdog-side signal state. Distinct from the daemon's handlers: the
/// daemon child resets these to default before runDaemon installs its
/// own, so a signal always lands in exactly one self-pipe.
volatile sig_atomic_t WdGotTerm = 0;
volatile sig_atomic_t WdGotHup = 0;
int WdPipeWr = -1;

void onWdSignal(int Sig) {
  if (Sig == SIGHUP)
    WdGotHup = 1;
  else
    WdGotTerm = 1;
  const char B = 1;
  if (WdPipeWr >= 0) {
    const ssize_t Ignored = ::write(WdPipeWr, &B, 1);
    (void)Ignored;
  }
}

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

struct ChildOutcome {
  bool Exited = false; ///< WIFEXITED (vs. signalled / killed for hang).
  int ExitCode = 0;    ///< Valid when Exited.
  int Signal = 0;      ///< Valid when !Exited.
  bool Hung = false;   ///< Heartbeat timeout; we SIGKILLed it.
  bool TermForwarded = false; ///< Operator asked for a drain.
};

/// Waits for the daemon child to die, forwarding operator signals and
/// SIGKILLing it on heartbeat silence.
ChildOutcome monitorChild(pid_t Pid, int HbRd, uint64_t HeartbeatTimeoutMs,
                          int WdPipeRd) {
  ChildOutcome Out;
  uint64_t LastBeat = nowMs();
  for (;;) {
    int St = 0;
    const pid_t R = ::waitpid(Pid, &St, WNOHANG);
    if (R == Pid) {
      Out.Exited = WIFEXITED(St);
      Out.ExitCode = Out.Exited ? WEXITSTATUS(St) : 0;
      Out.Signal = WIFSIGNALED(St) ? WTERMSIG(St) : 0;
      return Out;
    }

    struct pollfd P[2];
    P[0] = {HbRd, POLLIN, 0};
    P[1] = {WdPipeRd, POLLIN, 0};
    ::poll(P, 2, 100);

    if (P[0].revents & POLLIN) {
      char Drain[256];
      while (::read(HbRd, Drain, sizeof(Drain)) > 0) {
      }
      LastBeat = nowMs();
    }
    if (P[1].revents & POLLIN) {
      char Drain[64];
      while (::read(WdPipeRd, Drain, sizeof(Drain)) > 0) {
      }
    }
    if (WdGotHup) {
      WdGotHup = 0;
      ::kill(Pid, SIGHUP);
    }
    if (WdGotTerm && !Out.TermForwarded) {
      Out.TermForwarded = true;
      std::fprintf(stderr,
                   "posed-watchdog: forwarding shutdown to pid %d\n",
                   static_cast<int>(Pid));
      ::kill(Pid, SIGTERM);
      // Keep monitoring: the drain still heartbeats, so a daemon that
      // wedges *during* shutdown is still caught below.
    }
    if (HeartbeatTimeoutMs != 0 && nowMs() - LastBeat > HeartbeatTimeoutMs) {
      std::fprintf(stderr,
                   "posed-watchdog: no heartbeat from pid %d for %llums; "
                   "killing\n",
                   static_cast<int>(Pid),
                   static_cast<unsigned long long>(HeartbeatTimeoutMs));
      ::kill(Pid, SIGKILL);
      int KSt = 0;
      ::waitpid(Pid, &KSt, 0);
      Out.Hung = true;
      Out.Exited = false;
      Out.Signal = SIGKILL;
      return Out;
    }
  }
}

/// Interruptible backoff sleep. Returns false when an operator
/// shutdown arrived mid-sleep (stop restarting).
bool sleepBackoff(uint64_t DelayMs, int WdPipeRd) {
  const uint64_t Until = nowMs() + DelayMs;
  for (;;) {
    if (WdGotTerm)
      return false;
    const uint64_t Now = nowMs();
    if (Now >= Until)
      return true;
    struct pollfd P = {WdPipeRd, POLLIN, 0};
    ::poll(&P, 1, static_cast<int>(Until - Now));
    if (P.revents & POLLIN) {
      char Drain[64];
      while (::read(WdPipeRd, Drain, sizeof(Drain)) > 0) {
      }
    }
  }
}

} // namespace

int pose::serve::runWatchdog(const ServeOptions &O,
                             const WatchdogOptions &W) {
  std::string Err;
  const int ListenFd = bindListeningSocket(O.SocketPath, Err);
  if (ListenFd < 0) {
    std::fprintf(stderr, "posed-watchdog: %s\n", Err.c_str());
    return drive::ExitCode::ServeSocket;
  }

  int WdPipe[2] = {-1, -1};
  if (::pipe(WdPipe) != 0) {
    std::fprintf(stderr, "posed-watchdog: pipe: %s\n",
                 std::strerror(errno));
    ::close(ListenFd);
    ::unlink(O.SocketPath.c_str());
    return drive::ExitCode::Error;
  }
  setNonBlocking(WdPipe[0]);
  setNonBlocking(WdPipe[1]);
  WdPipeWr = WdPipe[1];
  WdGotTerm = 0;
  WdGotHup = 0;

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onWdSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGHUP, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  const RetryPolicy Policy{W.MaxRestarts, /*BaseDelayMs=*/100,
                           /*MaxDelayMs=*/5'000, /*JitterPct=*/20};
  // Deterministic jitter salt: the same socket path always retries on
  // the same schedule.
  const uint64_t Salt = Fnv1a().bytes(O.SocketPath).value();

  auto Cleanup = [&] {
    ::close(ListenFd);
    ::close(WdPipe[0]);
    ::close(WdPipe[1]);
    WdPipeWr = -1;
    ::unlink(O.SocketPath.c_str());
  };

  std::fprintf(stderr,
               "posed-watchdog: holding %s (max-restarts %u, "
               "heartbeat-timeout %llums)\n",
               O.SocketPath.c_str(), W.MaxRestarts,
               static_cast<unsigned long long>(W.HeartbeatTimeoutMs));

  unsigned Failures = 0;
  for (;;) {
    int Hb[2] = {-1, -1};
    if (::pipe(Hb) != 0) {
      std::fprintf(stderr, "posed-watchdog: pipe: %s\n",
                   std::strerror(errno));
      Cleanup();
      return drive::ExitCode::Error;
    }
    setNonBlocking(Hb[0]);
    setNonBlocking(Hb[1]);

    const pid_t Pid = ::fork();
    if (Pid < 0) {
      std::fprintf(stderr, "posed-watchdog: fork: %s\n",
                   std::strerror(errno));
      ::close(Hb[0]);
      ::close(Hb[1]);
      Cleanup();
      return drive::ExitCode::Error;
    }
    if (Pid == 0) {
      // Daemon child. Same image, no exec: the listening fd and
      // heartbeat pipe ride through ServeOptions. Watchdog plumbing is
      // detached (signals back to default — runDaemon installs its
      // own; the watchdog's self-pipe closed so a stray handler could
      // never write into the parent's loop).
      ::signal(SIGTERM, SIG_DFL);
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGHUP, SIG_DFL);
      ::close(WdPipe[0]);
      ::close(WdPipe[1]);
      WdPipeWr = -1;
      ::close(Hb[0]);
      // Die with the watchdog: a SIGKILLed watchdog must not leave an
      // orphan daemon holding the socket it can no longer restart.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ServeOptions CO = O;
      CO.InheritedListenFd = ListenFd;
      CO.HeartbeatFd = Hb[1];
      CO.RestartCount = Failures;
      ::_exit(runDaemon(CO));
    }

    ::close(Hb[1]);
    std::fprintf(stderr, "posed-watchdog: daemon pid %d (restart %u)\n",
                 static_cast<int>(Pid), Failures);

    const ChildOutcome C =
        monitorChild(Pid, Hb[0], W.HeartbeatTimeoutMs, WdPipe[0]);
    ::close(Hb[0]);

    if (C.Exited && C.ExitCode == drive::ExitCode::Ok) {
      std::fprintf(stderr, "posed-watchdog: daemon drained; exiting\n");
      Cleanup();
      return drive::ExitCode::Ok;
    }
    if (C.Exited && (C.ExitCode == drive::ExitCode::Usage ||
                     C.ExitCode == drive::ExitCode::ServeSocket)) {
      // Configuration errors: the respawn would fail identically.
      std::fprintf(stderr,
                   "posed-watchdog: daemon exited %d (configuration); "
                   "not restarting\n",
                   C.ExitCode);
      Cleanup();
      return C.ExitCode;
    }
    if (C.TermForwarded) {
      // The operator asked for a drain and the daemon died some other
      // way (crash mid-drain, hang). Restarting against the operator's
      // intent would be worse than reporting the mess.
      std::fprintf(stderr,
                   "posed-watchdog: daemon died during shutdown "
                   "(%s); exiting\n",
                   C.Hung ? "hung"
                   : C.Exited
                       ? ("exit " + std::to_string(C.ExitCode)).c_str()
                       : ("signal " + std::to_string(C.Signal)).c_str());
      Cleanup();
      return drive::ExitCode::Error;
    }

    ++Failures;
    if (C.Hung)
      std::fprintf(stderr, "posed-watchdog: daemon hang #%u\n", Failures);
    else if (C.Exited)
      std::fprintf(stderr, "posed-watchdog: daemon exit %d (failure #%u)\n",
                   C.ExitCode, Failures);
    else
      std::fprintf(stderr,
                   "posed-watchdog: daemon killed by signal %d "
                   "(failure #%u)\n",
                   C.Signal, Failures);

    if (!Policy.shouldRetry(Failures)) {
      std::fprintf(stderr,
                   "posed-watchdog: restart budget of %u exhausted; "
                   "giving up (exit %d)\n",
                   W.MaxRestarts,
                   static_cast<int>(drive::ExitCode::WatchdogGaveUp));
      Cleanup();
      return drive::ExitCode::WatchdogGaveUp;
    }
    const uint64_t Delay = Policy.delayMs(Failures, Salt);
    std::fprintf(stderr, "posed-watchdog: restarting in %llums\n",
                 static_cast<unsigned long long>(Delay));
    if (!sleepBackoff(Delay, WdPipe[0])) {
      // Operator shutdown while the daemon is down: nothing to drain.
      std::fprintf(stderr, "posed-watchdog: shutdown while stopped\n");
      Cleanup();
      return drive::ExitCode::Ok;
    }
  }
}
