//===- Subprocess.cpp - Sandboxed child process execution ---------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Subprocess.h"

#include "src/support/StopToken.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pose;

namespace {

using Clock = std::chrono::steady_clock;

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Reaps \p Pid, blocking, retrying across EINTR.
int awaitChild(pid_t Pid) {
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  return Status;
}

/// Non-blocking reap attempt; returns waitpid's pid-or-zero, EINTR-safe.
pid_t tryReap(pid_t Pid, int &Status) {
  pid_t Got;
  while ((Got = ::waitpid(Pid, &Status, WNOHANG)) < 0 && errno == EINTR) {
  }
  return Got;
}

/// After a kill, how long an idle pipe is granted before we stop waiting
/// for EOF: the dead tree's buffered output arrives immediately, and an
/// orphan that escaped the process group (changed its own pgid) must not
/// stall the pool. Each successful read restarts the window.
constexpr uint64_t kGraceIdleMs = 50;

} // namespace

const char *pose::exitKindName(ExitKind K) {
  switch (K) {
  case ExitKind::Exited:
    return "exited";
  case ExitKind::Signalled:
    return "signalled";
  case ExitKind::TimedOut:
    return "timed-out";
  case ExitKind::SpawnFailed:
    return "spawn-failed";
  case ExitKind::PollFailed:
    return "poll-failed";
  }
  return "?";
}

/// One live child: its pipes, its kill timer, and the result being
/// accumulated. The pool owns the pid until the child is reaped.
struct SubprocessPool::Child {
  JobId Id = 0;
  pid_t Pid = -1;
  int OutFd = -1;
  int ErrFd = -1;
  SubprocessResult R;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
  bool Killed = false;
  Clock::time_point GraceDeadline{};
};

// Out-of-line where Child is complete: the header's vector<Child> member
// only works with an incomplete Child if nothing touching the vector is
// inline.
SubprocessPool::SubprocessPool() = default;

size_t SubprocessPool::live() const { return Children.size(); }

bool SubprocessPool::idle() const {
  return Children.empty() && Ready.empty();
}

SubprocessPool::~SubprocessPool() {
  for (Child &C : Children) {
    ::kill(-C.Pid, SIGKILL);
    ::kill(C.Pid, SIGKILL);
    closeFd(C.OutFd);
    closeFd(C.ErrFd);
    awaitChild(C.Pid);
  }
}

SubprocessPool::JobId SubprocessPool::spawn(const SubprocessSpec &Spec) {
  const JobId Id = NextId++;
  SubprocessResult R;

  auto Fail = [&](std::string Error) {
    R.Kind = ExitKind::SpawnFailed;
    R.Error = std::move(Error);
    Ready.emplace_back(Id, std::move(R));
    return Id;
  };

  if (Spec.Argv.empty())
    return Fail("empty argv");

  // Three pipes: child stdout, child stderr, and a CLOEXEC status pipe
  // that distinguishes "exec failed" from "child ran and exited" — a
  // successful exec closes the write end, a failed one writes errno.
  int OutPipe[2] = {-1, -1}, ErrPipe[2] = {-1, -1}, ExecPipe[2] = {-1, -1};
  if (::pipe(OutPipe) != 0 || ::pipe(ErrPipe) != 0 || ::pipe(ExecPipe) != 0) {
    const int E = errno;
    closeFd(OutPipe[0]);
    closeFd(OutPipe[1]);
    closeFd(ErrPipe[0]);
    closeFd(ErrPipe[1]);
    closeFd(ExecPipe[0]);
    closeFd(ExecPipe[1]);
    return Fail(std::string("pipe: ") + std::strerror(E));
  }
  ::fcntl(ExecPipe[1], F_SETFD, FD_CLOEXEC);

  const pid_t Pid = ::fork();
  if (Pid < 0) {
    const int E = errno;
    closeFd(OutPipe[0]);
    closeFd(OutPipe[1]);
    closeFd(ErrPipe[0]);
    closeFd(ErrPipe[1]);
    closeFd(ExecPipe[0]);
    closeFd(ExecPipe[1]);
    return Fail(std::string("fork: ") + std::strerror(E));
  }

  if (Pid == 0) {
    // Child: lead a fresh process group (so the kill timer can SIGKILL
    // the whole tree, not just the immediate child), wire the pipes,
    // apply the address-space cap, exec. Only async-signal-safe calls
    // from here on. Inherited read ends of sibling children's pipes are
    // harmless: they are read ends, so they cannot hold a sibling's EOF
    // hostage.
    ::setpgid(0, 0);
    ::dup2(OutPipe[1], STDOUT_FILENO);
    ::dup2(ErrPipe[1], STDERR_FILENO);
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    ::close(ExecPipe[0]);
    if (Spec.MemoryLimitBytes != 0) {
      struct rlimit RL;
      RL.rlim_cur = Spec.MemoryLimitBytes;
      RL.rlim_max = Spec.MemoryLimitBytes;
      ::setrlimit(RLIMIT_AS, &RL);
    }
    std::vector<char *> Argv;
    Argv.reserve(Spec.Argv.size() + 1);
    for (const std::string &A : Spec.Argv)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    const int ExecErrno = errno;
    ssize_t Ignored = ::write(ExecPipe[1], &ExecErrno, sizeof(ExecErrno));
    (void)Ignored;
    ::_exit(127);
  }

  // Parent. Mirror the child's setpgid — whichever side runs first wins,
  // both agree on the group id.
  ::setpgid(Pid, Pid);
  closeFd(OutPipe[1]);
  closeFd(ErrPipe[1]);
  closeFd(ExecPipe[1]);

  // The status pipe resolves quickly either way: EOF on successful exec
  // (CLOEXEC), an errno value on failure. This is the only blocking read
  // in spawn(), and it is bounded by the exec itself.
  int ExecErrno = 0;
  ssize_t N;
  while ((N = ::read(ExecPipe[0], &ExecErrno, sizeof(ExecErrno))) < 0 &&
         errno == EINTR) {
  }
  closeFd(ExecPipe[0]);
  if (N == static_cast<ssize_t>(sizeof(ExecErrno))) {
    awaitChild(Pid);
    closeFd(OutPipe[0]);
    closeFd(ErrPipe[0]);
    return Fail("cannot exec '" + Spec.Argv[0] +
                "': " + std::strerror(ExecErrno));
  }

  Child C;
  C.Id = Id;
  C.Pid = Pid;
  C.OutFd = OutPipe[0];
  C.ErrFd = ErrPipe[0];
  C.HasDeadline = Spec.TimeoutMs != 0;
  if (C.HasDeadline)
    C.Deadline = deadlineAfterMs(Spec.TimeoutMs);
  Children.push_back(std::move(C));
  return Id;
}

bool SubprocessPool::kill(JobId Id) {
  for (Child &C : Children) {
    if (C.Id != Id)
      continue;
    if (!C.Killed) {
      ::kill(-C.Pid, SIGKILL);
      ::kill(C.Pid, SIGKILL);
      C.Killed = true;
      C.GraceDeadline = Clock::now() + std::chrono::milliseconds(kGraceIdleMs);
    }
    return true;
  }
  return false;
}

std::vector<std::pair<SubprocessPool::JobId, SubprocessResult>>
SubprocessPool::wait(uint64_t MaxWaitMs) {
  return wait(MaxWaitMs, nullptr);
}

std::vector<std::pair<SubprocessPool::JobId, SubprocessResult>>
SubprocessPool::wait(uint64_t MaxWaitMs, std::vector<ExternalFd> *External) {
  std::vector<std::pair<JobId, SubprocessResult>> Out;
  std::swap(Out, Ready);
  if (External)
    for (ExternalFd &E : *External)
      E.Revents = 0;

  const Clock::time_point WaitDeadline =
      Clock::now() + std::chrono::milliseconds(MaxWaitMs);
  bool Expired = false;
  char Chunk[4096];

  for (;;) {
    const Clock::time_point Now = Clock::now();

    // Fire kill timers, and force-close the pipes of killed children
    // whose grace window ran out without producing data.
    for (Child &C : Children) {
      if (!C.Killed && C.HasDeadline && Now >= C.Deadline) {
        // Nuke the whole process group: a worker's own children must not
        // survive it (they would hold the pipe write ends open).
        ::kill(-C.Pid, SIGKILL);
        ::kill(C.Pid, SIGKILL);
        C.Killed = true;
        C.GraceDeadline = Now + std::chrono::milliseconds(kGraceIdleMs);
      }
      if (C.Killed && Now >= C.GraceDeadline) {
        closeFd(C.OutFd);
        closeFd(C.ErrFd);
      }
    }

    // Reap children whose pipes are fully closed. WNOHANG can come up
    // empty for an instant after a SIGKILL; such a child stays and the
    // short reap tick below retries.
    for (size_t I = 0; I != Children.size();) {
      Child &C = Children[I];
      if (C.OutFd >= 0 || C.ErrFd >= 0) {
        ++I;
        continue;
      }
      int Status = 0;
      const pid_t Got = tryReap(C.Pid, Status);
      if (Got == 0) {
        ++I;
        continue;
      }
      if (C.Killed) {
        C.R.Kind = ExitKind::TimedOut;
        C.R.Signal = SIGKILL;
      } else if (Got > 0 && WIFSIGNALED(Status)) {
        C.R.Kind = ExitKind::Signalled;
        C.R.Signal = WTERMSIG(Status);
      } else {
        C.R.Kind = ExitKind::Exited;
        C.R.ExitCode =
            (Got > 0 && WIFEXITED(Status)) ? WEXITSTATUS(Status) : -1;
      }
      Out.emplace_back(C.Id, std::move(C.R));
      Children.erase(Children.begin() + I);
    }

    if (!Out.empty() || Expired || (Children.empty() && !External))
      return Out;

    // Sleep until the nearest of: the caller's wait deadline, a kill
    // timer, a grace window, or a short retry tick for an unreapable
    // just-killed child.
    Clock::time_point Next = WaitDeadline;
    bool ReapPending = false;
    for (const Child &C : Children) {
      if (!C.Killed && C.HasDeadline && C.Deadline < Next)
        Next = C.Deadline;
      if (C.Killed && C.GraceDeadline < Next)
        Next = C.GraceDeadline;
      if (C.OutFd < 0 && C.ErrFd < 0)
        ReapPending = true;
    }
    int64_t PollMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Next - Clock::now())
                         .count();
    PollMs = std::max<int64_t>(PollMs, 0);
    if (ReapPending)
      PollMs = std::min<int64_t>(PollMs, 10);
    PollMs = std::min<int64_t>(PollMs, 1000 * 60 * 60);

    // One poll across every live pipe of every child, plus any external
    // fds the caller wants multiplexed into the same blocking point.
    struct Slot {
      size_t ChildIdx;
      bool IsErr;
    };
    std::vector<struct pollfd> Fds;
    std::vector<Slot> Slots;
    Fds.reserve(Children.size() * 2);
    Slots.reserve(Children.size() * 2);
    for (size_t I = 0; I != Children.size(); ++I) {
      const Child &C = Children[I];
      if (C.OutFd >= 0) {
        Fds.push_back({C.OutFd, POLLIN, 0});
        Slots.push_back({I, false});
      }
      if (C.ErrFd >= 0) {
        Fds.push_back({C.ErrFd, POLLIN, 0});
        Slots.push_back({I, true});
      }
    }
    const size_t ExternalBase = Fds.size();
    if (External)
      for (const ExternalFd &E : *External)
        if (E.Fd >= 0)
          Fds.push_back({E.Fd, E.Events, 0});
    const int NReady = ::poll(Fds.empty() ? nullptr : Fds.data(),
                              static_cast<nfds_t>(Fds.size()),
                              static_cast<int>(PollMs));
    if (NReady < 0 && errno != EINTR) {
      // The multiplexer itself failed (EBADF/EINVAL/ENOMEM) — a harness
      // bug, not a timeout. Masking it as Expired would report every
      // in-flight job as merely slow; instead kill and reap the children
      // now and surface the errno in each result as its own failure
      // class, so the caller sees "poll: Bad file descriptor" and not a
      // phantom hang.
      const int PollErrno = errno;
      for (Child &C : Children) {
        ::kill(-C.Pid, SIGKILL);
        ::kill(C.Pid, SIGKILL);
        closeFd(C.OutFd);
        closeFd(C.ErrFd);
        awaitChild(C.Pid);
        C.R.Kind = ExitKind::PollFailed;
        C.R.Error = std::string("poll: ") + std::strerror(PollErrno);
        Out.emplace_back(C.Id, std::move(C.R));
      }
      Children.clear();
      return Out;
    }

    for (size_t I = 0; NReady > 0 && I != ExternalBase; ++I) {
      if (Fds[I].revents == 0)
        continue;
      Child &C = Children[Slots[I].ChildIdx];
      int &Fd = Slots[I].IsErr ? C.ErrFd : C.OutFd;
      std::string &Buf = Slots[I].IsErr ? C.R.Stderr : C.R.Stdout;
      if ((Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        // POLLNVAL or similar: nothing to read, never will be.
        closeFd(Fd);
        continue;
      }
      // Note POLLHUP does not mean drained: a closed write end with
      // buffered data reports POLLIN|POLLHUP and read() keeps returning
      // that data until the 0-byte EOF. We take one chunk per poll pass,
      // so a half-drained pipe simply reports readable again next round.
      ssize_t Got;
      do
        Got = ::read(Fd, Chunk, sizeof(Chunk));
      while (Got < 0 && errno == EINTR);
      if (Got > 0) {
        Buf.append(Chunk, static_cast<size_t>(Got));
        if (C.Killed) // Data restarts the post-kill idle window.
          C.GraceDeadline =
              Clock::now() + std::chrono::milliseconds(kGraceIdleMs);
      } else if (Got == 0 || Got < 0) {
        // EOF, or a real error (EINTR was retried above, so a signal can
        // no longer masquerade as end-of-stream and close a live pipe).
        closeFd(Fd);
      }
    }

    // Surface external activity: copy revents out and return immediately
    // (possibly with no child results) so the owner can service sockets.
    if (External && NReady > 0) {
      bool ExternalReady = false;
      size_t J = ExternalBase;
      for (ExternalFd &E : *External) {
        if (E.Fd < 0)
          continue;
        E.Revents = Fds[J].revents;
        ExternalReady |= E.Revents != 0;
        ++J;
      }
      if (ExternalReady)
        Expired = true; // Loop once more: fire timers, reap, then return.
    }

    if (Clock::now() >= WaitDeadline)
      Expired = true; // Loop once more: fire timers, reap, then return.
  }
}

SubprocessResult pose::runSubprocess(const SubprocessSpec &Spec) {
  SubprocessPool Pool;
  Pool.spawn(Spec);
  for (;;) {
    auto Done = Pool.wait(1000 * 60 * 60);
    if (!Done.empty())
      return std::move(Done.front().second);
  }
}
