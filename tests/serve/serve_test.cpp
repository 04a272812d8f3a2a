//===- serve_test.cpp - posed daemon integration tests --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Spawns the real posed binary (POSE_POSED_PATH, injected by CMake) on a
// throwaway socket and store and abuses it the way concurrent clients
// would: racing identical requests (exactly one computation), repeats
// (served from cache), disconnects mid-request (no orphaned worker),
// malformed and truncated frames (a diagnostic, a dropped connection,
// and a daemon that keeps serving), per-client overload, denied flags,
// request deadlines, and a graceful SIGTERM drain that still answers
// the in-flight request and leaves the store fsck-clean.
//
// Responses are compared byte-for-byte against one-shot posec runs
// (POSE_POSEC_PATH): stdout and the exit code are the deterministic
// contract; stderr may carry cache-provenance notes and is not.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Protocol.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pose;
using namespace pose::serve;

namespace fs = std::filesystem;

namespace {

// A request that takes about 200 ms in an optimized build (longer under
// the sanitizers) — wide enough to race against, short enough to keep
// the suite fast.
const std::vector<std::string> SlowArgs = {"--workload=dijkstra",
                                           "--enumerate=dijkstra",
                                           "--budget=400000"};
// A request that finishes in tens of milliseconds.
const std::vector<std::string> QuickArgs = {"--workload=bitcount",
                                            "--enumerate=bit_count",
                                            "--budget=50000"};

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One live posed process on a fresh socket and store.
class DaemonProc {
public:
  std::string Socket, Store;

  /// \p Probe: confirm readiness with a throwaway connection. The
  /// fault-sock sweep turns this off — the probe's EOF read would
  /// consume injected read-fault indices before the request under test
  /// arrives.
  explicit DaemonProc(const char *Name, std::vector<std::string> Extra = {},
                      bool Probe = true) {
    // Keep the socket path short: sun_path holds ~100 bytes.
    Socket = "/tmp/posed-gt-" + std::to_string(::getpid()) + "-" + Name +
             ".sock";
    Store = ::testing::TempDir() + "pose-serve-" + Name + "-store";
    ::unlink(Socket.c_str());
    fs::remove_all(Store);

    std::vector<std::string> Args = {POSE_POSED_PATH,
                                     "--socket=" + Socket,
                                     "--store=" + Store,
                                     "--posec=" POSE_POSEC_PATH};
    Args.insert(Args.end(), Extra.begin(), Extra.end());

    Pid = ::fork();
    if (Pid == 0) {
      // Child: silence the daemon's log lines; exec posed.
      const int Null = ::open("/dev/null", O_WRONLY);
      if (Null >= 0) {
        ::dup2(Null, 1);
        ::dup2(Null, 2);
        ::close(Null);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    Ready = Pid > 0 && (!Probe || waitReady());
  }

  /// True once the daemon is forked and listening; every test must
  /// ASSERT on this before talking to the socket.
  bool ready() const { return Ready; }

  ~DaemonProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int St = 0;
      ::waitpid(Pid, &St, 0);
    }
    ::unlink(Socket.c_str());
  }

  pid_t pid() const { return Pid; }

  /// SIGTERMs the daemon and returns its wait status; -1 when it failed
  /// to exit within 10 seconds (it is then SIGKILLed by the dtor).
  int terminate() {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    return await();
  }

  /// Reaps the daemon (it must be exiting on its own); -1 on timeout.
  int await() {
    const uint64_t Deadline = nowMs() + 10'000;
    int St = 0;
    while (nowMs() < Deadline) {
      const pid_t R = ::waitpid(Pid, &St, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        return St;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

private:
  pid_t Pid = -1;
  bool Ready = false;

  bool waitReady() {
    const uint64_t Deadline = nowMs() + 10'000;
    while (nowMs() < Deadline) {
      const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        return false;
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                    Socket.c_str());
      const int Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                               sizeof(Addr));
      ::close(Fd);
      if (Rc == 0)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }
};

/// A blocking client connection with framed send/receive.
class Client {
public:
  explicit Client(const std::string &SocketPath)
      : In(kMaxResponsePayload) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  SocketPath.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Client() { closeNow(); }

  bool ok() const { return Fd >= 0; }

  void closeNow() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool sendRaw(const std::vector<uint8_t> &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      const ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                               MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Receives one verified frame; fails the test on timeout, EOF, or a
  /// malformed stream. \p TimeoutMs bounds the whole receive.
  bool recvFrame(MsgKind &Kind, std::vector<uint8_t> &Payload,
                 uint64_t TimeoutMs = 30'000) {
    std::string Why;
    const uint64_t Deadline = nowMs() + TimeoutMs;
    for (;;) {
      switch (In.next(Kind, Payload, Why)) {
      case FrameReader::Status::Frame:
        return true;
      case FrameReader::Status::Malformed:
        ADD_FAILURE() << "malformed response stream: " << Why;
        return false;
      case FrameReader::Status::NeedMore:
        break;
      }
      const uint64_t Now = nowMs();
      if (Now >= Deadline) {
        ADD_FAILURE() << "timed out waiting for a response frame";
        return false;
      }
      pollfd P{Fd, POLLIN, 0};
      const int NReady =
          ::poll(&P, 1, static_cast<int>(Deadline - Now));
      if (NReady < 0 && errno == EINTR)
        continue;
      if (NReady <= 0)
        continue;
      uint8_t Chunk[4096];
      const ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0) {
        ADD_FAILURE() << "connection closed while awaiting a frame";
        return false;
      }
      In.feed(Chunk, static_cast<size_t>(Got));
    }
  }

  /// True when the daemon closed this connection (EOF) within
  /// \p TimeoutMs without sending further bytes we care about.
  bool awaitEof(uint64_t TimeoutMs = 10'000) {
    const uint64_t Deadline = nowMs() + TimeoutMs;
    for (;;) {
      const uint64_t Now = nowMs();
      if (Now >= Deadline)
        return false;
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, static_cast<int>(Deadline - Now)) <= 0)
        continue;
      uint8_t Chunk[4096];
      const ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
      if (Got == 0)
        return true;
      if (Got < 0 && errno != EINTR)
        return true; // ECONNRESET also counts as closed.
    }
  }

  bool sendRun(uint64_t Id, const std::vector<std::string> &Args) {
    RunRequest R;
    R.Id = Id;
    R.Args = Args;
    return sendRaw(encodeRunRequest(R));
  }

  /// Sends a Run and receives its RunResponse, asserting the id echo.
  bool run(uint64_t Id, const std::vector<std::string> &Args,
           RunResponse &Out, uint64_t TimeoutMs = 30'000) {
    if (!sendRun(Id, Args))
      return false;
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    if (!recvFrame(Kind, Payload, TimeoutMs))
      return false;
    std::string Why;
    if (Kind == MsgKind::Error) {
      ErrorResponse E;
      decodeErrorResponse(Payload, E, Why);
      ADD_FAILURE() << "run refused: " << errorCodeName(E.Code) << ": "
                    << E.Message;
      return false;
    }
    if (Kind != MsgKind::RunResult) {
      ADD_FAILURE() << "expected RunResult, got kind "
                    << static_cast<uint32_t>(Kind);
      return false;
    }
    if (!decodeRunResponse(Payload, Out, Why)) {
      ADD_FAILURE() << "run response does not decode: " << Why;
      return false;
    }
    EXPECT_EQ(Out.Id, Id) << "response id echo mismatch";
    return true;
  }

  bool ping() {
    if (!sendRaw(encodePing()))
      return false;
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    if (!recvFrame(Kind, Payload))
      return false;
    EXPECT_EQ(Kind, MsgKind::Pong);
    return Kind == MsgKind::Pong;
  }

  bool stats(StatsReport &Out) {
    if (!sendRaw(encodeStatsRequest()))
      return false;
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    if (!recvFrame(Kind, Payload))
      return false;
    EXPECT_EQ(Kind, MsgKind::StatsReport);
    std::string Why;
    return Kind == MsgKind::StatsReport &&
           decodeStatsReport(Payload, Out, Why);
  }

private:
  int Fd = -1;
  FrameReader In;
};

/// Runs posec directly (no daemon, no store) for the reference bytes.
SubprocessResult oneShot(const std::vector<std::string> &Args) {
  SubprocessSpec Spec;
  Spec.Argv = {POSE_POSEC_PATH};
  Spec.Argv.insert(Spec.Argv.end(), Args.begin(), Args.end());
  Spec.TimeoutMs = 60'000;
  return runSubprocess(Spec);
}

bool fsckClean(const std::string &Store) {
  SubprocessResult R = oneShot({"--store=" + Store, "--fsck"});
  EXPECT_TRUE(R.ok()) << R.Stdout << R.Stderr;
  return R.ok();
}

/// First live process whose parent is \p Parent (scans /proc); -1 when
/// none. Used to find the daemon child behind a --watchdog posed.
pid_t childOf(pid_t Parent) {
  for (const fs::directory_entry &E : fs::directory_iterator("/proc")) {
    const std::string Name = E.path().filename().string();
    if (Name.empty() || Name.find_first_not_of("0123456789") !=
                            std::string::npos)
      continue;
    std::FILE *F = std::fopen((E.path() / "stat").c_str(), "r");
    if (!F)
      continue;
    char Buf[512] = {0};
    const size_t Got = std::fread(Buf, 1, sizeof(Buf) - 1, F);
    std::fclose(F);
    if (Got == 0)
      continue;
    // Format: pid (comm) state ppid ... — comm may contain spaces, so
    // parse from the last ')'.
    const char *Close = std::strrchr(Buf, ')');
    if (!Close)
      continue;
    char State = 0;
    int Ppid = -1;
    if (std::sscanf(Close + 1, " %c %d", &State, &Ppid) == 2 &&
        Ppid == Parent && State != 'Z')
      return static_cast<pid_t>(std::stol(Name));
  }
  return -1;
}

/// Polls until \p Parent has a live child other than \p Not; -1 on
/// timeout.
pid_t awaitChildOf(pid_t Parent, pid_t Not = -1,
                   uint64_t TimeoutMs = 10'000) {
  const uint64_t Deadline = nowMs() + TimeoutMs;
  while (nowMs() < Deadline) {
    const pid_t C = childOf(Parent);
    if (C > 0 && C != Not)
      return C;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

size_t countFilesUnder(const std::string &Dir) {
  size_t N = 0;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(Dir))
    if (E.is_regular_file())
      ++N;
  return N;
}

/// Builds a valid staging store by running posec once against it.
void prepStagingStore(const std::string &Dir) {
  fs::remove_all(Dir);
  const SubprocessResult R =
      oneShot({"--workload=bitcount", "--enumerate=bit_count",
               "--budget=50000", "--store=" + Dir});
  ASSERT_EQ(R.Kind, ExitKind::Exited);
  ASSERT_EQ(R.ExitCode, 0) << R.Stderr;
}

TEST(ServeDaemon, AnswersPingAndStats) {
  DaemonProc D("ping");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  EXPECT_TRUE(C.ping());
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Requests, 0u);
  EXPECT_EQ(S.Clients, 1u);
}

TEST(ServeDaemon, ServedBytesMatchOneShotPosec) {
  DaemonProc D("oneshot");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  RunResponse R;
  ASSERT_TRUE(C.run(1, QuickArgs, R));
  const SubprocessResult Ref = oneShot(QuickArgs);
  ASSERT_EQ(Ref.Kind, ExitKind::Exited);
  EXPECT_EQ(R.ExitCode, Ref.ExitCode);
  EXPECT_EQ(R.Stdout, Ref.Stdout) << "daemon stdout diverges from posec";
  EXPECT_EQ(R.Served, ServedFrom::Computed);
}

TEST(ServeDaemon, RacingIdenticalRequestsComputeExactlyOnce) {
  DaemonProc D("race");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client A(D.Socket), B(D.Socket);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());

  // Both requests hit the daemon well inside the slow run's lifetime.
  ASSERT_TRUE(A.sendRun(1, SlowArgs));
  ASSERT_TRUE(B.sendRun(2, SlowArgs));

  MsgKind Kind;
  std::vector<uint8_t> Payload;
  std::string Why;
  RunResponse RA, RB;
  ASSERT_TRUE(A.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::RunResult);
  ASSERT_TRUE(decodeRunResponse(Payload, RA, Why)) << Why;
  ASSERT_TRUE(B.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::RunResult);
  ASSERT_TRUE(decodeRunResponse(Payload, RB, Why)) << Why;

  // Both clients got the full result, byte-identical.
  EXPECT_EQ(RA.ExitCode, RB.ExitCode);
  EXPECT_EQ(RA.Stdout, RB.Stdout);
  EXPECT_EQ(RA.Stderr, RB.Stderr);
  EXPECT_FALSE(RA.Stdout.empty());

  // Exactly one posec child ran; the twin was coalesced onto it.
  StatsReport S;
  ASSERT_TRUE(A.stats(S));
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Computed, 1u) << "identical concurrent requests must share "
                               "one computation";
  EXPECT_EQ(S.Coalesced, 1u);
}

TEST(ServeDaemon, RepeatedRequestIsServedFromCache) {
  DaemonProc D("cache");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  RunResponse First, Second;
  ASSERT_TRUE(C.run(1, QuickArgs, First));
  EXPECT_EQ(First.Served, ServedFrom::Computed);
  ASSERT_TRUE(C.run(2, QuickArgs, Second));
  EXPECT_EQ(Second.Served, ServedFrom::Cached);
  EXPECT_EQ(Second.Stdout, First.Stdout);
  EXPECT_EQ(Second.ExitCode, First.ExitCode);
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Computed, 1u);
  EXPECT_EQ(S.CacheHits, 1u);
}

TEST(ServeDaemon, StorePlumbingFlagsAreDenied) {
  DaemonProc D("deny");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRun(9, {"--workload=bitcount", "--store=/tmp/evil"}));
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::Error);
  ErrorResponse E;
  std::string Why;
  ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
  EXPECT_EQ(E.Id, 9u);
  EXPECT_EQ(E.Code, ErrorCode::DeniedArg);
  EXPECT_NE(E.Message.find("--store"), std::string::npos) << E.Message;
  // A refused request costs the request, not the connection.
  EXPECT_TRUE(C.ping());
}

TEST(ServeDaemon, MalformedFrameGetsADiagnosticAndTheConnectionDropped) {
  DaemonProc D("malformed");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  std::vector<uint8_t> Garbage(64, 0x5A);
  ASSERT_TRUE(C.sendRaw(Garbage));

  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::Error);
  ErrorResponse E;
  std::string Why;
  ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
  EXPECT_EQ(E.Code, ErrorCode::BadFrame);
  EXPECT_TRUE(C.awaitEof()) << "a broken stream must be dropped";

  // The daemon itself is unharmed: a fresh connection works.
  Client Fresh(D.Socket);
  ASSERT_TRUE(Fresh.ok());
  EXPECT_TRUE(Fresh.ping());
}

TEST(ServeDaemon, TruncatedFrameThenDisconnectLeavesTheDaemonServing) {
  DaemonProc D("truncated");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  {
    Client C(D.Socket);
    ASSERT_TRUE(C.ok());
    const std::vector<uint8_t> Wire = encodePing();
    const std::vector<uint8_t> Half(Wire.begin(),
                                    Wire.begin() + kHeaderSize / 2);
    ASSERT_TRUE(C.sendRaw(Half));
    // Disconnect with the frame forever incomplete.
  }
  Client Fresh(D.Socket);
  ASSERT_TRUE(Fresh.ok());
  EXPECT_TRUE(Fresh.ping());
}

TEST(ServeDaemon, PerClientBudgetRefusesTheExcessRequest) {
  DaemonProc D("overload", {"--max-inflight=1", "--max-jobs=1"});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRun(1, SlowArgs));
  ASSERT_TRUE(C.sendRun(2, SlowArgs));

  bool SawResult = false, SawOverloaded = false;
  for (int I = 0; I != 2; ++I) {
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    std::string Why;
    ASSERT_TRUE(C.recvFrame(Kind, Payload));
    if (Kind == MsgKind::Error) {
      ErrorResponse E;
      ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
      EXPECT_EQ(E.Id, 2u) << "the admitted request must not be refused";
      EXPECT_EQ(E.Code, ErrorCode::Overloaded);
      SawOverloaded = true;
    } else {
      ASSERT_EQ(Kind, MsgKind::RunResult);
      RunResponse R;
      ASSERT_TRUE(decodeRunResponse(Payload, R, Why)) << Why;
      EXPECT_EQ(R.Id, 1u);
      SawResult = true;
    }
  }
  EXPECT_TRUE(SawResult);
  EXPECT_TRUE(SawOverloaded);
}

TEST(ServeDaemon, DisconnectMidRequestReleasesTheWorkerSlot) {
  DaemonProc D("abandon", {"--max-jobs=1"});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  {
    Client A(D.Socket);
    ASSERT_TRUE(A.ok());
    ASSERT_TRUE(A.sendRun(1, SlowArgs));
    // Give the daemon a moment to admit and spawn, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // The abandoned child must be killed and its slot reclaimed well
  // before the slow run would have finished on its own; the daemon must
  // keep serving. A quick run through the single slot proves both.
  Client B(D.Socket);
  ASSERT_TRUE(B.ok());
  const uint64_t Deadline = nowMs() + 10'000;
  bool Drained = false;
  while (nowMs() < Deadline) {
    StatsReport S;
    ASSERT_TRUE(B.stats(S));
    if (S.Running == 0 && S.Queued == 0) {
      Drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Drained) << "orphaned worker still holding the slot";
  RunResponse R;
  ASSERT_TRUE(B.run(2, QuickArgs, R));
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(ServeDaemon, RequestDeadlineKillsTheChildAndReportsIt) {
  DaemonProc D("deadline", {"--request-timeout-ms=50"});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRun(1, SlowArgs)); // Needs ~200ms; allowed 50.
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::Error);
  ErrorResponse E;
  std::string Why;
  ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
  EXPECT_EQ(E.Id, 1u);
  EXPECT_EQ(E.Code, ErrorCode::Deadline);
  // The connection survives its request's deadline.
  EXPECT_TRUE(C.ping());
}

TEST(ServeDaemon, SigtermDrainsTheInFlightRequestThenExitsZero) {
  DaemonProc D("drain");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRun(1, SlowArgs));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(D.pid(), SIGTERM);

  // The in-flight request is still answered, in full.
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::RunResult);
  RunResponse R;
  std::string Why;
  ASSERT_TRUE(decodeRunResponse(Payload, R, Why)) << Why;
  EXPECT_EQ(R.Id, 1u);
  EXPECT_FALSE(R.Stdout.empty());
  EXPECT_TRUE(C.awaitEof());

  const int St = D.await();
  ASSERT_NE(St, -1) << "daemon did not exit after the drain";
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 0);
  EXPECT_TRUE(fsckClean(D.Store));
}

TEST(ServeDaemon, ShutdownFrameAnswersPongThenExitsZero) {
  DaemonProc D("shutdown");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  RunResponse R;
  ASSERT_TRUE(C.run(1, QuickArgs, R)); // Leave something in the store.
  ASSERT_TRUE(C.sendRaw(encodeShutdown()));
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  EXPECT_EQ(Kind, MsgKind::Pong);
  EXPECT_TRUE(C.awaitEof());

  const int St = D.await();
  ASSERT_NE(St, -1);
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 0);
  EXPECT_TRUE(fsckClean(D.Store));
}

// ---- Self-healing layer: watchdog, hot reload, shedding, fault-sock ----

TEST(ServeDaemon, WatchdogRestartsACrashedDaemonBehindTheSameSocket) {
  DaemonProc D("wd", {"--watchdog", "--heartbeat-timeout-ms=0"});
  ASSERT_TRUE(D.ready()) << "watchdog failed to start";
  // D.pid() is the watchdog; the daemon is its child.
  const pid_t Daemon = awaitChildOf(D.pid());
  ASSERT_GT(Daemon, 0) << "no daemon child under the watchdog";
  {
    Client C(D.Socket);
    ASSERT_TRUE(C.ok());
    EXPECT_TRUE(C.ping());
  }

  // Crash the daemon. The watchdog holds the listening socket, so a
  // client connecting into the gap queues in the backlog and is served
  // by the next incarnation — never connection-refused.
  ASSERT_EQ(::kill(Daemon, SIGKILL), 0);
  Client C(D.Socket);
  ASSERT_TRUE(C.ok()) << "connect must succeed even while the daemon "
                         "is down: the watchdog owns the socket";
  EXPECT_TRUE(C.ping());
  const pid_t Second = awaitChildOf(D.pid(), Daemon);
  ASSERT_GT(Second, 0);
  EXPECT_NE(Second, Daemon);

  // The restarted daemon serves real work and reports its lineage.
  RunResponse R;
  ASSERT_TRUE(C.run(1, QuickArgs, R));
  EXPECT_EQ(R.ExitCode, 0);
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Restarts, 1u);

  // A SIGTERM to the watchdog forwards to the daemon, drains it, and
  // the watchdog exits with the daemon's clean code.
  const int St = D.terminate();
  ASSERT_NE(St, -1) << "watchdog did not exit after the drain";
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 0);
  EXPECT_TRUE(fsckClean(D.Store));
}

TEST(ServeDaemon, WatchdogEscalatesAfterTheRestartBudget) {
  DaemonProc D("wdgiveup",
               {"--watchdog", "--max-restarts=1",
                "--heartbeat-timeout-ms=0"});
  ASSERT_TRUE(D.ready()) << "watchdog failed to start";
  const pid_t First = awaitChildOf(D.pid());
  ASSERT_GT(First, 0);
  ASSERT_EQ(::kill(First, SIGKILL), 0); // Failure #1: restarted.
  const pid_t Second = awaitChildOf(D.pid(), First);
  ASSERT_GT(Second, 0);
  ASSERT_EQ(::kill(Second, SIGKILL), 0); // Failure #2: budget spent.

  const int St = D.await();
  ASSERT_NE(St, -1) << "watchdog must stop respawning and exit";
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 13) << "WatchdogGaveUp is the documented "
                                    "page-an-operator exit code";
  // The socket file is released for the operator's next attempt.
  EXPECT_FALSE(fs::exists(D.Socket));
}

TEST(ServeDaemon, ReloadSwapsInAVerifiedStagingStore) {
  const std::string Staging =
      ::testing::TempDir() + "pose-serve-reload-staging";
  prepStagingStore(Staging);

  DaemonProc D("reload", {"--reload-store=" + Staging});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  RunResponse R;
  ASSERT_TRUE(C.run(1, QuickArgs, R)); // Served from the original store.
  EXPECT_EQ(R.Served, ServedFrom::Computed);

  const size_t Before = countFilesUnder(Staging);
  ASSERT_TRUE(C.sendRaw(encodeReload()));
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  EXPECT_EQ(Kind, MsgKind::Pong) << "a verified staging store must be "
                                    "accepted";

  // The connection survived the swap, and new computations now land in
  // the staging store (a distinct request, so neither the cache nor the
  // old store can serve it).
  ASSERT_TRUE(C.run(2, SlowArgs, R));
  EXPECT_EQ(R.Served, ServedFrom::Computed);
  EXPECT_GT(countFilesUnder(Staging), Before)
      << "post-reload work must be stored in the swapped-in store";
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Reloads, 1u);
  EXPECT_EQ(S.ReloadsRejected, 0u);
  EXPECT_TRUE(fsckClean(Staging));
}

TEST(ServeDaemon, ReloadOfACorruptStagingStoreIsRejected) {
  const std::string Staging =
      ::testing::TempDir() + "pose-serve-badreload-staging";
  prepStagingStore(Staging);
  // Corrupt the staging store: truncate its largest file by one byte.
  std::string Victim;
  uintmax_t Biggest = 0;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(Staging))
    if (E.is_regular_file() && E.file_size() > Biggest) {
      Biggest = E.file_size();
      Victim = E.path().string();
    }
  ASSERT_FALSE(Victim.empty());
  fs::resize_file(Victim, Biggest - 1);

  DaemonProc D("badreload", {"--reload-store=" + Staging});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRaw(encodeReload()));
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::Error) << "a store failing fsck must not be "
                                     "swapped in";
  ErrorResponse E;
  std::string Why;
  ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
  EXPECT_EQ(E.Code, ErrorCode::ReloadRejected);
  EXPECT_FALSE(E.Message.empty());

  // The refusal costs nothing: same connection, old store, new work.
  RunResponse R;
  ASSERT_TRUE(C.run(1, QuickArgs, R));
  EXPECT_EQ(R.ExitCode, 0);
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Reloads, 0u);
  EXPECT_EQ(S.ReloadsRejected, 1u);
}

TEST(ServeDaemon, ReloadWithoutAStagingStoreIsRejected) {
  DaemonProc D("noreload");
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  ASSERT_TRUE(C.sendRaw(encodeReload()));
  MsgKind Kind;
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(C.recvFrame(Kind, Payload));
  ASSERT_EQ(Kind, MsgKind::Error);
  ErrorResponse E;
  std::string Why;
  ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
  EXPECT_EQ(E.Code, ErrorCode::ReloadRejected);
  EXPECT_NE(E.Message.find("--reload-store"), std::string::npos)
      << E.Message;
  EXPECT_TRUE(C.ping());
}

TEST(ServeDaemon, GlobalQueueCapShedsWithARetryAfterHint) {
  DaemonProc D("shed", {"--max-jobs=1", "--max-queue=1"});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  // Four distinct slow requests down one pipe: #1 runs, #2 queues, the
  // rest overflow the global cap and must be shed with a hint.
  for (uint64_t Id = 1; Id <= 4; ++Id) {
    const std::vector<std::string> Args = {
        "--workload=dijkstra", "--enumerate=dijkstra",
        "--budget=" + std::to_string(400'000 + Id)};
    ASSERT_TRUE(C.sendRun(Id, Args));
  }

  size_t Results = 0, Shed = 0;
  for (int I = 0; I != 4; ++I) {
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    std::string Why;
    ASSERT_TRUE(C.recvFrame(Kind, Payload));
    if (Kind == MsgKind::Error) {
      ErrorResponse E;
      ASSERT_TRUE(decodeErrorResponse(Payload, E, Why)) << Why;
      ASSERT_EQ(E.Code, ErrorCode::Overloaded);
      EXPECT_GT(E.RetryAfterMs, 0u)
          << "a global shed must tell the client when to come back";
      EXPECT_GE(E.Id, 3u) << "the admitted requests must not be shed";
      ++Shed;
    } else {
      ASSERT_EQ(Kind, MsgKind::RunResult);
      ++Results;
    }
  }
  EXPECT_GE(Shed, 1u);
  EXPECT_GE(Results, 2u);
  StatsReport S;
  ASSERT_TRUE(C.stats(S));
  EXPECT_EQ(S.Shed, Shed);
}

TEST(ServeDaemon, ReadDeadlineReclaimsAStalledMidFramePeer) {
  DaemonProc D("stall", {"--read-timeout-ms=300"});
  ASSERT_TRUE(D.ready()) << "daemon failed to start";
  Client C(D.Socket);
  ASSERT_TRUE(C.ok());
  // Half a frame header, then silence: the classic slow-loris shape.
  const std::vector<uint8_t> Wire = encodePing();
  ASSERT_TRUE(C.sendRaw(std::vector<uint8_t>(
      Wire.begin(), Wire.begin() + kHeaderSize / 2)));
  EXPECT_TRUE(C.awaitEof(5'000))
      << "the read deadline must reclaim a mid-frame stalled connection";

  // The daemon is unharmed and counts the reclaim.
  Client Fresh(D.Socket);
  ASSERT_TRUE(Fresh.ok());
  EXPECT_TRUE(Fresh.ping());
  StatsReport S;
  ASSERT_TRUE(Fresh.stats(S));
  EXPECT_GE(S.ReadTimeouts, 1u);
}

/// One sweep request against a fault-injected daemon. The service
/// invariant allows exactly two outcomes: a RunResult byte-identical
/// to one-shot posec, or a clean connection drop. Anything else —
/// a hang past the deadline, a malformed stream, a divergent
/// response — fails the test.
enum class SweepOutcome { Response, Drop };

bool sweepRequest(const std::string &Socket,
                  const std::vector<std::string> &Args, uint64_t Id,
                  SweepOutcome &Out, RunResponse &R,
                  const std::string &Ctx) {
  // Connect with retries: the sweep skips the readiness probe (it
  // would eat read-fault indices), so the daemon may still be binding.
  int Fd = -1;
  const uint64_t ConnDeadline = nowMs() + 10'000;
  for (;;) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  Socket.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (nowMs() >= ConnDeadline) {
      ADD_FAILURE() << Ctx << ": connect failed: " << std::strerror(errno);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  RunRequest Req;
  Req.Id = Id;
  Req.Args = Args;
  const std::vector<uint8_t> Wire = encodeRunRequest(Req);
  size_t Off = 0;
  while (Off < Wire.size()) {
    const ssize_t N =
        ::send(Fd, Wire.data() + Off, Wire.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // The daemon dropped us mid-send: a clean drop.
    Off += static_cast<size_t>(N);
  }

  FrameReader In(kMaxResponsePayload);
  const uint64_t Deadline = nowMs() + 20'000;
  for (;;) {
    MsgKind Kind;
    std::vector<uint8_t> Payload;
    std::string Why;
    switch (In.next(Kind, Payload, Why)) {
    case FrameReader::Status::Frame: {
      ::close(Fd);
      if (Kind != MsgKind::RunResult) {
        ADD_FAILURE() << Ctx << ": unexpected frame kind "
                      << static_cast<uint32_t>(Kind)
                      << " violates the response-or-drop invariant";
        return false;
      }
      if (!decodeRunResponse(Payload, R, Why)) {
        ADD_FAILURE() << Ctx << ": undecodable response: " << Why;
        return false;
      }
      Out = SweepOutcome::Response;
      return true;
    }
    case FrameReader::Status::Malformed:
      ::close(Fd);
      ADD_FAILURE() << Ctx << ": malformed response stream: " << Why;
      return false;
    case FrameReader::Status::NeedMore:
      break;
    }
    const uint64_t Now = nowMs();
    if (Now >= Deadline) {
      ::close(Fd);
      ADD_FAILURE() << Ctx << ": hang: no response and no drop within "
                       "the deadline";
      return false;
    }
    pollfd P{Fd, POLLIN, 0};
    const int NReady = ::poll(&P, 1, static_cast<int>(Deadline - Now));
    if (NReady < 0 && errno == EINTR)
      continue;
    if (NReady <= 0)
      continue;
    uint8_t Chunk[4096];
    const ssize_t Got = ::read(Fd, Chunk, sizeof(Chunk));
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0) {
      ::close(Fd);
      Out = SweepOutcome::Drop;
      return true;
    }
    In.feed(Chunk, static_cast<size_t>(Got));
  }
}

TEST(ServeDaemon, FaultSockSweepPreservesTheServiceInvariant) {
  const SubprocessResult Ref = oneShot(QuickArgs);
  ASSERT_EQ(Ref.Kind, ExitKind::Exited);

  const char *Kinds[] = {"short-write", "eagain-storm", "disconnect",
                         "stalled-peer"};
  for (const char *Kind : Kinds)
    for (int Nth = 1; Nth <= 3; ++Nth) {
      const std::string Ctx =
          std::string(Kind) + ":" + std::to_string(Nth);
      DaemonProc D(("fault-" + Ctx).c_str(),
                   {"--fault-sock=" + Ctx, "--read-timeout-ms=400"},
                   /*Probe=*/false);
      ASSERT_TRUE(D.ready()) << Ctx << ": daemon failed to start";

      // The injected fault fires at most once; within a handful of
      // attempts one request must get through, and every attempt —
      // faulted or not — must end in a correct response or a clean
      // drop.
      bool Succeeded = false;
      for (uint64_t Attempt = 1; Attempt <= 6 && !Succeeded; ++Attempt) {
        SweepOutcome Out;
        RunResponse R;
        if (!sweepRequest(D.Socket, QuickArgs, Attempt, Out, R, Ctx))
          break; // The invariant already failed; details are recorded.
        if (Out == SweepOutcome::Drop)
          continue;
        EXPECT_EQ(R.ExitCode, Ref.ExitCode) << Ctx;
        EXPECT_EQ(R.Stdout, Ref.Stdout)
            << Ctx << ": a served response must be byte-identical to "
                      "one-shot posec, faults or not";
        Succeeded = true;
      }
      EXPECT_TRUE(Succeeded)
          << Ctx << ": the daemon never recovered into serving";
      EXPECT_TRUE(fsckClean(D.Store)) << Ctx;
    }
}

} // namespace
