//===- posed_client.cpp - posed client and load harness -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// posed-client — talks to a running posed (tools/posed.cpp) over its
// Unix-domain socket. One binary, two jobs:
//
//   * Single request: forward a posec command line, print the served
//     stdout/stderr, exit with the served exit code.
//
//       posed-client --socket=SOCK -- --workload=bitcount
//                    --enumerate=bit_count --budget=50000
//
//   * Load harness: open C connections and issue N requests of the same
//     command line, asserting every response is byte-identical (same
//     exit code, stdout, stderr) — the daemon's dedup contract — and
//     reporting how each was served (computed/coalesced/cached).
//
//       posed-client --socket=SOCK --connections=8 --count=56
//                    --out=sample.txt -- --workload=bitcount ...
//
// Run-mode requests ride a bounded retry schedule (shared RetryPolicy:
// capped exponential backoff, deterministic jitter): connect-refused,
// transport loss mid-exchange (the daemon restarted under its
// watchdog), and 'overloaded' shed responses — which carry the
// daemon's retry-after hint — are retried transparently; every other
// failure is final. --no-retry restores strict single-shot behavior
// for tests that assert on first-response semantics.
//
// Plus liveness/ops probes: --ping, --stats (prints the daemon's
// scheduler counters as one key=value line), --reload (ask the daemon
// to swap in its staging store), --shutdown (graceful drain). Exit 0
// on success, 1 on any protocol failure or response mismatch; in
// single-request mode the served posec exit code is propagated.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Protocol.h"
#include "src/support/Flags.h"
#include "src/support/RetryPolicy.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pose;
using namespace pose::serve;

namespace {

/// Connects to the daemon socket. On failure returns -1 with \p Err
/// set and \p ConnErrno holding the connect(2) errno (0 for
/// non-connect failures) so callers can tell a retryable
/// connection-refused from a hopeless path error.
int connectTo(const std::string &Path, std::string &Err, int &ConnErrno) {
  ConnErrno = 0;
  struct sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long";
    return -1;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ConnErrno = errno;
    Err = "connect '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// The client-side retry schedule: 8 attempts spread over roughly ten
/// seconds, enough to ride out a watchdog restart (backoff starts at
/// 100ms and the daemon is typically back within one or two).
const RetryPolicy kClientRetry{/*MaxRetries=*/8, /*BaseDelayMs=*/50,
                               /*MaxDelayMs=*/2'000, /*JitterPct=*/20};

/// Deterministic jitter salt (FNV-1a) so two load-harness connections
/// retrying the same daemon do not stampede in lockstep.
uint64_t saltOf(const std::string &S, uint64_t Extra) {
  uint64_t H = 1469598103934665603ull;
  for (const char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H ^ Extra;
}

void sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

bool sendAll(int Fd, const std::vector<uint8_t> &Bytes, std::string &Err) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    const ssize_t N =
        ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Err = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

/// Blocks until one complete verified frame arrives.
bool recvFrame(int Fd, FrameReader &In, MsgKind &Kind,
               std::vector<uint8_t> &Payload, std::string &Err) {
  uint8_t Buf[65536];
  for (;;) {
    const FrameReader::Status S = In.next(Kind, Payload, Err);
    if (S == FrameReader::Status::Frame)
      return true;
    if (S == FrameReader::Status::Malformed)
      return false;
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      In.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Err = N == 0 ? "connection closed by daemon"
                 : std::string("read: ") + std::strerror(errno);
    return false;
  }
}

struct WireResult {
  bool Ok = false;     ///< Got a RunResult (vs. Error / transport loss).
  RunResponse R;
  std::string Problem; ///< Set when !Ok.
};

/// One connection issuing \p N sequential requests of \p Args. Unless
/// \p NoRetry, each request rides the kClientRetry schedule across
/// connect-refused, transport loss (reconnect with a fresh
/// FrameReader), and 'overloaded' sheds (sleeping the daemon's
/// retry-after hint when it gave one).
void runConnection(const std::string &Socket,
                   const std::vector<std::string> &Args, uint64_t IdBase,
                   size_t N, bool NoRetry, std::vector<WireResult> &Out) {
  Out.resize(N);
  const uint64_t Salt = saltOf(Socket, IdBase);
  int Fd = -1;
  FrameReader In(kMaxResponsePayload);
  auto Drop = [&] {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    In = FrameReader(kMaxResponsePayload);
  };

  for (size_t I = 0; I != N; ++I) {
    WireResult &W = Out[I];
    unsigned Attempts = 0;
    auto Backoff = [&] {
      if (NoRetry || !kClientRetry.shouldRetry(++Attempts))
        return false;
      sleepMs(kClientRetry.delayMs(Attempts, Salt));
      return true;
    };

    for (;;) {
      if (Fd < 0) {
        int ConnErrno = 0;
        Fd = connectTo(Socket, W.Problem, ConnErrno);
        if (Fd < 0) {
          // ECONNREFUSED / ENOENT: the daemon is down (or restarting
          // without a watchdog to hold the socket) — worth waiting out.
          // Anything else (bad path, EACCES) will not heal.
          if ((ConnErrno == ECONNREFUSED || ConnErrno == ENOENT) &&
              Backoff())
            continue;
          break;
        }
      }
      RunRequest Req;
      Req.Id = IdBase + I;
      Req.Args = Args;
      MsgKind Kind;
      std::vector<uint8_t> Payload;
      if (!sendAll(Fd, encodeRunRequest(Req), W.Problem) ||
          !recvFrame(Fd, In, Kind, Payload, W.Problem)) {
        // Transport loss mid-exchange: the daemon may have crashed and
        // be restarting under its watchdog. Reconnect and resend — the
        // dedup layer makes the retry idempotent.
        Drop();
        if (Backoff())
          continue;
        break;
      }
      if (Kind == MsgKind::Error) {
        ErrorResponse E;
        std::string Why;
        if (!decodeErrorResponse(Payload, E, Why)) {
          W.Problem = "undecodable error response: " + Why;
          break;
        }
        if (E.Code == ErrorCode::Overloaded && !NoRetry &&
            kClientRetry.shouldRetry(++Attempts)) {
          // Prefer the daemon's shed hint over the local schedule: it
          // knows its queue depth; we only know we were turned away.
          sleepMs(E.RetryAfterMs != 0
                      ? E.RetryAfterMs
                      : kClientRetry.delayMs(Attempts, Salt));
          continue;
        }
        W.Problem = std::string(errorCodeName(E.Code)) + ": " + E.Message;
        break;
      }
      if (Kind != MsgKind::RunResult) {
        W.Problem = "unexpected response kind";
        break;
      }
      std::string Why;
      if (!decodeRunResponse(Payload, W.R, Why)) {
        W.Problem = "undecodable run response: " + Why;
        break;
      }
      if (W.R.Id != Req.Id) {
        W.Problem = "response id mismatch";
        break;
      }
      W.Ok = true;
      break;
    }

    if (!W.Ok && Fd < 0) {
      // The connection is gone and retries (if any) are spent: the
      // daemon is not coming back in time. Abandon the remainder with
      // the same diagnosis instead of burning a full retry ladder per
      // request.
      for (size_t J = I + 1; J != N; ++J)
        Out[J].Problem = W.Problem;
      return;
    }
  }
  Drop();
}

/// Sends one payload-free request and expects \p Want back. An Error
/// frame in its place is decoded and reported by name (e.g. a
/// 'reload-rejected' refusal), other mismatches generically.
int simpleExchange(const std::string &Socket,
                   const std::vector<uint8_t> &Frame, MsgKind Want,
                   std::vector<uint8_t> &Payload) {
  std::string Err;
  int ConnErrno = 0;
  const int Fd = connectTo(Socket, Err, ConnErrno);
  if (Fd < 0) {
    std::fprintf(stderr, "posed-client: %s\n", Err.c_str());
    return 1;
  }
  MsgKind Kind;
  FrameReader In(kMaxResponsePayload);
  const bool Got =
      sendAll(Fd, Frame, Err) && recvFrame(Fd, In, Kind, Payload, Err);
  ::close(Fd);
  if (Got && Kind == Want)
    return 0;
  if (Got && Kind == MsgKind::Error) {
    ErrorResponse E;
    std::string Why;
    std::fprintf(stderr, "posed-client: %s\n",
                 decodeErrorResponse(Payload, E, Why)
                     ? (std::string(errorCodeName(E.Code)) + ": " + E.Message)
                           .c_str()
                     : ("undecodable error response: " + Why).c_str());
    return 1;
  }
  std::fprintf(stderr, "posed-client: %s\n",
               Err.empty() ? "unexpected response kind" : Err.c_str());
  return 1;
}

bool writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  const bool Ok =
      std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Socket, OutPath;
  uint64_t Count = 1, Connections = 1;
  bool Ping = false, Stats = false, Reload = false, Shutdown = false;
  bool Quiet = false, NoRetry = false, IgnoreStderr = false;
  std::vector<std::string> Args;

  const std::vector<Flag> Flags = flagTable(
      textFlag("--socket", "PATH", Socket, "daemon socket").required(),
      uintFlag("--count", Count, 1, UINT64_MAX,
               "total requests to issue (default 1)"),
      uintFlag("--connections", Connections, 1, UINT64_MAX,
               "concurrent connections (default 1)"),
      textFlag("--out", "FILE", OutPath,
               "write the (common) response stdout here"),
      switchFlag("--ping", Ping, "liveness probe instead of a run"),
      switchFlag("--stats", Stats, "print daemon counters instead of a run"),
      switchFlag("--reload", Reload,
                 "ask the daemon to swap in its staging store"),
      switchFlag("--shutdown", Shutdown, "ask the daemon to drain and exit"),
      switchFlag("--no-retry", NoRetry,
                 "fail immediately on connect-refused, transport loss, or an "
                 "'overloaded' shed instead of backing off and retrying"),
      switchFlag("--ignore-stderr", IgnoreStderr,
                 "compare only stdout + exit code across responses (stderr "
                 "carries cache provenance, which legitimately changes "
                 "across a daemon restart or a store reload)"),
      switchFlag("--quiet", Quiet, "no summary line on stderr"));
  // posec arguments only ever follow "--"; anything positional before it
  // is a mistake.
  std::vector<std::string> Stray;
  std::string Error;
  if (parseFlags(Flags, Argc, Argv, Stray, &Args, Error) && !Stray.empty())
    Error = "unexpected argument '" + Stray.front() + "'";
  if (Error.empty() && !Ping && !Reload && !Shutdown && !Stats && Args.empty())
    Error = "no posec arguments after '--'";
  if (!Error.empty()) {
    std::fprintf(
        stderr, "%s\n%s", Error.c_str(),
        renderUsage("posed-client --socket=PATH [options] [-- posec-args...]",
                    Flags)
            .c_str());
    return 1;
  }

  std::vector<uint8_t> Payload;
  if (Ping)
    return simpleExchange(Socket, encodePing(), MsgKind::Pong, Payload);
  if (Reload)
    return simpleExchange(Socket, encodeReload(), MsgKind::Pong, Payload);
  if (Shutdown)
    return simpleExchange(Socket, encodeShutdown(), MsgKind::Pong, Payload);
  if (Stats) {
    const int Rc = simpleExchange(Socket, encodeStatsRequest(),
                                  MsgKind::StatsReport, Payload);
    if (Rc != 0)
      return Rc;
    StatsReport S;
    std::string Why;
    if (!decodeStatsReport(Payload, S, Why)) {
      std::fprintf(stderr, "posed-client: %s\n", Why.c_str());
      return 1;
    }
    // The historical counters keep their order (CI greps on them); the
    // v2 robustness counters append after.
    std::printf("requests=%llu computed=%llu coalesced=%llu "
                "cache-hits=%llu errors=%llu clients=%llu running=%llu "
                "queued=%llu shed=%llu read-timeouts=%llu restarts=%llu "
                "reloads=%llu reload-rejected=%llu sock-faults=%llu\n",
                static_cast<unsigned long long>(S.Requests),
                static_cast<unsigned long long>(S.Computed),
                static_cast<unsigned long long>(S.Coalesced),
                static_cast<unsigned long long>(S.CacheHits),
                static_cast<unsigned long long>(S.Errors),
                static_cast<unsigned long long>(S.Clients),
                static_cast<unsigned long long>(S.Running),
                static_cast<unsigned long long>(S.Queued),
                static_cast<unsigned long long>(S.Shed),
                static_cast<unsigned long long>(S.ReadTimeouts),
                static_cast<unsigned long long>(S.Restarts),
                static_cast<unsigned long long>(S.Reloads),
                static_cast<unsigned long long>(S.ReloadsRejected),
                static_cast<unsigned long long>(S.SockFaults));
    return 0;
  }

  // Spread Count requests over Connections concurrent connections, each
  // issuing its share sequentially (send, await response, repeat).
  if (Connections > Count)
    Connections = Count;
  std::vector<std::vector<WireResult>> PerConn(Connections);
  std::vector<std::thread> Threads;
  Threads.reserve(Connections);
  for (uint64_t C = 0; C != Connections; ++C) {
    const size_t Share = static_cast<size_t>(Count / Connections) +
                         (C < Count % Connections ? 1 : 0);
    Threads.emplace_back(runConnection, std::cref(Socket), std::cref(Args),
                         C * 1000000 + 1, Share, NoRetry,
                         std::ref(PerConn[C]));
  }
  for (std::thread &T : Threads)
    T.join();

  // Every response must be a RunResult, and all of them byte-identical:
  // the daemon's dedup contract says the same request yields the same
  // bytes no matter how (computed/coalesced/cached) it was served.
  const WireResult *First = nullptr;
  uint64_t Served[3] = {0, 0, 0};
  uint64_t Failures = 0, Total = 0;
  for (const std::vector<WireResult> &Conn : PerConn)
    for (const WireResult &W : Conn) {
      ++Total;
      if (!W.Ok) {
        ++Failures;
        std::fprintf(stderr, "posed-client: request failed: %s\n",
                     W.Problem.c_str());
        continue;
      }
      ++Served[static_cast<uint32_t>(W.R.Served)];
      if (!First) {
        First = &W;
        continue;
      }
      if (W.R.ExitCode != First->R.ExitCode ||
          W.R.Stdout != First->R.Stdout ||
          (!IgnoreStderr && W.R.Stderr != First->R.Stderr)) {
        ++Failures;
        std::fprintf(stderr,
                     "posed-client: response divergence: a %s response "
                     "differs from the first (%s) one\n",
                     servedFromName(W.R.Served),
                     servedFromName(First->R.Served));
      }
    }

  if (!Quiet)
    std::fprintf(stderr,
                 "posed-client: %llu response(s) over %llu connection(s): "
                 "computed=%llu coalesced=%llu cached=%llu failures=%llu\n",
                 static_cast<unsigned long long>(Total),
                 static_cast<unsigned long long>(Connections),
                 static_cast<unsigned long long>(Served[0]),
                 static_cast<unsigned long long>(Served[1]),
                 static_cast<unsigned long long>(Served[2]),
                 static_cast<unsigned long long>(Failures));
  if (!First || Failures != 0)
    return 1;

  if (!OutPath.empty() && !writeFileBytes(OutPath, First->R.Stdout)) {
    std::fprintf(stderr, "posed-client: cannot write '%s'\n",
                 OutPath.c_str());
    return 1;
  }
  if (Count == 1) {
    // Single-request mode behaves like running posec directly.
    if (OutPath.empty())
      std::fwrite(First->R.Stdout.data(), 1, First->R.Stdout.size(), stdout);
    std::fwrite(First->R.Stderr.data(), 1, First->R.Stderr.size(), stderr);
    return First->R.ExitCode;
  }
  return First->R.ExitCode == 0 ? 0 : First->R.ExitCode;
}
