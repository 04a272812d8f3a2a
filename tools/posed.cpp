//===- posed.cpp - POSE phase-order search daemon -------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// posed — phase-order search as a service. Binds a Unix-domain socket,
// accepts framed posec command lines from many concurrent clients
// (protocol: src/serve/Protocol.h, contract: docs/SERVICE.md), and
// schedules them fairly onto a bounded fleet of sandboxed posec children
// sharing one artifact store. Identical requests — concurrent or
// repeated — cost one computation.
//
//   posed --socket=PATH --store=DIR [options]
//
// The options are the rows of the flag table in main(); a command-line
// error prints the usage text rendered from them.
//
// Exit codes (src/drive/ExitCodes.h): 0 after a graceful SIGTERM/SIGINT
// drain, 1 internal error, 2 usage, 12 socket setup failure, 13 when
// --watchdog exhausted its restart budget.
//
//===----------------------------------------------------------------------===//

#include "src/drive/ExitCodes.h"
#include "src/serve/Daemon.h"
#include "src/serve/Watchdog.h"
#include "src/support/FaultSock.h"
#include "src/support/Flags.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <limits.h>
#include <unistd.h>

using namespace pose;

namespace {

/// Default posec path: the binary sitting next to posed itself.
std::string siblingPosec() {
  char Buf[PATH_MAX];
  const ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "posec";
  Buf[N] = '\0';
  std::string Path(Buf);
  const size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return "posec";
  return Path.substr(0, Slash + 1) + "posec";
}

} // namespace

int main(int Argc, char **Argv) {
  serve::ServeOptions O;
  serve::WatchdogOptions W;
  bool Watchdog = false;

  uint64_t MaxRestarts = W.MaxRestarts;
  const std::vector<Flag> Flags = flagTable(
      textFlag("--socket", "PATH", O.SocketPath,
               "Unix-domain socket to serve on")
          .required(),
      textFlag("--store", "DIR", O.StoreDir,
               "shared artifact store for all requests")
          .required(),
      textFlag("--posec", "BIN", O.PosecPath,
               "posec binary to spawn (default: the 'posec' next to this "
               "executable)"),
      uintFlag("--max-jobs", O.MaxJobs, 1, UINT64_MAX,
               "concurrent posec children (default 4)"),
      uintFlag("--max-inflight", O.MaxInFlightPerClient, 1, UINT64_MAX,
               "per-client queued+running cap (default 8)"),
      uintFlag("--request-timeout-ms", O.RequestTimeoutMs, 0, UINT64_MAX,
               "admission deadline and child kill timer (default 300000; 0 "
               "= none)"),
      // Capped where the byte count still fits in 64 bits.
      uintFlag("--rlimit-mb", O.WorkerRlimitMb, 0, UINT64_MAX >> 20,
               "RLIMIT_AS per child in MiB (default 0)"),
      uintFlag("--cache-entries", O.CacheEntries, 0, UINT64_MAX,
               "completed-response cache size (default 256)"),
      uintFlag("--read-timeout-ms", O.ReadTimeoutMs, 0, UINT64_MAX,
               "drop peers making no I/O progress for N ms (default 30000; "
               "0 = off)"),
      uintFlag("--max-queue", O.MaxQueueDepth, 0, UINT64_MAX,
               "global queued-request cap; beyond it requests are shed with "
               "'overloaded' plus a retry-after hint (default 256; 0 = "
               "unlimited)"),
      textFlag("--reload-store", "DIR", O.ReloadStoreDir,
               "staging store a Reload frame / SIGHUP swaps in after it "
               "passes fsck (default: reloads refused)"),
      switchFlag("--watchdog", Watchdog,
                 "supervise the daemon: hold the socket, restart it on crash "
                 "or hang, exit 13 when the restart budget runs out"),
      uintFlag("--max-restarts", MaxRestarts, 0, 1'000'000,
               "watchdog restart budget (default 5; 0 = never restart)")
          .needs({"--watchdog"}),
      uintFlag("--heartbeat-timeout-ms", W.HeartbeatTimeoutMs, 0, UINT64_MAX,
               "watchdog hang detector: a daemon silent this long is killed "
               "and restarted (default 5000; 0 = off)")
          .needs({"--watchdog"}),
      // Repeats append: each --fault-sock adds its faults to the plan.
      customFlag(
          "--fault-sock", "SPEC",
          "<kind>:<nth>[,<kind>:<nth>...] with kind one of short-write, "
          "eagain-storm, disconnect, stalled-peer and nth >= 1",
          [&O](const std::string &V) {
            std::vector<SockFaultSpec> Parsed;
            if (!SockFaultSpec::parse(V, Parsed))
              return false;
            O.SockFaults.insert(O.SockFaults.end(), Parsed.begin(),
                                Parsed.end());
            return true;
          },
          "inject socket faults for testing: <kind>:<nth>[,...] with kind "
          "one of short-write, eagain-storm, disconnect, stalled-peer"),
      switchFlag("--verbose", O.Verbose, "per-request log lines on stderr"));
  std::vector<std::string> Args;
  std::string Error;
  if (parseFlags(Flags, Argc, Argv, Args, nullptr, Error) && !Args.empty())
    Error = "unexpected argument '" + Args.front() + "'";
  if (!Error.empty()) {
    std::fprintf(stderr, "%s\n%s", Error.c_str(),
                 renderUsage("posed --socket=PATH --store=DIR [options]", Flags)
                     .c_str());
    return drive::ExitCode::Usage;
  }
  W.MaxRestarts = static_cast<unsigned>(MaxRestarts);
  if (O.PosecPath.empty())
    O.PosecPath = siblingPosec();

  if (Watchdog)
    return serve::runWatchdog(O, W);
  return serve::runDaemon(O);
}
