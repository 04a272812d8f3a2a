//===- Daemon.h - posed: phase-order search as a service -------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident posed daemon (ROADMAP item 1): accepts enumerate /
/// analyze / equiv / search requests over a Unix-domain socket (protocol
/// in Protocol.h, contract in docs/SERVICE.md) and schedules them onto a
/// SubprocessPool of sandboxed posec children sharing one ArtifactStore,
/// so identical work — across clients, across time — costs one
/// computation.
///
/// One thread, one blocking point: the pool's poll() loop multiplexes
/// child pipes *and* the daemon's socket fds (SubprocessPool::wait with
/// ExternalFd), so there is no second event loop and nothing to
/// synchronize. Admission control is per request (a ResourceGovernor
/// deadline, an RLIMIT_AS cap on the child, a per-client in-flight
/// budget); scheduling is round-robin across clients so one chatty
/// client cannot starve the rest; identical requests coalesce onto one
/// in-flight child and completed responses are kept in a bounded
/// in-memory cache in front of the store.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SERVE_DAEMON_H
#define POSE_SERVE_DAEMON_H

#include "src/support/FaultSock.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pose {
namespace serve {

/// Everything posed needs to run. Paths are used as given (relative
/// paths resolve in the daemon's working directory, and so do relative
/// file arguments inside requests).
struct ServeOptions {
  std::string SocketPath; ///< Unix-domain socket to bind.
  std::string StoreDir;   ///< Shared ArtifactStore injected into every
                          ///< served posec child (--store=DIR).
  std::string PosecPath;  ///< posec binary to spawn.
  uint64_t MaxJobs = 4;   ///< Concurrent posec children.
  uint64_t MaxInFlightPerClient = 8; ///< Queued+running cap per client;
                                     ///< beyond it requests get
                                     ///< ErrorCode::Overloaded.
  uint64_t RequestTimeoutMs = 300'000; ///< Admission deadline: bounds the
                                       ///< queue wait and is the child's
                                       ///< kill timer. 0 = none.
  uint64_t WorkerRlimitMb = 0; ///< RLIMIT_AS for children; 0 = none.
  uint64_t CacheEntries = 256; ///< Completed-response cache capacity.
  uint64_t ReadTimeoutMs = 30'000; ///< Drop a connection whose peer has
                                   ///< made no I/O progress for this long
                                   ///< while a frame is torn mid-parse, a
                                   ///< response is stuck unflushed, or
                                   ///< nothing is in flight (slow-loris /
                                   ///< half-open peers). 0 = off.
  uint64_t MaxQueueDepth = 256; ///< Global cap on queued Run requests
                                ///< across all clients; beyond it requests
                                ///< are shed with Overloaded plus a
                                ///< retry-after hint. 0 = unlimited.
  std::string ReloadStoreDir; ///< Staging store a Reload frame / SIGHUP
                              ///< swaps in after it passes fsck. Empty =
                              ///< reloads are refused.
  std::vector<SockFaultSpec> SockFaults; ///< Execution-only socket fault
                                         ///< injection (--fault-sock).
  int InheritedListenFd = -1; ///< Watchdog mode: an already-bound,
                              ///< already-listening socket fd to serve
                              ///< on instead of binding SocketPath. The
                              ///< watchdog owns the socket file; the
                              ///< daemon never unlinks it.
  int HeartbeatFd = -1;  ///< Watchdog mode: write end of the heartbeat
                         ///< pipe; the daemon writes one byte per poll
                         ///< iteration so a silent hang is detectable.
  uint64_t RestartCount = 0; ///< Watchdog mode: how many restarts came
                             ///< before this incarnation (stats).
  bool Verbose = false;        ///< Per-request log lines on stderr.
};

/// Runs the daemon until a SIGTERM/SIGINT (or a Shutdown request) drains
/// it. Returns a drive::ExitCode: Ok after a graceful drain, ServeSocket
/// when the socket cannot be set up, Error on an internal failure.
int runDaemon(const ServeOptions &O);

/// Binds and listens on a Unix-domain socket at \p SocketPath, probing a
/// pre-existing socket file for a live owner (refuse) vs. a stale crash
/// leftover (unlink and rebind). Returns the non-blocking listening fd,
/// or -1 with \p Err set. Shared by the daemon and the watchdog, which
/// holds the fd across daemon restarts.
int bindListeningSocket(const std::string &SocketPath, std::string &Err);

} // namespace serve
} // namespace pose

#endif // POSE_SERVE_DAEMON_H
