//===- Daemon.cpp - posed: phase-order search as a service ----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Daemon.h"

#include "src/drive/ExitCodes.h"
#include "src/serve/Protocol.h"
#include "src/store/ArtifactStore.h"
#include "src/store/StoreAdmin.h"
#include "src/support/FaultSock.h"
#include "src/support/StopToken.h"
#include "src/support/Subprocess.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pose;
using namespace pose::serve;

namespace {

/// Self-pipe write end for the signal handlers; only async-signal-safe
/// operations are allowed there, and a one-byte write to a non-blocking
/// pipe is exactly that.
volatile sig_atomic_t GotShutdownSignal = 0;
volatile sig_atomic_t GotReloadSignal = 0;
int ShutdownPipeWr = -1;

void onShutdownSignal(int) {
  GotShutdownSignal = 1;
  const char B = 1;
  if (ShutdownPipeWr >= 0) {
    const ssize_t Ignored = ::write(ShutdownPipeWr, &B, 1);
    (void)Ignored;
  }
}

/// SIGHUP = reload the staging store, the classic daemon convention.
/// Same self-pipe wakeup; the main loop does the actual (non-signal-
/// safe) fsck + swap.
void onReloadSignal(int) {
  GotReloadSignal = 1;
  const char B = 1;
  if (ShutdownPipeWr >= 0) {
    const ssize_t Ignored = ::write(ShutdownPipeWr, &B, 1);
    (void)Ignored;
  }
}

/// Steady-clock milliseconds for I/O deadlines (wall-clock jumps must
/// not kill connections).
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

void setCloexec(int Fd) { ::fcntl(Fd, F_SETFD, FD_CLOEXEC); }

/// Flags the daemon refuses to serve: store plumbing (the daemon owns
/// the store), supervisor/worker modes (a served request is already a
/// child), the fault-injection surface (a client must not be able to
/// corrupt the shared store or crash the fleet by request), and any flag
/// that writes a file at a client-chosen path (it could overwrite a store
/// artifact, or anything else the daemon may write).
bool isDeniedArg(const std::string &A, std::string &Flag) {
  static const char *const Denied[] = {
      "--store",          "--merge-store",      "--fsck",
      "--repair",         "--worker",           "--supervise",
      "--list-quarantine", "--clear-quarantine", "--inject-fault",
      "--fault-io",       "--fault-func",       "--fault-attempts",
      "--sweep-jobs",     "--worker-timeout-ms", "--worker-rlimit-mb",
      "--max-retries",    "--shard",            "--save-model"};
  for (const char *F : Denied) {
    const size_t N = std::strlen(F);
    if (A.compare(0, N, F) == 0 && (A.size() == N || A[N] == '=')) {
      Flag = F;
      return true;
    }
  }
  return false;
}

/// One admitted-but-not-yet-scheduled Run request.
struct Pending {
  uint64_t ReqId = 0;
  std::vector<std::string> Args;
  std::string Key; ///< Exact argv bytes: the dedup identity.
  ResourceGovernor Admission; ///< Deadline armed at admission; expires
                              ///< the request even while queued.
};

/// One client connection.
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;
  SockIo *Io = nullptr; ///< Notified before close (per-fd fault state).
  FrameReader In{kMaxRequestPayload};
  std::string Out;   ///< Encoded response bytes not yet written.
  size_t OutPos = 0; ///< Written prefix of Out.
  std::deque<Pending> Queue;
  size_t Running = 0; ///< Requests attached to an in-flight job.
  uint64_t LastActivityMs = 0; ///< Last successful read or send progress.
  bool CloseAfterFlush = false;
  bool Dead = false;

  ~Conn() {
    if (Fd >= 0) {
      if (Io)
        Io->closed(Fd);
      ::close(Fd);
    }
  }
};

/// One request waiting on a posec child.
struct Waiter {
  uint64_t ConnId = 0;
  uint64_t ReqId = 0;
  bool Initiator = false; ///< Triggered the spawn (ServedFrom::Computed).
};

/// One in-flight posec child and everyone waiting on it.
struct Job {
  std::string Key;
  std::vector<Waiter> Waiters;
};

struct CacheEntry {
  int32_t ExitCode = 0;
  std::string Stdout;
  std::string Stderr;
  std::list<std::string>::iterator LruIt;
};

class Daemon {
public:
  explicit Daemon(const ServeOptions &O)
      : O(O), CurrentStore(O.StoreDir) {}
  int run();

private:
  Conn *findConn(uint64_t Id);
  void queueBytes(Conn &C, const std::vector<uint8_t> &Bytes);
  void sendError(Conn &C, uint64_t ReqId, ErrorCode Code, std::string Msg,
                 uint32_t RetryAfterMs = 0);
  void sendResult(Conn &C, uint64_t ReqId, ServedFrom Served,
                  const CacheEntry &E);
  void flushOut(Conn &C);
  void acceptClients();
  void readClient(Conn &C);
  void dispatch(Conn &C, MsgKind Kind, const std::vector<uint8_t> &Payload);
  void handleRun(Conn &C, const std::vector<uint8_t> &Payload);
  bool reloadStore(std::string &Why);
  void abandonConn(Conn &C);
  void expireQueued();
  void expireStalledReads();
  void schedule();
  void startJob(Conn &C, Pending P);
  void completeJob(SubprocessPool::JobId Id, const SubprocessResult &R);
  CacheEntry *cacheFind(const std::string &Key);
  void cacheInsert(const std::string &Key, CacheEntry E);
  uint64_t totalQueued() const;
  uint32_t retryAfterHintMs() const;
  StatsReport stats() const;
  bool drained() const;

  const ServeOptions &O;
  std::string CurrentStore; ///< Store served right now; a Reload swaps
                            ///< it. In-flight children keep the path
                            ///< they were spawned with.
  SockIo *Io = &SockIo::system(); ///< Connection I/O; FaultSock in tests.
  std::unique_ptr<FaultSock> Injector; ///< Owns Io when faults are on.
  SubprocessPool Pool;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::unordered_map<SubprocessPool::JobId, Job> Jobs;
  std::unordered_map<std::string, SubprocessPool::JobId> InFlightByKey;
  std::unordered_map<std::string, CacheEntry> Cache;
  std::list<std::string> CacheLru; ///< Front = coldest, back = hottest.
  int ListenFd = -1;
  int PipeRd = -1;
  uint64_t NextConnId = 1;
  size_t RRCursor = 0; ///< Round-robin scan start for fair scheduling.
  bool Draining = false;
  StatsReport Counters; ///< Gauges recomputed in stats().
};

Conn *Daemon::findConn(uint64_t Id) {
  for (std::unique_ptr<Conn> &C : Conns)
    if (C->Id == Id && !C->Dead)
      return C.get();
  return nullptr;
}

void Daemon::queueBytes(Conn &C, const std::vector<uint8_t> &Bytes) {
  if (C.Dead)
    return;
  C.Out.append(reinterpret_cast<const char *>(Bytes.data()), Bytes.size());
}

void Daemon::sendError(Conn &C, uint64_t ReqId, ErrorCode Code,
                       std::string Msg, uint32_t RetryAfterMs) {
  if (O.Verbose)
    std::fprintf(stderr, "posed: conn %llu req %llu: %s: %s\n",
                 static_cast<unsigned long long>(C.Id),
                 static_cast<unsigned long long>(ReqId), errorCodeName(Code),
                 Msg.c_str());
  ErrorResponse E;
  E.Id = ReqId;
  E.Code = Code;
  E.Message = std::move(Msg);
  E.RetryAfterMs = RetryAfterMs;
  queueBytes(C, encodeErrorResponse(E));
  ++Counters.Errors;
}

void Daemon::sendResult(Conn &C, uint64_t ReqId, ServedFrom Served,
                        const CacheEntry &E) {
  RunResponse R;
  R.Id = ReqId;
  R.Served = Served;
  R.ExitCode = E.ExitCode;
  R.Stdout = E.Stdout;
  R.Stderr = E.Stderr;
  queueBytes(C, encodeRunResponse(R));
}

void Daemon::flushOut(Conn &C) {
  while (!C.Dead && C.OutPos < C.Out.size()) {
    const ssize_t N = Io->send(C.Fd, C.Out.data() + C.OutPos,
                               C.Out.size() - C.OutPos);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      C.LastActivityMs = nowMs();
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N < 0 && errno == EINTR)
      continue;
    C.Dead = true; // Peer vanished mid-write.
    return;
  }
  if (C.OutPos == C.Out.size()) {
    C.Out.clear();
    C.OutPos = 0;
    if (C.CloseAfterFlush)
      C.Dead = true;
  }
}

void Daemon::acceptClients() {
  for (;;) {
    const int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or a transient accept failure; poll again later.
    }
    setNonBlocking(Fd);
    setCloexec(Fd);
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Id = NextConnId++;
    C->Io = Io;
    C->LastActivityMs = nowMs();
    if (O.Verbose)
      std::fprintf(stderr, "posed: conn %llu connected\n",
                   static_cast<unsigned long long>(C->Id));
    Conns.push_back(std::move(C));
  }
}

void Daemon::readClient(Conn &C) {
  char Buf[65536];
  for (;;) {
    const ssize_t N = Io->read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.In.feed(reinterpret_cast<const uint8_t *>(Buf),
                static_cast<size_t>(N));
      C.LastActivityMs = nowMs();
      if (static_cast<size_t>(N) < sizeof(Buf))
        break; // Likely drained; poll decides.
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    // EOF or a hard error: the client is gone.
    abandonConn(C);
    return;
  }

  MsgKind Kind;
  std::vector<uint8_t> Payload;
  std::string Why;
  for (;;) {
    const FrameReader::Status S = C.In.next(Kind, Payload, Why);
    if (S == FrameReader::Status::NeedMore)
      return;
    if (S == FrameReader::Status::Malformed) {
      // Length-prefixed streams cannot resynchronize after a bad
      // header: answer with a diagnostic, flush it, drop the client.
      // The daemon itself stays up.
      sendError(C, 0, ErrorCode::BadFrame, Why);
      C.CloseAfterFlush = true;
      return;
    }
    dispatch(C, Kind, Payload);
    if (C.Dead || C.CloseAfterFlush)
      return;
  }
}

void Daemon::dispatch(Conn &C, MsgKind Kind,
                      const std::vector<uint8_t> &Payload) {
  if (!isRequestKind(Kind)) {
    sendError(C, 0, ErrorCode::BadFrame,
              "unknown or response-direction frame kind " +
                  std::to_string(static_cast<uint32_t>(Kind)));
    C.CloseAfterFlush = true;
    return;
  }
  switch (Kind) {
  case MsgKind::Ping:
    queueBytes(C, encodePong());
    return;
  case MsgKind::Stats:
    queueBytes(C, encodeStatsReport(stats()));
    return;
  case MsgKind::Shutdown:
    if (O.Verbose)
      std::fprintf(stderr, "posed: shutdown requested by conn %llu\n",
                   static_cast<unsigned long long>(C.Id));
    Draining = true;
    queueBytes(C, encodePong());
    return;
  case MsgKind::Reload: {
    if (Draining) {
      sendError(C, 0, ErrorCode::ShuttingDown,
                "daemon is draining; no reload");
      return;
    }
    std::string Why;
    if (reloadStore(Why))
      queueBytes(C, encodePong());
    else
      sendError(C, 0, ErrorCode::ReloadRejected, Why);
    return;
  }
  case MsgKind::Run:
    handleRun(C, Payload);
    return;
  default:
    return; // Unreachable: isRequestKind filtered everything else.
  }
}

void Daemon::handleRun(Conn &C, const std::vector<uint8_t> &Payload) {
  RunRequest R;
  std::string Why;
  if (!decodeRunRequest(Payload, R, Why)) {
    // The frame was intact (CRCs passed) but the payload is not a run
    // request — a broken or hostile client; drop it like a bad frame.
    sendError(C, 0, ErrorCode::BadRequest, Why);
    C.CloseAfterFlush = true;
    return;
  }
  if (Draining) {
    sendError(C, R.Id, ErrorCode::ShuttingDown,
              "daemon is draining; no new work admitted");
    return;
  }
  for (const std::string &A : R.Args) {
    std::string Flag;
    if (isDeniedArg(A, Flag)) {
      sendError(C, R.Id, ErrorCode::DeniedArg,
                "flag '" + Flag + "' is not served: the daemon owns the "
                "store, supervision, and fault plumbing");
      return;
    }
  }
  if (C.Queue.size() + C.Running >= O.MaxInFlightPerClient) {
    sendError(C, R.Id, ErrorCode::Overloaded,
              "client in-flight budget of " +
                  std::to_string(O.MaxInFlightPerClient) +
                  " exhausted; wait for a completion");
    return;
  }
  // The cap measures backlog that cannot start immediately: requests
  // admitted in this dispatch pass but destined for a free worker slot
  // (schedule() runs right after) are not "queued" in any sense a
  // client should be shed over.
  const uint64_t FreeSlots =
      Pool.live() < O.MaxJobs ? O.MaxJobs - Pool.live() : 0;
  if (O.MaxQueueDepth != 0 &&
      totalQueued() >= O.MaxQueueDepth + FreeSlots) {
    // Global shed: the queue is deep across every client, so "wait for
    // one of your own completions" is the wrong advice — tell the
    // client how long the backlog is worth in wall-clock instead.
    ++Counters.Shed;
    sendError(C, R.Id, ErrorCode::Overloaded,
              "daemon queue depth cap of " +
                  std::to_string(O.MaxQueueDepth) +
                  " reached; retry after the hint",
              retryAfterHintMs());
    return;
  }

  Pending P;
  P.ReqId = R.Id;
  P.Key.reserve(64);
  for (const std::string &A : R.Args) {
    P.Key += A;
    P.Key += '\0'; // Args cannot contain NUL (decode rejects it).
  }
  P.Args = std::move(R.Args);
  P.Admission.setDeadline(O.RequestTimeoutMs);
  C.Queue.push_back(std::move(P));
  ++Counters.Requests;
}

bool Daemon::reloadStore(std::string &Why) {
  if (O.ReloadStoreDir.empty()) {
    ++Counters.ReloadsRejected;
    Why = "no staging store configured (--reload-store)";
    return false;
  }
  // The gate: never swap to a store that fails fsck. The check runs
  // in-process (no repair — a staging store is someone else's output;
  // mutating it here would mask the deployment bug being caught).
  const store::FsckReport R = store::fsckStore(O.ReloadStoreDir,
                                               /*Repair=*/false);
  if (!R.Error.empty()) {
    ++Counters.ReloadsRejected;
    Why = "candidate store '" + O.ReloadStoreDir + "': " + R.Error;
    return false;
  }
  if (!R.clean()) {
    ++Counters.ReloadsRejected;
    Why = "candidate store '" + O.ReloadStoreDir + "' failed fsck: " +
          std::to_string(R.Corrupt) + " corrupt, " +
          std::to_string(R.Truncated) + " truncated, " +
          std::to_string(R.Orphans) + " orphaned";
    return false;
  }
  // Atomic from the service's point of view: children spawned from here
  // on get the new path; in-flight children finish against the old one
  // and their responses are still delivered (stdout + exit code are
  // store-independent, so the dedup contract is unbroken across the
  // swap). The response cache stays valid for the same reason.
  CurrentStore = O.ReloadStoreDir;
  ++Counters.Reloads;
  std::fprintf(stderr, "posed: reloaded store '%s' (fsck clean)\n",
               CurrentStore.c_str());
  return true;
}

void Daemon::abandonConn(Conn &C) {
  if (C.Dead)
    return;
  C.Dead = true;
  if (O.Verbose)
    std::fprintf(stderr, "posed: conn %llu disconnected (%zu queued, %zu "
                         "running abandoned)\n",
                 static_cast<unsigned long long>(C.Id), C.Queue.size(),
                 C.Running);
  C.Queue.clear();
  // Detach this client from every in-flight job; a job nobody waits on
  // anymore is killed so a vanished client cannot pin a worker slot.
  for (auto It = Jobs.begin(); It != Jobs.end();) {
    Job &J = It->second;
    J.Waiters.erase(std::remove_if(J.Waiters.begin(), J.Waiters.end(),
                                   [&](const Waiter &W) {
                                     return W.ConnId == C.Id;
                                   }),
                    J.Waiters.end());
    if (J.Waiters.empty()) {
      Pool.kill(It->first);
      InFlightByKey.erase(J.Key);
      // The killed child still surfaces from a later wait(); the erased
      // map entry makes completeJob drop that result on the floor.
      It = Jobs.erase(It);
    } else {
      ++It;
    }
  }
  C.Running = 0;
}

void Daemon::expireQueued() {
  for (std::unique_ptr<Conn> &CP : Conns) {
    Conn &C = *CP;
    if (C.Dead)
      continue;
    for (size_t I = 0; I != C.Queue.size();) {
      if (C.Queue[I].Admission.check() == StopReason::Complete) {
        ++I;
        continue;
      }
      sendError(C, C.Queue[I].ReqId, ErrorCode::Deadline,
                "request exceeded its " +
                    std::to_string(O.RequestTimeoutMs) +
                    "ms admission deadline while queued");
      C.Queue.erase(C.Queue.begin() + static_cast<ptrdiff_t>(I));
    }
  }
}

void Daemon::expireStalledReads() {
  if (O.ReadTimeoutMs == 0)
    return;
  const uint64_t Now = nowMs();
  for (std::unique_ptr<Conn> &CP : Conns) {
    Conn &C = *CP;
    if (C.Dead)
      continue;
    // A connection legitimately waiting on its own in-flight work (and
    // with nothing half-transferred in either direction) is exempt: a
    // long enumeration is not a stalled peer. Everything else — a frame
    // torn mid-parse (slow-loris), a response the peer will not read,
    // or a half-open idle socket — is reclaimed after the deadline.
    const bool MidFrame = C.In.buffered() > 0;
    const bool WriteStuck = C.OutPos < C.Out.size();
    const bool Idle = C.Queue.empty() && C.Running == 0 && !WriteStuck;
    if (!(MidFrame || WriteStuck || Idle))
      continue;
    if (Now - C.LastActivityMs <= O.ReadTimeoutMs)
      continue;
    ++Counters.ReadTimeouts;
    if (O.Verbose)
      std::fprintf(stderr,
                   "posed: conn %llu made no progress for %llums "
                   "(%s); dropping\n",
                   static_cast<unsigned long long>(C.Id),
                   static_cast<unsigned long long>(Now - C.LastActivityMs),
                   MidFrame      ? "mid-frame"
                   : WriteStuck ? "unread response"
                                : "idle");
    abandonConn(C);
  }
}

void Daemon::schedule() {
  // Round-robin across clients: take at most one schedulable request per
  // client per pass, so a client with a deep queue cannot starve the
  // others. Cache hits and coalesced requests do not consume a worker
  // slot and are answered regardless of fleet occupancy.
  bool Progress = true;
  while (Progress && !Conns.empty()) {
    Progress = false;
    for (size_t K = 0; K != Conns.size(); ++K) {
      const size_t Idx = (RRCursor + K) % Conns.size();
      Conn &C = *Conns[Idx];
      if (C.Dead || C.Queue.empty())
        continue;
      if (CacheEntry *E = cacheFind(C.Queue.front().Key)) {
        sendResult(C, C.Queue.front().ReqId, ServedFrom::Cached, *E);
        ++Counters.CacheHits;
        C.Queue.pop_front();
        Progress = true;
        continue;
      }
      const auto It = InFlightByKey.find(C.Queue.front().Key);
      if (It != InFlightByKey.end()) {
        Jobs[It->second].Waiters.push_back(
            {C.Id, C.Queue.front().ReqId, false});
        ++Counters.Coalesced;
        ++C.Running;
        C.Queue.pop_front();
        Progress = true;
        continue;
      }
      if (Pool.live() >= O.MaxJobs)
        continue; // Fleet is full; this client keeps its turn.
      Pending P = std::move(C.Queue.front());
      C.Queue.pop_front();
      RRCursor = Idx + 1;
      startJob(C, std::move(P));
      Progress = true;
    }
  }
}

void Daemon::startJob(Conn &C, Pending P) {
  SubprocessSpec Spec;
  Spec.Argv.reserve(P.Args.size() + 2);
  Spec.Argv.push_back(O.PosecPath);
  for (std::string &A : P.Args)
    Spec.Argv.push_back(std::move(A));
  Spec.Argv.push_back("--store=" + CurrentStore);
  Spec.TimeoutMs = O.RequestTimeoutMs;
  Spec.MemoryLimitBytes = O.WorkerRlimitMb * 1024 * 1024;

  const SubprocessPool::JobId Id = Pool.spawn(Spec);
  Job J;
  J.Key = std::move(P.Key);
  J.Waiters.push_back({C.Id, P.ReqId, true});
  InFlightByKey[J.Key] = Id;
  Jobs[Id] = std::move(J);
  ++C.Running;
  ++Counters.Computed;
  if (O.Verbose)
    std::fprintf(stderr, "posed: conn %llu req %llu: spawned job %llu\n",
                 static_cast<unsigned long long>(C.Id),
                 static_cast<unsigned long long>(P.ReqId),
                 static_cast<unsigned long long>(Id));
}

void Daemon::completeJob(SubprocessPool::JobId Id,
                         const SubprocessResult &R) {
  const auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return; // Killed after its last waiter disconnected; nobody cares.
  Job J = std::move(It->second);
  Jobs.erase(It);
  InFlightByKey.erase(J.Key);

  if (R.Kind == ExitKind::Exited) {
    CacheEntry E;
    E.ExitCode = R.ExitCode;
    E.Stdout = R.Stdout;
    E.Stderr = R.Stderr;
    for (const Waiter &W : J.Waiters)
      if (Conn *C = findConn(W.ConnId)) {
        sendResult(*C, W.ReqId,
                   W.Initiator ? ServedFrom::Computed
                               : ServedFrom::Coalesced,
                   E);
        --C->Running;
      }
    cacheInsert(J.Key, std::move(E));
    return;
  }

  std::string Msg;
  switch (R.Kind) {
  case ExitKind::SpawnFailed:
    Msg = "cannot spawn posec: " + R.Error;
    break;
  case ExitKind::Signalled:
    Msg = "worker died: signal " + std::to_string(R.Signal);
    break;
  case ExitKind::TimedOut:
    Msg = "request exceeded its " + std::to_string(O.RequestTimeoutMs) +
          "ms deadline and was killed";
    break;
  case ExitKind::PollFailed:
    Msg = "worker harness failed: " + R.Error;
    break;
  case ExitKind::Exited:
    break; // Handled above.
  }
  const ErrorCode Code = R.Kind == ExitKind::TimedOut
                             ? ErrorCode::Deadline
                             : ErrorCode::WorkerFailed;
  for (const Waiter &W : J.Waiters)
    if (Conn *C = findConn(W.ConnId)) {
      sendError(*C, W.ReqId, Code, Msg);
      --C->Running;
    }
}

CacheEntry *Daemon::cacheFind(const std::string &Key) {
  const auto It = Cache.find(Key);
  if (It == Cache.end())
    return nullptr;
  CacheLru.splice(CacheLru.end(), CacheLru, It->second.LruIt);
  return &It->second;
}

void Daemon::cacheInsert(const std::string &Key, CacheEntry E) {
  if (O.CacheEntries == 0)
    return;
  const auto It = Cache.find(Key);
  if (It != Cache.end()) {
    E.LruIt = It->second.LruIt;
    It->second = std::move(E);
    CacheLru.splice(CacheLru.end(), CacheLru, It->second.LruIt);
    return;
  }
  while (Cache.size() >= O.CacheEntries && !CacheLru.empty()) {
    Cache.erase(CacheLru.front());
    CacheLru.pop_front();
  }
  CacheLru.push_back(Key);
  E.LruIt = std::prev(CacheLru.end());
  Cache.emplace(Key, std::move(E));
}

uint64_t Daemon::totalQueued() const {
  uint64_t Q = 0;
  for (const std::unique_ptr<Conn> &C : Conns)
    if (!C->Dead)
      Q += C->Queue.size();
  return Q;
}

uint32_t Daemon::retryAfterHintMs() const {
  // A coarse backlog estimate: ~100ms of service time per queued batch
  // of MaxJobs, capped so a hint never tells a client to go away for
  // longer than the backoff ceiling clients already use.
  const uint64_t PerBatchMs = 100;
  const uint64_t Batches = totalQueued() / std::max<uint64_t>(1, O.MaxJobs);
  return static_cast<uint32_t>(
      std::min<uint64_t>(5'000, PerBatchMs * (Batches + 1)));
}

StatsReport Daemon::stats() const {
  StatsReport S = Counters;
  S.Clients = 0;
  for (const std::unique_ptr<Conn> &C : Conns)
    if (!C->Dead)
      ++S.Clients;
  S.Queued = totalQueued();
  S.Running = Pool.live();
  S.Restarts = O.RestartCount;
  S.SockFaults = Injector ? Injector->fired() : 0;
  return S;
}

bool Daemon::drained() const {
  if (!Jobs.empty() || Pool.live() != 0)
    return false;
  for (const std::unique_ptr<Conn> &C : Conns)
    if (!C->Dead && (!C->Queue.empty() || C->OutPos < C->Out.size()))
      return false;
  return true;
}

int Daemon::run() {
  if (!O.SockFaults.empty()) {
    Injector = std::make_unique<FaultSock>(O.SockFaults);
    Io = Injector.get();
  }

  // The shared store must exist before the first child races to create
  // it, and a tmp file orphaned by a previous daemon's crash must not
  // survive into fsck. reclaimTmp is safe on a first start: no worker
  // is running. On a watchdog *restart* it is skipped — posec children
  // orphaned by the crashed incarnation may still be mid-write, and
  // their tmp files are live, not garbage (commits are atomic renames,
  // so letting them finish is harmless and reclaiming under them is
  // not).
  store::ArtifactStore Store(O.StoreDir);
  std::string Err;
  if (!Store.prepare(Err)) {
    std::fprintf(stderr, "posed: %s\n", Err.c_str());
    return drive::ExitCode::Error;
  }
  if (O.RestartCount == 0)
    Store.reclaimTmp();

  const bool InheritedSocket = O.InheritedListenFd >= 0;
  if (InheritedSocket) {
    ListenFd = O.InheritedListenFd;
    setNonBlocking(ListenFd);
  } else {
    ListenFd = bindListeningSocket(O.SocketPath, Err);
    if (ListenFd < 0) {
      std::fprintf(stderr, "posed: %s\n", Err.c_str());
      return drive::ExitCode::ServeSocket;
    }
  }

  int Pipe[2] = {-1, -1};
  if (::pipe(Pipe) != 0) {
    std::fprintf(stderr, "posed: pipe: %s\n", std::strerror(errno));
    ::close(ListenFd);
    if (!InheritedSocket)
      ::unlink(O.SocketPath.c_str());
    return drive::ExitCode::Error;
  }
  PipeRd = Pipe[0];
  setNonBlocking(Pipe[0]);
  setNonBlocking(Pipe[1]);
  setCloexec(Pipe[0]);
  setCloexec(Pipe[1]);
  ShutdownPipeWr = Pipe[1];
  GotShutdownSignal = 0;
  GotReloadSignal = 0;

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onShutdownSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  struct sigaction HupSA;
  std::memset(&HupSA, 0, sizeof(HupSA));
  HupSA.sa_handler = onReloadSignal;
  ::sigaction(SIGHUP, &HupSA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "posed: serving on %s (store %s, max-jobs %llu, "
               "max-inflight %llu, request-timeout %llums%s)\n",
               O.SocketPath.c_str(), O.StoreDir.c_str(),
               static_cast<unsigned long long>(O.MaxJobs),
               static_cast<unsigned long long>(O.MaxInFlightPerClient),
               static_cast<unsigned long long>(O.RequestTimeoutMs),
               O.RestartCount != 0 ? ", restarted" : "");

  std::vector<ExternalFd> Ext;
  for (;;) {
    Ext.clear();
    Ext.push_back({PipeRd, POLLIN, 0});
    const size_t ListenSlot = Ext.size();
    if (ListenFd >= 0)
      Ext.push_back({ListenFd, POLLIN, 0});
    const size_t ConnBase = Ext.size();
    std::vector<uint64_t> ConnIds;
    for (std::unique_ptr<Conn> &C : Conns) {
      if (C->Dead)
        continue;
      short Events = POLLIN;
      if (C->OutPos < C->Out.size())
        Events |= POLLOUT;
      Ext.push_back({C->Fd, Events, 0});
      ConnIds.push_back(C->Id);
    }

    const auto Done = Pool.wait(200, &Ext);
    for (const auto &D : Done)
      completeJob(D.first, D.second);

    // One heartbeat byte per loop iteration: the watchdog's only proof
    // that the daemon is turning over, not wedged. Non-blocking, result
    // ignored — a full pipe means the watchdog is slow, not us.
    if (O.HeartbeatFd >= 0) {
      const char Beat = 1;
      const ssize_t Ignored = ::write(O.HeartbeatFd, &Beat, 1);
      (void)Ignored;
    }

    if (GotShutdownSignal && !Draining) {
      Draining = true;
      std::fprintf(stderr, "posed: shutdown signal; draining %zu job(s)\n",
                   Jobs.size());
    }
    if (GotReloadSignal) {
      GotReloadSignal = 0;
      if (!Draining) {
        std::string Why;
        if (!reloadStore(Why))
          std::fprintf(stderr, "posed: SIGHUP reload rejected: %s\n",
                       Why.c_str());
      }
    }
    if (Ext[0].Revents != 0) {
      char Drain[64];
      while (::read(PipeRd, Drain, sizeof(Drain)) > 0) {
      }
    }
    if (Draining && ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    if (ListenFd >= 0 && Ext[ListenSlot].Revents != 0)
      acceptClients();

    for (size_t I = 0; I != ConnIds.size(); ++I) {
      const short Revents = Ext[ConnBase + I].Revents;
      if (Revents == 0)
        continue;
      Conn *C = findConn(ConnIds[I]);
      if (!C)
        continue;
      if (Revents & POLLNVAL) {
        abandonConn(*C);
        continue;
      }
      // Read before honoring POLLHUP/POLLERR: a closed peer with
      // buffered requests still deserves to have them parsed (the
      // answers will fail to send, which is fine).
      if (Revents & (POLLIN | POLLHUP | POLLERR))
        readClient(*C);
      if (Conn *Still = findConn(ConnIds[I]))
        if (Revents & POLLOUT)
          flushOut(*Still);
    }

    expireQueued();
    expireStalledReads();
    schedule();
    for (std::unique_ptr<Conn> &C : Conns)
      if (!C->Dead && C->OutPos < C->Out.size())
        flushOut(*C);

    // Reap dead connections (their fds close in ~Conn).
    for (size_t I = 0; I != Conns.size();) {
      if (Conns[I]->Dead) {
        if (RRCursor > I)
          --RRCursor;
        Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
    if (!Conns.empty())
      RRCursor %= Conns.size();
    else
      RRCursor = 0;

    if (Draining && drained())
      break;
  }

  // Graceful exit: every admitted request was answered and flushed.
  for (std::unique_ptr<Conn> &C : Conns)
    C.reset();
  Conns.clear();
  if (ListenFd >= 0)
    ::close(ListenFd);
  ::close(PipeRd);
  ::close(ShutdownPipeWr);
  ShutdownPipeWr = -1;
  // Under a watchdog the parent owns the socket file (and its own copy
  // of the listening fd); unlinking here would yank it from under a
  // restart.
  if (!InheritedSocket)
    ::unlink(O.SocketPath.c_str());
  // A child killed mid-write (client disconnect, deadline) may have left
  // a tmp file; with the fleet drained it is dead weight — reclaim so
  // the store is fsck-clean for whoever inherits it.
  Store.reclaimTmp();
  std::fprintf(stderr, "posed: drained, exiting\n");
  return drive::ExitCode::Ok;
}

} // namespace

int pose::serve::bindListeningSocket(const std::string &SocketPath,
                                     std::string &Err) {
  struct sockaddr_un Addr;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + SocketPath + "' exceeds " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return -1;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());

  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  setCloexec(Fd);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    if (errno != EADDRINUSE) {
      Err = "bind '" + SocketPath + "': " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
    // A socket file exists. Probe it: a live daemon accepts the
    // connection (refuse to double-serve); a stale file from a dead
    // daemon refuses it and is safe to replace.
    const int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool Live =
        Probe >= 0 &&
        ::connect(Probe, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) == 0;
    if (Probe >= 0)
      ::close(Probe);
    if (Live) {
      Err = "a daemon is already serving '" + SocketPath + "'";
      ::close(Fd);
      return -1;
    }
    ::unlink(SocketPath.c_str());
    if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      Err = "bind '" + SocketPath + "': " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
  }
  if (::listen(Fd, 64) != 0) {
    Err = "listen '" + SocketPath + "': " + std::strerror(errno);
    ::close(Fd);
    ::unlink(SocketPath.c_str());
    return -1;
  }
  setNonBlocking(Fd);
  return Fd;
}

int pose::serve::runDaemon(const ServeOptions &O) {
  Daemon D(O);
  return D.run();
}
