//===- FaultSock.h - Fault-injecting socket I/O layer ----------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket twin of FaultFs: the read/write surface the posed daemon
/// talks to its clients through, plus a deterministic fault injector
/// over it. The service invariant — every request gets exactly one of
/// {a response byte-identical to one-shot posec, a clean connection
/// drop}, and the shared store stays fsck-clean — is only worth
/// anything if it holds when the kernel misbehaves: short writes under
/// memory pressure, EAGAIN storms from a full socket buffer, peers that
/// vanish mid-frame, peers that stall forever after one byte. Those
/// cannot be provoked reliably against a loopback Unix socket, so
/// \ref FaultSock injects them at an exact operation index instead,
/// driven by the execution-only `posed --fault-sock=<spec>` flag (like
/// `--fault-io`, the spec never changes what is served or stored — a
/// fault-injected daemon answers with the same bytes a clean one
/// would, or not at all).
///
/// Only per-connection data fds are virtualized. The listening socket,
/// the signal self-pipe, and child pipes are harness plumbing, not the
/// request/response path under test.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_FAULTSOCK_H
#define POSE_SUPPORT_FAULTSOCK_H

#include <cstdint>
#include <set>
#include <string>
#include <sys/types.h>
#include <vector>

namespace pose {

/// The socket operations of a daemon connection. The default
/// implementation is the real thing (::read / ::send); \ref FaultSock
/// wraps it. closed() is a notification, not an operation: it lets a
/// decorator drop per-fd state before the kernel reuses the number.
class SockIo {
public:
  virtual ~SockIo() = default;

  /// ::read on a connection fd (non-blocking; -1/EAGAIN when dry).
  virtual ssize_t read(int Fd, void *Buf, size_t N);

  /// ::send with MSG_NOSIGNAL on a connection fd.
  virtual ssize_t send(int Fd, const void *Buf, size_t N);

  /// The connection fd is about to be closed.
  virtual void closed(int Fd) { (void)Fd; }

  /// The real-socket passthrough instance.
  static SockIo &system();
};

/// The injectable failures. Read-class kinds fire on the Nth read();
/// write-class kinds fire on the Nth send() — the two directions of the
/// framed request/response stream.
enum class SockFaultKind : uint8_t {
  ShortWrite,  ///< Nth send transmits at most half its bytes (a real
               ///< partial write; the flush loop must resume cleanly).
  EagainStorm, ///< Sends N..N+15 fail with EAGAIN, nothing sent; the
               ///< 16th retry passes through (a bounded stall).
  Disconnect,  ///< Nth read reports EOF: the peer vanished, possibly
               ///< mid-frame; the daemon must drop the connection
               ///< cleanly and keep serving everyone else.
  StalledPeer, ///< Nth read delivers exactly one byte, then that fd
               ///< returns EAGAIN forever (a slow-loris peer); only the
               ///< read deadline can reclaim the connection slot.
};

/// Spec-syntax names, indexed by SockFaultKind.
inline constexpr const char *kSockFaultKindNames[] = {
    "short-write", "eagain-storm", "disconnect", "stalled-peer"};

/// Spec-syntax name ("short-write", "eagain-storm", ...).
inline const char *sockFaultKindName(SockFaultKind K) {
  return kSockFaultKindNames[static_cast<size_t>(K)];
}

/// How many consecutive sends an EagainStorm eats before passing
/// traffic again. Bounded so an injected storm is a stall, not a hang.
constexpr uint64_t kEagainStormLength = 16;

/// One injected fault: the Nth operation of the matching class.
struct SockFaultSpec {
  SockFaultKind Kind = SockFaultKind::Disconnect;
  uint64_t Nth = 1; ///< 1-based among operations of the matching class.

  /// Parses "<kind>:<nth>[,<kind>:<nth>...]" with the names above and a
  /// positive index. False (and \p Out unspecified) on any syntax error.
  static bool parse(const std::string &Text, std::vector<SockFaultSpec> &Out);
};

/// SockIo decorator that injects the faults of its spec at exact
/// operation indices and forwards everything else to the base instance.
/// Single-threaded, like the daemon it serves.
class FaultSock : public SockIo {
public:
  explicit FaultSock(std::vector<SockFaultSpec> Faults,
                     SockIo *Base = nullptr);

  ssize_t read(int Fd, void *Buf, size_t N) override;
  ssize_t send(int Fd, const void *Buf, size_t N) override;
  void closed(int Fd) override;

  uint64_t readOps() const { return Reads; }
  uint64_t writeOps() const { return Writes; }
  /// Operations on which a fault actually fired (stats counter).
  uint64_t fired() const { return Fired; }

private:
  const SockFaultSpec *findReadFault(uint64_t Nth) const;
  const SockFaultSpec *findWriteFault(uint64_t Nth) const;

  std::vector<SockFaultSpec> Faults;
  SockIo *Base;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Fired = 0;
  /// Fds latched by StalledPeer: every later read is EAGAIN until the
  /// daemon closes the fd (closed() clears the latch, so a reused fd
  /// number starts clean). Stalled reads do not consume op indices —
  /// the poll loop may spin on a latched fd arbitrarily many times.
  std::set<int> Stalled;
};

} // namespace pose

#endif // POSE_SUPPORT_FAULTSOCK_H
