//===- FaultSock.cpp - Fault-injecting socket I/O layer -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/FaultSock.h"
#include "src/support/Flags.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

namespace pose {

namespace {

class SystemSockIo : public SockIo {};

SystemSockIo SystemInstance;

} // namespace

ssize_t SockIo::read(int Fd, void *Buf, size_t N) {
  return ::read(Fd, Buf, N);
}

ssize_t SockIo::send(int Fd, const void *Buf, size_t N) {
  return ::send(Fd, Buf, N, MSG_NOSIGNAL);
}

SockIo &SockIo::system() { return SystemInstance; }

bool SockFaultSpec::parse(const std::string &Text,
                          std::vector<SockFaultSpec> &Out) {
  return parseFaultList(Text, kSockFaultKindNames, Out);
}

FaultSock::FaultSock(std::vector<SockFaultSpec> Faults, SockIo *Base)
    : Faults(std::move(Faults)), Base(Base ? Base : &SockIo::system()) {}

const SockFaultSpec *FaultSock::findReadFault(uint64_t Nth) const {
  for (const SockFaultSpec &S : Faults)
    if (S.Nth == Nth && (S.Kind == SockFaultKind::Disconnect ||
                         S.Kind == SockFaultKind::StalledPeer))
      return &S;
  return nullptr;
}

const SockFaultSpec *FaultSock::findWriteFault(uint64_t Nth) const {
  for (const SockFaultSpec &S : Faults)
    if (S.Kind == SockFaultKind::ShortWrite && S.Nth == Nth)
      return &S;
  for (const SockFaultSpec &S : Faults)
    if (S.Kind == SockFaultKind::EagainStorm && Nth >= S.Nth &&
        Nth < S.Nth + kEagainStormLength)
      return &S;
  return nullptr;
}

ssize_t FaultSock::read(int Fd, void *Buf, size_t N) {
  if (Stalled.count(Fd)) {
    errno = EAGAIN;
    return -1;
  }
  const SockFaultSpec *F = findReadFault(++Reads);
  if (!F)
    return Base->read(Fd, Buf, N);
  ++Fired;
  if (F->Kind == SockFaultKind::Disconnect)
    return 0; // EOF: the peer vanished, whatever it had sent is gone.
  // StalledPeer: deliver one real byte (so a frame is guaranteed to be
  // torn mid-header), then latch the fd dry.
  const ssize_t Got = N == 0 ? 0 : Base->read(Fd, Buf, 1);
  Stalled.insert(Fd);
  return Got;
}

ssize_t FaultSock::send(int Fd, const void *Buf, size_t N) {
  const SockFaultSpec *F = findWriteFault(++Writes);
  if (!F)
    return Base->send(Fd, Buf, N);
  ++Fired;
  if (F->Kind == SockFaultKind::EagainStorm) {
    errno = EAGAIN;
    return -1;
  }
  // ShortWrite: transmit at most half for real; the flush loop must pick
  // up the remainder on a later send without corrupting the stream.
  const size_t Half = N / 2;
  if (Half == 0) {
    errno = EAGAIN;
    return -1; // Nothing to halve; behave as a zero-progress send.
  }
  return Base->send(Fd, Buf, Half);
}

void FaultSock::closed(int Fd) {
  Stalled.erase(Fd);
  Base->closed(Fd);
}

} // namespace pose
