//===- FaultFs.cpp - Fault-injecting store I/O layer ----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/FaultFs.h"
#include "src/support/Flags.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace pose {

namespace {

/// Real POSIX I/O. Unbuffered on purpose: the fault layer must know
/// exactly how many bytes reached the kernel, and an ofstream would hide
/// partial progress behind its own buffer.
class SystemIo : public StoreIo {};

SystemIo SystemInstance;
StoreIo *ProcessIo = &SystemInstance;

} // namespace

bool StoreIo::writeFile(const std::string &Path, const uint8_t *Data,
                        size_t Size, int &Err, size_t &Written) {
  Err = 0;
  Written = 0;
  const int Fd =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Err = errno;
    return false;
  }
  while (Written < Size) {
    const ssize_t N = ::write(Fd, Data + Written, Size - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errno;
      ::close(Fd);
      return false;
    }
    Written += static_cast<size_t>(N);
  }
  if (::close(Fd) != 0) {
    Err = errno;
    return false;
  }
  return true;
}

bool StoreIo::rename(const std::string &From, const std::string &To,
                     int &Err) {
  Err = 0;
  if (::rename(From.c_str(), To.c_str()) != 0) {
    Err = errno;
    return false;
  }
  return true;
}

bool StoreIo::remove(const std::string &Path) {
  return ::unlink(Path.c_str()) == 0;
}

StoreIo &StoreIo::system() { return SystemInstance; }

StoreIo &processStoreIo() { return *ProcessIo; }

void setProcessStoreIo(StoreIo *Io) {
  ProcessIo = Io ? Io : &SystemInstance;
}

bool IoFaultSpec::parse(const std::string &Text,
                        std::vector<IoFaultSpec> &Out) {
  return parseFaultList(Text, kIoFaultKindNames, Out);
}

FaultFs::FaultFs(std::vector<IoFaultSpec> Faults, CrashMode Mode,
                 StoreIo *Base)
    : Faults(std::move(Faults)), Mode(Mode),
      Base(Base ? Base : &StoreIo::system()) {}

const IoFaultSpec *FaultFs::findWriteFault(uint64_t Nth) const {
  for (const IoFaultSpec &S : Faults)
    if (S.Nth == Nth && (S.Kind == IoFaultKind::ShortWrite ||
                         S.Kind == IoFaultKind::Enospc ||
                         S.Kind == IoFaultKind::Eio))
      return &S;
  return nullptr;
}

const IoFaultSpec *FaultFs::findRenameFault(uint64_t Nth) const {
  for (const IoFaultSpec &S : Faults)
    if (S.Nth == Nth && (S.Kind == IoFaultKind::CrashBeforeRename ||
                         S.Kind == IoFaultKind::CrashAfterRename))
      return &S;
  return nullptr;
}

void FaultFs::crash() {
  if (Mode == CrashMode::Exit)
    ::_exit(kIoCrashExit);
  Crashed = true;
}

bool FaultFs::writeFile(const std::string &Path, const uint8_t *Data,
                        size_t Size, int &Err, size_t &Written) {
  Err = 0;
  Written = 0;
  if (Crashed)
    return false;
  const IoFaultSpec *F = findWriteFault(++Writes);
  if (!F)
    return Base->writeFile(Path, Data, Size, Err, Written);
  switch (F->Kind) {
  case IoFaultKind::ShortWrite: {
    // Persist half the bytes for real — the torn temp file the store's
    // failure path (and fsck) must cope with — then fail like a full
    // disk.
    int HalfErr = 0;
    size_t HalfWritten = 0;
    Base->writeFile(Path, Data, Size / 2, HalfErr, HalfWritten);
    Err = ENOSPC;
    Written = HalfWritten;
    return false;
  }
  case IoFaultKind::Enospc:
    Err = ENOSPC;
    return false;
  case IoFaultKind::Eio:
    Err = EIO;
    return false;
  case IoFaultKind::CrashBeforeRename:
  case IoFaultKind::CrashAfterRename:
    break; // Rename-class; never matched here.
  }
  return false;
}

bool FaultFs::rename(const std::string &From, const std::string &To,
                     int &Err) {
  Err = 0;
  if (Crashed)
    return false;
  const IoFaultSpec *F = findRenameFault(++Renames);
  if (!F)
    return Base->rename(From, To, Err);
  if (F->Kind == IoFaultKind::CrashBeforeRename) {
    crash();
    return false; // Simulate mode: the rename never happened.
  }
  const bool Ok = Base->rename(From, To, Err);
  crash();
  return Ok; // Simulate mode: committed, but nothing after this runs.
}

bool FaultFs::remove(const std::string &Path) {
  if (Crashed)
    return false;
  return Base->remove(Path);
}

} // namespace pose
