//===- FaultFs.h - Fault-injecting store I/O layer -------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutating-I/O surface the artifact store writes through, plus a
/// deterministic fault injector over it. The store's crash-consistency
/// contract — a failed or interrupted write leaves either the old
/// artifact or none, never a torn file — is only worth anything if it
/// holds under real filesystem failures: short writes, ENOSPC, EIO, and
/// a process dying on either side of the committing rename. Those cannot
/// be provoked reliably on a healthy filesystem, so \ref FaultFs injects
/// them at an exact operation index instead, driven by the execution-only
/// `posec --fault-io=<spec>` flag (like crash-class `--fault-func` plans,
/// the spec never enters the store's config fingerprint — a fault-
/// injected run shares artifacts with a clean one).
///
/// Crash faults come in two modes: `Exit` really terminates the process
/// (what a supervised worker under test does), `Simulate` latches a
/// "dead" state in which every later operation — including the store's
/// own cleanup — silently does nothing, which is exactly what a crashed
/// process's remaining code would have done. The property tests iterate
/// every fault kind at every operation index and assert the
/// old-or-none contract after each.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_FAULTFS_H
#define POSE_SUPPORT_FAULTFS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pose {

/// The mutating filesystem operations of an artifact write. The default
/// implementation is the real filesystem (POSIX I/O); \ref FaultFs wraps
/// it. Reads are not virtualized: corrupt *existing* bytes are the
/// store's validation problem (and fsck's), not an injection target.
class StoreIo {
public:
  virtual ~StoreIo() = default;

  /// Writes \p Size bytes to \p Path, truncating any existing file. On
  /// failure returns false with \p Err set to the errno (0 when none is
  /// available) and \p Written to the bytes that actually landed — short
  /// writes are real partial state on disk, not a clean no-op.
  virtual bool writeFile(const std::string &Path, const uint8_t *Data,
                         size_t Size, int &Err, size_t &Written);

  /// Atomically renames \p From over \p To. False with \p Err on failure.
  virtual bool rename(const std::string &From, const std::string &To,
                      int &Err);

  /// Best-effort unlink for cleanup paths; false when nothing was
  /// removed.
  virtual bool remove(const std::string &Path);

  /// The real-filesystem passthrough instance.
  static StoreIo &system();
};

/// The StoreIo used by every ArtifactStore constructed without an
/// explicit one; defaults to StoreIo::system().
StoreIo &processStoreIo();

/// Overrides \ref processStoreIo (nullptr restores the system instance).
/// Not thread-safe: install before any store activity — posec does it
/// right after argument parsing, tests before constructing stores.
void setProcessStoreIo(StoreIo *Io);

/// The injectable failures. Write-class kinds fire on the Nth
/// writeFile(); crash-class kinds fire on the Nth rename() — the two
/// sides of the atomic-commit protocol.
enum class IoFaultKind : uint8_t {
  ShortWrite,        ///< Nth write persists only half its bytes, then
                     ///< fails with ENOSPC (a torn temp file on disk).
  Enospc,            ///< Nth write fails with ENOSPC, nothing written.
  Eio,               ///< Nth write fails with EIO, nothing written.
  CrashBeforeRename, ///< Process dies before the Nth rename commits:
                     ///< the temp file is orphaned, the target untouched.
  CrashAfterRename,  ///< Process dies right after the Nth rename: the
                     ///< new artifact is committed, everything later
                     ///< (quarantine cleanup, ...) never runs.
};

/// Spec-syntax names, indexed by IoFaultKind.
inline constexpr const char *kIoFaultKindNames[] = {
    "shortwrite", "enospc", "eio", "crash-before-rename",
    "crash-after-rename"};

/// Spec-syntax name ("shortwrite", "crash-before-rename", ...).
inline const char *ioFaultKindName(IoFaultKind K) {
  return kIoFaultKindNames[static_cast<size_t>(K)];
}

/// One injected fault: the Nth operation of the matching class.
struct IoFaultSpec {
  IoFaultKind Kind = IoFaultKind::Enospc;
  uint64_t Nth = 1; ///< 1-based among operations of the matching class.

  /// Parses "<kind>:<nth>[,<kind>:<nth>...]" with the names above and a
  /// positive index. False (and \p Out unspecified) on any syntax error.
  static bool parse(const std::string &Text, std::vector<IoFaultSpec> &Out);
};

/// Exit status of a FaultFs crash in Exit mode. Distinct from every
/// documented posec exit code so an injected I/O crash is recognizable
/// in supervisor diagnostics and test assertions.
constexpr int kIoCrashExit = 86;

/// StoreIo decorator that injects the faults of its spec at exact
/// operation indices and forwards everything else to the base instance.
class FaultFs : public StoreIo {
public:
  enum class CrashMode {
    Exit,     ///< Crash kinds _exit(kIoCrashExit): real process death.
    Simulate, ///< Crash kinds latch crashed(): every later operation
              ///< silently no-ops, as a dead process's code would.
  };

  explicit FaultFs(std::vector<IoFaultSpec> Faults,
                   CrashMode Mode = CrashMode::Simulate,
                   StoreIo *Base = nullptr);

  bool writeFile(const std::string &Path, const uint8_t *Data, size_t Size,
                 int &Err, size_t &Written) override;
  bool rename(const std::string &From, const std::string &To,
              int &Err) override;
  bool remove(const std::string &Path) override;

  /// Simulate mode: true once a crash point was hit.
  bool crashed() const { return Crashed; }
  uint64_t writeOps() const { return Writes; }
  uint64_t renameOps() const { return Renames; }

private:
  const IoFaultSpec *findWriteFault(uint64_t Nth) const;
  const IoFaultSpec *findRenameFault(uint64_t Nth) const;
  void crash();

  std::vector<IoFaultSpec> Faults;
  CrashMode Mode;
  StoreIo *Base;
  uint64_t Writes = 0;
  uint64_t Renames = 0;
  bool Crashed = false;
};

} // namespace pose

#endif // POSE_SUPPORT_FAULTFS_H
