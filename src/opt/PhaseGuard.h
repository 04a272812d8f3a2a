//===- PhaseGuard.h - Verified, fault-tolerant phase application -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps PhaseManager::attempt with an optional post-phase IR verification
/// and a rollback path: when a phase leaves the function structurally
/// broken, the guard restores the exact pre-phase instance, records a
/// structured diagnostic, and reports the phase as rolled back so callers
/// can mark it dormant and continue instead of crashing. Exhaustive
/// enumeration applies phases millions of times; one miscompiling phase
/// must cost one pruned edge, not the whole run.
///
/// Because genuine verifier failures are (by design) rare, the rollback
/// path carries a deterministic fault-injection hook: a FaultPlan names
/// applications that must be treated as verifier failures ("fail the Nth
/// application of phase P"), making the recovery machinery itself
/// testable end to end.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_OPT_PHASEGUARD_H
#define POSE_OPT_PHASEGUARD_H

#include "src/opt/Phase.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pose {

class Function;
class PhaseManager;

/// One guarded failure: which phase broke which function, and how.
struct PhaseDiagnostic {
  PhaseId Phase = PhaseId::BranchChaining;
  std::string Func;    ///< Name of the function being optimized.
  std::string Message; ///< Verifier message (or injected-fault note).
  /// 1-based application ordinal of Phase that failed (the FaultPlan
  /// coordinate).
  uint64_t Application = 0;
  bool Injected = false; ///< True when produced by a FaultPlan.
};

/// What an injected fault does when it fires. Verifier faults stay in
/// process (roll back, record a diagnostic, prune the edge); the crash
/// classes take the process down the way a genuinely broken phase would,
/// so the out-of-process supervisor's kill/retry/quarantine paths are
/// testable deterministically. Crash faults are only honored by
/// `posec --worker` / `--supervise` (a crash in an unsupervised process
/// loses the run, which is the very thing being tested).
enum class FaultKind : uint8_t {
  Verifier = 0, ///< Simulated verifier failure; rolled back in process.
  Segv,         ///< raise(SIGSEGV): die like a wild pointer would.
  Kill,         ///< raise(SIGKILL): die with no chance to clean up.
  Hang,         ///< Spin forever: trip the supervisor's kill timer.
  WrongCode,    ///< Silent miscompilation: the phase "succeeds" but the
                ///< code it leaves behind is deterministically mutated
                ///< (see applyWrongCodeFault). Nothing notices until a
                ///< behavioral check (posec --equiv-check) runs — which
                ///< is exactly what it exists to prove able to fail.
};

/// True for the kinds that take the process down (Segv/Kill/Hang).
inline bool isCrashKind(FaultKind K) {
  return K == FaultKind::Segv || K == FaultKind::Kill ||
         K == FaultKind::Hang;
}

/// Deterministic fault injection: fail the Nth application of phase P.
/// Counts are per phase and 1-based, matching the ordinals callers pass
/// to PhaseGuard::attemptNth().
struct FaultPlan {
  struct Fault {
    PhaseId Phase = PhaseId::BranchChaining;
    uint64_t Application = 0;
    FaultKind Kind = FaultKind::Verifier;
  };
  std::vector<Fault> Faults;

  void add(PhaseId P, uint64_t Nth, FaultKind K = FaultKind::Verifier) {
    Faults.push_back({P, Nth, K});
  }
  bool empty() const { return Faults.empty(); }
  /// The fault scheduled for the Nth application of \p P, or nullptr.
  const Fault *match(PhaseId P, uint64_t Nth) const {
    for (const Fault &F : Faults)
      if (F.Phase == P && F.Application == Nth)
        return &F;
    return nullptr;
  }
  bool shouldFail(PhaseId P, uint64_t Nth) const {
    const Fault *F = match(P, Nth);
    return F && F->Kind == FaultKind::Verifier;
  }
  /// True when any fault is a crash class (Segv/Kill/Hang).
  bool hasCrashFault() const {
    for (const Fault &F : Faults)
      if (isCrashKind(F.Kind))
        return true;
    return false;
  }
  /// True when every fault is a crash class. `posec --supervise` requires
  /// it: the supervisor may forward a plan to some workers and attempts
  /// only (`--fault-func`, `--fault-attempts`), which is sound for
  /// execution-only crash faults, not for faults that shape the DAG and
  /// key the store.
  bool allCrashFaults() const {
    for (const Fault &F : Faults)
      if (!isCrashKind(F.Kind))
        return false;
    return !Faults.empty();
  }
  /// The wrong-code fault afflicting phase \p P, or nullptr. Unlike the
  /// other kinds, wrong-code faults are unconditional: a miscompiling
  /// phase is broken on every application, so the Nth coordinate in the
  /// spec is accepted but ignored. That is what keeps the mutation
  /// replayable — a DAG walk re-applies phases in a different order (and
  /// count) than the enumeration did, so any application-numbered rule
  /// could not reproduce the same instances.
  const Fault *wrongCode(PhaseId P) const {
    for (const Fault &F : Faults)
      if (F.Phase == P && F.Kind == FaultKind::WrongCode)
        return &F;
    return nullptr;
  }

  /// Parses a comma-separated "<letter>:<nth>[:<kind>]" spec, e.g. "c:3",
  /// "c:3,s:1", or "s:2:segv" (the posec --inject-fault format); kind is
  /// one of segv/kill/hang/wrongcode and defaults to a verifier fault.
  /// Returns false on an unknown phase letter, a missing, zero,
  /// non-numeric or above-UINT64_MAX count, an unknown kind, an empty item
  /// (such as a trailing comma), or any other malformed input; \p Out is
  /// unchanged on failure.
  static bool parse(const std::string &Spec, FaultPlan &Out);
};

/// The deterministic wrong-code mutation: increments the first immediate
/// source operand of \p F (block order, then instruction order, then
/// operand order). Returns false when the function has no immediate to
/// mutate, in which case it is left untouched. The mutation preserves
/// structural validity (the verifier checks shape, not values), so only
/// a behavioral oracle can catch it. Exposed so DAG walks
/// (DagPaths::materialize / forEachInstance) can replay exactly what the
/// guard did during enumeration.
bool applyWrongCodeFault(Function &F);

/// Guarded phase application. With verification and fault injection both
/// off the guard is a pass-through over PhaseManager::attempt; with either
/// on, it snapshots the function before the attempt so a failure can be
/// rolled back exactly.
///
/// The caller numbers the applications: the enumerator precomputes them
/// in frontier order, so FaultPlan coordinates do not depend on which
/// thread runs an attempt. A guard may be shared by several threads
/// (diagnostics collection is mutex-protected), but
/// diagnostics()/takeDiagnostics() must only be called once attempts have
/// quiesced.
class PhaseGuard {
public:
  enum class Outcome : uint8_t {
    Dormant,    ///< Phase ran and changed nothing.
    Active,     ///< Phase ran, changed the code, and (if asked) verified.
    RolledBack, ///< Phase broke the IR; the pre-phase instance was
                ///< restored and a diagnostic recorded. Treat as dormant.
  };

  struct Options {
    /// Run verifyFunction after every active application.
    bool Verify = false;
    /// Deterministic fault injection (not owned; may be nullptr).
    const FaultPlan *Faults = nullptr;
  };

  explicit PhaseGuard(const PhaseManager &PM) : PM(PM) {}
  PhaseGuard(const PhaseManager &PM, Options Opts) : PM(PM), Opts(Opts) {}

  /// Attempts \p P on \p F under the guard as the \p Nth (1-based)
  /// application of \p P — the FaultPlan coordinate, and the number a
  /// diagnostic reports. \p P must be legal for \p F.
  Outcome attemptNth(PhaseId P, Function &F, uint64_t Nth);

  /// True when attempts snapshot and can roll back.
  bool guarding() const {
    return Opts.Verify || (Opts.Faults && !Opts.Faults->empty());
  }

  const std::vector<PhaseDiagnostic> &diagnostics() const { return Diags; }
  std::vector<PhaseDiagnostic> takeDiagnostics() {
    std::lock_guard<std::mutex> Lock(DiagsMutex);
    return std::move(Diags);
  }

private:
  const PhaseManager &PM;
  Options Opts{};
  std::mutex DiagsMutex;
  std::vector<PhaseDiagnostic> Diags;
};

} // namespace pose

#endif // POSE_OPT_PHASEGUARD_H
