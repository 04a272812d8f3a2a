//===- PhaseGuard.cpp - Verified, fault-tolerant phase application ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/opt/PhaseGuard.h"

#include "src/ir/Function.h"
#include "src/ir/Verify.h"
#include "src/opt/PhaseManager.h"
#include "src/support/Flags.h"

#include <algorithm>
#include <csignal>

using namespace pose;

bool pose::applyWrongCodeFault(Function &F) {
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI)
    for (size_t J = 0; J != F.Blocks[BI].Insts.size(); ++J)
      for (int SI = 0; SI != 3; ++SI)
        if (F.Blocks[BI].Insts[J].Src[SI].Kind == OperandKind::Imm) {
          F.Blocks.mut(BI).Insts[J].Src[SI].Value += 1;
          return true;
        }
  return false;
}

bool FaultPlan::parse(const std::string &Spec, FaultPlan &Out) {
  FaultPlan Plan;
  // Each item is "<letter>:<nth>[:<kind>]", nth a positive decimal number.
  const bool Ok = parseList(Spec, [&Plan](std::string_view Item) {
    if (Item.size() < 3 || Item[1] != ':')
      return false;
    int Index = 0;
    while (Index != NumPhases && phaseCode(phaseByIndex(Index)) != Item[0])
      ++Index;
    const size_t NthEnd = std::min(Item.find(':', 2), Item.size());
    uint64_t Nth = 0;
    if (Index == NumPhases ||
        !parseDecimal(Item.substr(2, NthEnd - 2), Nth) || Nth == 0)
      return false;
    FaultKind Kind = FaultKind::Verifier;
    if (NthEnd != Item.size()) {
      const std::string_view Name = Item.substr(NthEnd + 1);
      if (Name == "segv")
        Kind = FaultKind::Segv;
      else if (Name == "kill")
        Kind = FaultKind::Kill;
      else if (Name == "hang")
        Kind = FaultKind::Hang;
      else if (Name == "wrongcode")
        Kind = FaultKind::WrongCode;
      else
        return false;
    }
    Plan.add(phaseByIndex(Index), Nth, Kind);
    return true;
  });
  if (!Ok)
    return false;
  Out = std::move(Plan);
  return true;
}

namespace {
/// Executes a crash-class fault. Never returns normally: the process dies
/// by the named signal, or spins until the supervisor's kill timer fires.
/// The busy loop touches a volatile so the optimizer cannot elide it.
[[noreturn]] void executeCrashFault(FaultKind K) {
  if (K == FaultKind::Segv) {
    // Default action first: a handler installed in the process (such as
    // AddressSanitizer's) would otherwise turn the signal into an exit.
    (void)signal(SIGSEGV, SIG_DFL);
    (void)raise(SIGSEGV);
  } else if (K == FaultKind::Kill) {
    (void)raise(SIGKILL);
  }
  volatile uint64_t Spin = 0;
  for (;;)
    Spin = Spin + 1;
}
} // namespace

PhaseGuard::Outcome PhaseGuard::attemptNth(PhaseId P, Function &F,
                                           uint64_t Nth) {
  if (!guarding())
    return PM.attempt(P, F) ? Outcome::Active : Outcome::Dormant;

  // Crash-class faults fire before the snapshot: they model the phase
  // taking the whole process down, not a recoverable in-process failure.
  if (Opts.Faults)
    if (const FaultPlan::Fault *Crash = Opts.Faults->match(P, Nth))
      if (isCrashKind(Crash->Kind))
        executeCrashFault(Crash->Kind);

  Function Snapshot = F;
  const bool Active = PM.attempt(P, F);

  // Wrong-code faults apply after the phase so the mutated result is what
  // downstream consumers (canonicalizer, simulator) see. They are
  // unconditional per phase (FaultPlan::wrongCode) and always count as
  // active: a miscompiling phase reports success. No diagnostic — the
  // whole point is that nothing in the pipeline notices.
  if (Active && Opts.Faults && Opts.Faults->wrongCode(P))
    (void)applyWrongCodeFault(F);
  std::string Err;
  bool Injected = false;
  if (Opts.Faults && Opts.Faults->shouldFail(P, Nth)) {
    Err = "injected fault";
    Injected = true;
  } else if (Opts.Verify && Active) {
    // Dormant attempts leave the code untouched; only active ones can
    // break it.
    Err = verifyFunction(F);
  }
  if (Err.empty())
    return Active ? Outcome::Active : Outcome::Dormant;

  F = std::move(Snapshot);
  PhaseDiagnostic D;
  D.Phase = P;
  D.Func = F.Name;
  D.Message = std::move(Err);
  D.Application = Nth;
  D.Injected = Injected;
  std::lock_guard<std::mutex> Lock(DiagsMutex);
  Diags.push_back(std::move(D));
  return Outcome::RolledBack;
}
