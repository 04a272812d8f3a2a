//===- PhaseManager.cpp - Phase registry and legality -------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/opt/PhaseManager.h"

#include "src/ir/Function.h"
#include "src/machine/RegisterAssign.h"
#include "src/opt/Cleanup.h"
#include "src/opt/Phases.h"

using namespace pose;

PhaseManager::PhaseManager() {
  Phases.resize(NumPhases);
  auto Put = [this](std::unique_ptr<Phase> P) {
    int Index = static_cast<int>(P->id());
    Phases[Index] = std::move(P);
  };
  Put(std::make_unique<BranchChainingPhase>());
  Put(std::make_unique<CsePhase>());
  Put(std::make_unique<UnreachableCodePhase>());
  Put(std::make_unique<LoopUnrollingPhase>());
  Put(std::make_unique<DeadAssignElimPhase>());
  Put(std::make_unique<BlockReorderingPhase>());
  Put(std::make_unique<MinimizeLoopJumpsPhase>());
  Put(std::make_unique<RegisterAllocationPhase>());
  Put(std::make_unique<LoopTransformsPhase>());
  Put(std::make_unique<CodeAbstractionPhase>());
  Put(std::make_unique<EvalOrderPhase>());
  Put(std::make_unique<StrengthReductionPhase>());
  Put(std::make_unique<ReverseBranchesPhase>());
  Put(std::make_unique<InstructionSelectionPhase>());
  Put(std::make_unique<UselessJumpsPhase>());
}

bool PhaseManager::requiresRegAssignment(PhaseId P) const {
  return P == PhaseId::Cse || P == PhaseId::RegisterAllocation;
}

bool PhaseManager::isLegal(PhaseId P, const Function &F) const {
  switch (P) {
  case PhaseId::EvalOrder:
    // "Evaluation order determination can only be performed before
    // register assignment" (Section 3).
    return !F.State.RegsAssigned;
  case PhaseId::LoopUnrolling:
  case PhaseId::LoopTransforms:
    // Restricted "to be performed after register allocation is applied"
    // (Section 3).
    return F.State.RegAllocDone;
  default:
    return true;
  }
}

bool PhaseManager::attempt(PhaseId P, Function &F) const {
  assert(isLegal(P, F) && "attempted an illegal phase");
  if (requiresRegAssignment(P) && !F.State.RegsAssigned)
    assignRegisters(F);
  // The paper's invariant that "no phase in our compiler can be applied
  // successfully more than once consecutively", which the exhaustive
  // enumerator's pruning relies on, holds because every apply runs to its
  // own fixed point (tests/opt/fixed_point_test.cpp). So the phase is
  // re-applied only after an implicit CFG cleanup that changed the code:
  // dropping an empty block can give it new work. On 550 generated
  // programs' capped spaces that happened to u 21,022 times, r 60 and
  // n 31; after a no-op cleanup, never.
  bool Active = false;
  while (phase(P).apply(F)) {
    Active = true;
    if (!cleanupCfg(F))
      break;
  }
  return Active;
}

std::string PhaseManager::applySequence(Function &F,
                                        const std::string &Codes) const {
  std::string Active;
  for (char C : Codes) {
    PhaseId P = phaseFromCode(C);
    if (!isLegal(P, F))
      continue;
    if (attempt(P, F))
      Active += C;
  }
  return Active;
}
