//===- phaseguard_test.cpp - Guarded phase application tests --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/opt/PhaseGuard.h"

#include "src/core/Canonical.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

TEST(FaultPlan, ParsesValidSpecs) {
  FaultPlan P;
  ASSERT_TRUE(FaultPlan::parse("c:3", P));
  ASSERT_EQ(P.Faults.size(), 1u);
  EXPECT_EQ(P.Faults[0].Phase, PhaseId::Cse);
  EXPECT_EQ(P.Faults[0].Application, 3u);
  EXPECT_TRUE(P.shouldFail(PhaseId::Cse, 3));
  EXPECT_FALSE(P.shouldFail(PhaseId::Cse, 2));
  EXPECT_FALSE(P.shouldFail(PhaseId::InstructionSelection, 3));

  ASSERT_TRUE(FaultPlan::parse("c:3,s:1,u:10", P));
  ASSERT_EQ(P.Faults.size(), 3u);
  EXPECT_TRUE(P.shouldFail(PhaseId::InstructionSelection, 1));
  EXPECT_TRUE(P.shouldFail(PhaseId::UselessJumps, 10));
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan P;
  P.add(PhaseId::Cse, 7); // Must survive failed parses untouched.
  EXPECT_FALSE(FaultPlan::parse("", P));
  EXPECT_FALSE(FaultPlan::parse("c", P));
  EXPECT_FALSE(FaultPlan::parse("c:", P));
  EXPECT_FALSE(FaultPlan::parse("c:0", P));
  EXPECT_FALSE(FaultPlan::parse("c:x", P));
  EXPECT_FALSE(FaultPlan::parse("c:3x", P));
  EXPECT_FALSE(FaultPlan::parse("z:1", P)); // z is not a phase letter.
  EXPECT_FALSE(FaultPlan::parse("c:3,,s:1", P));
  EXPECT_FALSE(FaultPlan::parse("c:3,s:", P));
  // Ordinals past 2^64-1 are rejected, not wrapped (2^64+1 would
  // otherwise fire on application 1).
  EXPECT_FALSE(FaultPlan::parse("s:18446744073709551616", P));
  EXPECT_FALSE(FaultPlan::parse("s:18446744073709551617", P));
  EXPECT_FALSE(FaultPlan::parse("s:1,", P)); // Empty trailing item.
  EXPECT_FALSE(FaultPlan::parse(",s:1", P)); // Empty leading item.
  ASSERT_EQ(P.Faults.size(), 1u);
  EXPECT_EQ(P.Faults[0].Application, 7u);

  ASSERT_TRUE(FaultPlan::parse("s:18446744073709551615", P));
  ASSERT_EQ(P.Faults.size(), 1u);
  EXPECT_EQ(P.Faults[0].Application, UINT64_MAX);
}

TEST(PhaseGuard, PassthroughMatchesPhaseManager) {
  Module M1 = compileOrDie(SumSource);
  Module M2 = compileOrDie(SumSource);
  Function &FA = functionNamed(M1, "f");
  Function &FB = functionNamed(M2, "f");
  PhaseManager PM;
  PhaseGuard Guard(PM); // No verification, no faults: pure pass-through.
  EXPECT_FALSE(Guard.guarding());

  bool Active = PM.attempt(PhaseId::InstructionSelection, FA);
  PhaseGuard::Outcome Out =
      Guard.attemptNth(PhaseId::InstructionSelection, FB, 1);
  EXPECT_EQ(Out == PhaseGuard::Outcome::Active, Active);
  EXPECT_EQ(canonicalize(FA).Hash, canonicalize(FB).Hash);
  EXPECT_TRUE(Guard.diagnostics().empty());
}

TEST(PhaseGuard, VerifiedHealthyPhasesMatchUnguarded) {
  Module M1 = compileOrDie(SumSource);
  Module M2 = compileOrDie(SumSource);
  Function &FA = functionNamed(M1, "f");
  Function &FB = functionNamed(M2, "f");
  PhaseManager PM;
  PhaseGuard::Options Opts;
  Opts.Verify = true;
  PhaseGuard Guard(PM, Opts);
  EXPECT_TRUE(Guard.guarding());

  const char *Codes = "osbchku";
  for (const char *C = Codes; *C; ++C) {
    PhaseId P = phaseFromCode(*C);
    if (!PM.isLegal(P, FA))
      continue;
    bool Active = PM.attempt(P, FA);
    PhaseGuard::Outcome Out = Guard.attemptNth(P, FB, 1);
    EXPECT_EQ(Out == PhaseGuard::Outcome::Active, Active)
        << "phase " << *C;
  }
  EXPECT_EQ(canonicalize(FA).Hash, canonicalize(FB).Hash);
  EXPECT_TRUE(Guard.diagnostics().empty());
}

TEST(PhaseGuard, RollbackRestoresExactPrePhaseInstance) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  FaultPlan Plan;
  Plan.add(PhaseId::InstructionSelection, 1);
  PhaseGuard::Options Opts;
  Opts.Verify = true;
  Opts.Faults = &Plan;
  PhaseGuard Guard(PM, Opts);

  // Keep the canonical bytes too: the rollback must restore the exact
  // instance, not merely one with an equal hash triple.
  CanonicalForm Before = canonicalize(F, /*KeepBytes=*/true);
  PhaseGuard::Outcome Out =
      Guard.attemptNth(PhaseId::InstructionSelection, F, 1);
  EXPECT_EQ(Out, PhaseGuard::Outcome::RolledBack);
  CanonicalForm After = canonicalize(F, /*KeepBytes=*/true);
  EXPECT_EQ(Before.Hash, After.Hash);
  EXPECT_EQ(Before.Bytes, After.Bytes);
  expectVerifies(F);

  ASSERT_EQ(Guard.diagnostics().size(), 1u);
  const PhaseDiagnostic &D = Guard.diagnostics()[0];
  EXPECT_EQ(D.Phase, PhaseId::InstructionSelection);
  EXPECT_EQ(D.Func, "f");
  EXPECT_EQ(D.Message, "injected fault");
  EXPECT_EQ(D.Application, 1u);
  EXPECT_TRUE(D.Injected);

  // The second application is past the fault: the phase works again.
  Out = Guard.attemptNth(PhaseId::InstructionSelection, F, 2);
  EXPECT_EQ(Out, PhaseGuard::Outcome::Active);
  EXPECT_EQ(Guard.diagnostics().size(), 1u);
}

TEST(PhaseGuard, FaultOnLaterApplicationOnly) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  FaultPlan Plan;
  Plan.add(PhaseId::DeadAssignElim, 2);
  PhaseGuard::Options Opts;
  Opts.Faults = &Plan; // Fault injection alone also arms the guard.
  PhaseGuard Guard(PM, Opts);
  EXPECT_TRUE(Guard.guarding());

  EXPECT_NE(Guard.attemptNth(PhaseId::DeadAssignElim, F, 1),
            PhaseGuard::Outcome::RolledBack);
  EXPECT_EQ(Guard.attemptNth(PhaseId::DeadAssignElim, F, 2),
            PhaseGuard::Outcome::RolledBack);
  ASSERT_EQ(Guard.diagnostics().size(), 1u);
  EXPECT_EQ(Guard.diagnostics()[0].Application, 2u);
  EXPECT_TRUE(Guard.takeDiagnostics().size() == 1 &&
              Guard.diagnostics().empty());
}

} // namespace
