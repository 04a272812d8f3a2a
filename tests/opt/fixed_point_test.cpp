//===- fixed_point_test.cpp - Every phase runs to its own fixed point ------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// PhaseManager::attempt re-applies an active phase only after the implicit
// CFG cleanup changed the code. After a no-op cleanup the re-apply would
// run on exactly the phase's own output, so it is left out. That is sound
// only if every phase's apply runs to its own fixed point, checked here
// directly: on every instance of the capped suite spaces and of a fixed
// slice of generated programs, a phase whose apply is active and whose
// cleanup then changes nothing is dormant when applied again, and leaves
// the canonical form unchanged. A cleanup that does change the code can
// enable the phase again, so the re-apply stays for that case.
//
//===----------------------------------------------------------------------===//

#include "src/core/Canonical.h"
#include "src/ir/Parse.h"
#include "src/machine/RegisterAssign.h"
#include "src/opt/Cleanup.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/ProgramGenerator.h"
#include "tests/common/SuiteInstances.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

struct FixedPointCount {
  size_t Instances = 0;
  size_t Active = 0;
  size_t NoOpCleanup = 0;
};

/// Applies every legal phase to a copy of \p Inst; where it is active and
/// the cleanup after it changes nothing, applies it once more and expects
/// nothing to happen.
void checkFixedPoints(const PhaseManager &PM, const std::string &Key,
                      const Function &Inst, FixedPointCount &Count) {
  ++Count.Instances;
  for (int PI = 0; PI != NumPhases; ++PI) {
    const PhaseId P = phaseByIndex(PI);
    if (!PM.isLegal(P, Inst))
      continue;
    Function F = Inst;
    if (PM.requiresRegAssignment(P))
      assignRegisters(F);
    if (!PM.phase(P).apply(F))
      continue;
    ++Count.Active;
    if (cleanupCfg(F))
      continue;
    ++Count.NoOpCleanup;
    const HashTriple Before = canonicalize(F).Hash;
    EXPECT_FALSE(PM.phase(P).apply(F))
        << Key << ": " << phaseCode(P) << " is active on its own output\n"
        << printFunction(F);
    EXPECT_EQ(canonicalize(F).Hash, Before) << Key << " " << phaseCode(P);
  }
}

TEST(FixedPoint, SuitePhasesStopAtTheirOwnFixedPoint) {
  PhaseManager PM;
  FixedPointCount Count;
  forEachSuiteInstance(PM, [&](const std::string &Key, const Function &F) {
    checkFixedPoints(PM, Key, F, Count);
  });
  // Coverage: 6933 instances, 18,700 active applications, 14,586 of them
  // followed by a no-op cleanup.
  EXPECT_GE(Count.Instances, 6'000u);
  EXPECT_GE(Count.NoOpCleanup, 12'000u);
}

TEST(FixedPoint, GeneratedPhasesStopAtTheirOwnFixedPoint) {
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 100;
  Cfg.MaxTotalNodes = 400;
  Enumerator E(PM, Cfg);
  FixedPointCount Count;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    ProgramGenerator Gen(Seed * 7919 + 3);
    const std::string Source = Gen.generate();
    Module M = compileOrDie(Source);
    for (const Function &F : M.Functions) {
      const std::string Key = "seed " + std::to_string(Seed) + " " + F.Name;
      DagPaths(E.enumerate(F))
          .forEachInstance(F, PM, nullptr,
                           [&](uint32_t Id, const Function &Inst) {
                             checkFixedPoints(
                                 PM, Key + " node " + std::to_string(Id),
                                 Inst, Count);
                           });
    }
  }
  EXPECT_GE(Count.Instances, 1'000u);
  EXPECT_GE(Count.NoOpCleanup, 2'000u);
}

size_t countControlTransfers(const Function &F) {
  size_t N = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts)
      N += I.Opcode == Op::Jump || I.Opcode == Op::Branch;
  return N;
}

// Reduced from a generated program. u deletes L4's jump to L3; only the
// cleanup that then drops the empty L4 makes L0's branch to L3 useless,
// so attempt must apply u again after that cleanup.
TEST(FixedPoint, ChangingCleanupReenablesUselessJumps) {
  Function F;
  ASSERT_EQ(parseFunction("function f2(a,b) [a:1,b:1,v0:1,v1:1,v2:1,v3:1,"
                          "v4:1,v5:1] {assigned,allocated}\n"
                          "L0:\n"
                          "  r[0]=0;\n"
                          "  IC=r[0]?3;\n"
                          "  PC=IC>=0,L3;\n"
                          "L4:\n"
                          "  PC=L3;\n"
                          "L3:\n"
                          "  ret -16;\n",
                          F),
            "");
  PhaseManager PM;
  EXPECT_TRUE(PM.attempt(PhaseId::UselessJumps, F));
  EXPECT_EQ(countControlTransfers(F), 0u) << printFunction(F);
  EXPECT_FALSE(PM.attempt(PhaseId::UselessJumps, F)) << printFunction(F);
  expectVerifies(F);
}

} // namespace
