//===- fuzz_test.cpp - Random-program differential fuzzing ---------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Generates random (terminating, trap-free by construction where
// possible) MC programs and checks that random legal phase sequences —
// and full enumeration on the smaller ones — preserve behaviour. This
// complements the hand-written differential tests with shapes no human
// would write.
//
//===----------------------------------------------------------------------===//

#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "src/support/Rng.h"
#include "tests/common/Helpers.h"
#include "tests/common/ProgramGenerator.h"
#include "tests/common/TripleCheck.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomProgramsSurvivePhaseStorms) {
  const int Seed = GetParam();
  ProgramGenerator Gen(static_cast<uint64_t>(Seed) * 40503 + 9);
  std::string Source = Gen.generate();
  CompileResult CR = compileMC(Source);
  ASSERT_TRUE(CR.ok()) << Source << "\n" << CR.diagText();
  Module &M = CR.M;
  ASSERT_EQ(verifyModule(M), "");

  Interpreter Sim(M);
  RunResult Base = Sim.run("main", {});
  // Generated programs are trap-free by construction; overflowing ops
  // wrap, divisions are guarded, indices masked.
  ASSERT_TRUE(Base.Ok) << Base.Error << "\n" << Source;

  PhaseManager PM;
  Rng R(static_cast<uint64_t>(Seed) + 777);
  for (Function &F : M.Functions) {
    int Prev = -1;
    for (int Step = 0; Step != 30; ++Step) {
      int P = static_cast<int>(R.below(NumPhases));
      if (P == Prev)
        continue;
      PhaseId Id = phaseByIndex(P);
      if (!PM.isLegal(Id, F))
        continue;
      if (PM.attempt(Id, F))
        Prev = P;
      ASSERT_EQ(verifyFunction(F), "")
          << "seed " << Seed << " phase " << phaseCode(Id) << "\n"
          << printFunction(F) << "\n"
          << Source;
    }
  }
  RunResult After = Sim.run("main", {});
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(Base.sameBehavior(After)) << Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 24));

TEST(FuzzEnumerate, SmallRandomFunctionsEnumerateAndPreserve) {
  // Full enumeration, the merge-triple check on every edge, and a leaf
  // differential check on small random programs.
  for (int Seed = 100; Seed != 106; ++Seed) {
    ProgramGenerator Gen(static_cast<uint64_t>(Seed));
    std::string Source = Gen.generate();
    CompileResult CR = compileMC(Source);
    ASSERT_TRUE(CR.ok()) << Source;
    Module &M = CR.M;
    Interpreter Sim(M);
    RunResult Base = Sim.run("main", {});
    ASSERT_TRUE(Base.Ok) << Base.Error;

    PhaseManager PM;
    EnumeratorConfig Cfg;
    Cfg.MaxLevelSequences = 30'000;
    Enumerator E(PM, Cfg);
    for (Function &F : M.Functions) {
      if (F.instructionCount() > 80)
        continue;
      EnumerationResult R = E.enumerate(F);
      expectEqualTriplesHaveEqualBytes(
          F, PM, R, "seed " + std::to_string(Seed) + " " + F.Name);
      if (!R.complete())
        continue;
      DagPaths Paths(R);
      for (uint32_t Id = 0; Id != R.Nodes.size(); ++Id) {
        if (!R.Nodes[Id].isLeaf())
          continue;
        Function Inst = Paths.materialize(F, PM, Id);
        Sim.overrideFunction(F.Name, &Inst);
        RunResult After = Sim.run("main", {});
        Sim.overrideFunction(F.Name, nullptr);
        ASSERT_TRUE(After.Ok) << After.Error;
        EXPECT_TRUE(Base.sameBehavior(After))
            << "seed " << Seed << " function " << F.Name << " node " << Id
            << "\n"
            << printFunction(Inst);
      }
    }
  }
}

} // namespace
