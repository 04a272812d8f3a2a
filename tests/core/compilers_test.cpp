//===- compilers_test.cpp - Batch and probabilistic compiler tests -------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Compilers.h"

#include "src/core/Enumerator.h"
#include "src/machine/EntryExit.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *ProgramSource =
    "int tab[8] = {3,1,4,1,5,9,2,6};\n"
    "int weigh(int lo, int hi) {\n"
    "  int s = 0; int i;\n"
    "  for (i = lo; i < hi; i = i + 1) s = s + tab[i] * 4;\n"
    "  return s;\n"
    "}\n"
    "int main() { out(weigh(0, 8)); out(weigh(2, 6)); return weigh(1, 7); }\n";

InteractionAnalysis trainOn(const char *Source,
                            std::initializer_list<const char *> Funcs) {
  Module M = compileOrDie(Source);
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  InteractionAnalysis IA;
  for (const char *Name : Funcs) {
    EnumerationResult R = E.enumerate(functionNamed(M, Name));
    EXPECT_TRUE(R.complete());
    IA.addFunction(R);
  }
  return IA;
}

TEST(BatchCompiler, OptimizesAndPreservesBehavior) {
  Module M = compileOrDie(ProgramSource);
  Interpreter Sim(M);
  RunResult Base = Sim.run("main", {});
  ASSERT_TRUE(Base.Ok) << Base.Error;

  PhaseManager PM;
  uint64_t SizeBefore = 0, SizeAfter = 0;
  for (Function &F : M.Functions) {
    SizeBefore += F.instructionCount();
    CompileStats S = batchCompile(PM, F);
    EXPECT_GT(S.Attempted, 0u);
    EXPECT_GT(S.Active, 0u);
    EXPECT_LE(S.Active, S.Attempted);
    expectVerifies(F);
    SizeAfter += F.instructionCount();
  }
  EXPECT_LT(SizeAfter, SizeBefore * 3 / 4); // Naive code shrinks a lot.
  RunResult After = Sim.run("main", {});
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(Base.sameBehavior(After));
  // Optimization reduces dynamic instruction counts substantially.
  EXPECT_LT(After.DynamicInsts, Base.DynamicInsts / 2);
}

TEST(BatchCompiler, ReachesFixedPoint) {
  Module M = compileOrDie(ProgramSource);
  PhaseManager PM;
  Function &F = functionNamed(M, "weigh");
  batchCompile(PM, F);
  CompileStats Second = batchCompile(PM, F);
  // A second batch compile finds nothing else to do (one silent pass).
  EXPECT_EQ(Second.Active, 0u);
}

TEST(ProbabilisticCompiler, MatchesBatchQualityWithFewerAttempts) {
  InteractionAnalysis IA = trainOn(ProgramSource, {"weigh", "main"});

  // Fresh module for each strategy.
  Module MBatch = compileOrDie(ProgramSource);
  Module MProb = compileOrDie(ProgramSource);
  PhaseManager PM;
  ProbabilisticCompiler PC(PM, IA);

  uint64_t BatchAttempted = 0, ProbAttempted = 0;
  uint64_t BatchActive = 0, ProbActive = 0;
  for (Function &F : MBatch.Functions) {
    CompileStats S = batchCompile(PM, F);
    BatchAttempted += S.Attempted;
    BatchActive += S.Active;
  }
  for (Function &F : MProb.Functions) {
    CompileStats S = PC.compile(F);
    ProbAttempted += S.Attempted;
    ProbActive += S.Active;
    expectVerifies(F);
  }
  // The headline claim of Section 6: far fewer attempted phases…
  EXPECT_LT(ProbAttempted, BatchAttempted);
  EXPECT_GT(ProbActive, 0u);

  // …at comparable quality.
  Interpreter SimBatch(MBatch), SimProb(MProb);
  RunResult RB = SimBatch.run("main", {});
  RunResult RP = SimProb.run("main", {});
  ASSERT_TRUE(RB.Ok) << RB.Error;
  ASSERT_TRUE(RP.Ok) << RP.Error;
  EXPECT_TRUE(RB.sameBehavior(RP));
  double Ratio = static_cast<double>(RP.DynamicInsts) /
                 static_cast<double>(RB.DynamicInsts);
  EXPECT_LT(Ratio, 1.25); // Within the paper's "comparable performance".

  (void)BatchActive;
}

TEST(ProbabilisticCompiler, HonorsLegality) {
  InteractionAnalysis IA = trainOn(ProgramSource, {"weigh"});
  Module M = compileOrDie(ProgramSource);
  PhaseManager PM;
  ProbabilisticCompiler PC(PM, IA);
  Function &F = functionNamed(M, "weigh");
  CompileStats S = PC.compile(F);
  // No crash, verifier clean, and the sequence contains only phase codes.
  expectVerifies(F);
  for (char C : S.ActiveSequence)
    EXPECT_NE(std::string("bcdghijklnoqrsu").find(C), std::string::npos);
}

TEST(ProbabilisticCompiler, BenefitWeightingKeepsQuality) {
  // The paper's named improvement: weight selection by measured per-phase
  // code-size benefit. Must stay behaviour-preserving and not regress
  // code size on the training program.
  InteractionAnalysis IA = trainOn(ProgramSource, {"weigh", "main"});
  EXPECT_GT(IA.averageBenefit(PhaseId::InstructionSelection), 0.0);
  EXPECT_GT(IA.averageBenefit(PhaseId::DeadAssignElim), 0.0);

  Module MPlain = compileOrDie(ProgramSource);
  Module MBenefit = compileOrDie(ProgramSource);
  PhaseManager PM;
  ProbabilisticCompiler Plain(PM, IA, /*UseBenefits=*/false);
  ProbabilisticCompiler Weighted(PM, IA, /*UseBenefits=*/true);
  uint64_t SizePlain = 0, SizeBenefit = 0;
  for (size_t I = 0; I != MPlain.Functions.size(); ++I) {
    Plain.compile(MPlain.Functions[I]);
    Weighted.compile(MBenefit.Functions[I]);
    SizePlain += MPlain.Functions[I].instructionCount();
    SizeBenefit += MBenefit.Functions[I].instructionCount();
    expectVerifies(MBenefit.Functions[I]);
  }
  Interpreter SimA(MPlain), SimB(MBenefit);
  RunResult RA = SimA.run("main", {});
  RunResult RB = SimB.run("main", {});
  ASSERT_TRUE(RA.Ok);
  ASSERT_TRUE(RB.Ok);
  EXPECT_TRUE(RA.sameBehavior(RB));
  // Not required to be better on any one program, but never disastrous.
  EXPECT_LE(SizeBenefit, SizePlain * 5 / 4);
}

TEST(ProbabilisticCompiler, UntrainedModelDoesNothing) {
  InteractionAnalysis Empty;
  Module M = compileOrDie(ProgramSource);
  PhaseManager PM;
  ProbabilisticCompiler PC(PM, Empty);
  Function &F = functionNamed(M, "weigh");
  CompileStats S = PC.compile(F);
  // All start probabilities are zero: nothing is ever attempted.
  EXPECT_EQ(S.Attempted, 0u);
}

TEST(EntryExitFinalization, AddsActivationRecordCode) {
  Module M = compileOrDie(ProgramSource);
  PhaseManager PM;
  Function &F = functionNamed(M, "weigh");
  batchCompile(PM, F);
  size_t Before = F.instructionCount();
  size_t Rets = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts)
      Rets += (I.Opcode == Op::Ret);
  fixEntryExit(F);
  EXPECT_GT(F.instructionCount(), Before);
  EXPECT_EQ(F.Blocks[0].Insts[0].Opcode, Op::Prologue);
  fixEntryExit(F); // Idempotent.
  EXPECT_EQ(F.instructionCount(),
            Before + 1 /*prologue*/ + Rets /*one epilogue per ret*/);
  Interpreter Sim(M);
  RunResult R = Sim.run("main", {});
  EXPECT_TRUE(R.Ok) << R.Error;
}

} // namespace
