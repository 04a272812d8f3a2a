//===- search_test.cpp - Heuristic search tests ---------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Search.h"

#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *ProgramSource =
    "int acc = 0;\n"
    "int mix(int n) {\n"
    "  int s = 0; int i = 0;\n"
    "  while (i < n) { s = s + i * 5 + (i << 2); i = i + 1; }\n"
    "  acc = acc + s;\n"
    "  return s;\n"
    "}\n"
    "int main() { out(mix(10)); out(mix(3)); return acc; }\n";

/// Exhaustive optimum for comparison.
uint32_t optimalCodeSize(const Function &Root) {
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult R = E.enumerate(Root);
  EXPECT_TRUE(R.complete());
  uint32_t Best = UINT32_MAX;
  for (const DagNode &N : R.Nodes)
    Best = std::min(Best, N.CodeSize);
  return Best;
}

class SearchTest : public ::testing::Test {
protected:
  void SetUp() override {
    M = compileOrDie(ProgramSource);
    Root = functionNamed(M, "mix");
  }
  Module M;
  Function Root;
  PhaseManager PM;
};

TEST_F(SearchTest, GeneticFindsNearOptimalCodeSize) {
  uint32_t Optimal = optimalCodeSize(Root);
  SequenceSearch S(PM, M, "main");
  SearchConfig Cfg;
  Cfg.Seed = 3;
  SearchResult R = S.geneticSearch(Root, Objective::CodeSize, Cfg);
  EXPECT_LT(R.BestFitness, Root.instructionCount());
  // The paper's related work (ref [9]): biased sampling finds good
  // solutions. Demand within 15% of the exhaustive optimum.
  EXPECT_LE(R.BestFitness, static_cast<uint64_t>(Optimal * 1.15 + 1));
  expectVerifies(R.BestInstance);
}

TEST_F(SearchTest, HillClimbImproves) {
  SequenceSearch S(PM, M, "main");
  SearchConfig Cfg;
  Cfg.Seed = 11;
  Cfg.MaxEvaluations = 300;
  SearchResult R = S.hillClimb(Root, Objective::CodeSize, Cfg);
  EXPECT_LT(R.BestFitness, Root.instructionCount());
  EXPECT_LE(R.Evaluations, Cfg.MaxEvaluations + NumPhases); // Cap holds.
  expectVerifies(R.BestInstance);
}

TEST_F(SearchTest, RandomSearchRespectsBudget) {
  SequenceSearch S(PM, M, "main");
  SearchConfig Cfg;
  Cfg.Seed = 5;
  Cfg.MaxEvaluations = 100;
  SearchResult R = S.randomSearch(Root, Objective::CodeSize, Cfg);
  EXPECT_LE(R.Evaluations, Cfg.MaxEvaluations);
  EXPECT_LT(R.BestFitness, Root.instructionCount());
}

TEST_F(SearchTest, DedupSavesEvaluations) {
  SequenceSearch S(PM, M, "main");
  SearchConfig With;
  With.Seed = 7;
  With.MaxEvaluations = 200;
  SearchResult RWith = S.randomSearch(Root, Objective::CodeSize, With);
  // Reference [14]: many attempted sequences map to the same instance;
  // hashing detects them and avoids redundant evaluations.
  EXPECT_GT(RWith.CacheHits, 0u);
}

TEST_F(SearchTest, DynamicCountObjective) {
  SequenceSearch S(PM, M, "main");
  SearchConfig Cfg;
  Cfg.Seed = 13;
  Cfg.Generations = 10;
  Cfg.PopulationSize = 10;
  SearchResult R = S.geneticSearch(Root, Objective::DynamicCount, Cfg);
  // The best instance must behave identically and run faster than naive.
  Interpreter Sim(M);
  RunResult Base = Sim.run("main", {});
  Sim.overrideFunction("mix", &R.BestInstance);
  RunResult Opt = Sim.run("main", {});
  ASSERT_TRUE(Base.Ok);
  ASSERT_TRUE(Opt.Ok);
  EXPECT_TRUE(Base.sameBehavior(Opt));
  EXPECT_EQ(R.BestFitness, Opt.DynamicInsts);
  EXPECT_LT(Opt.DynamicInsts, Base.DynamicInsts);
}

TEST_F(SearchTest, DeterministicForSeed) {
  SequenceSearch S(PM, M, "main");
  SearchConfig Cfg;
  Cfg.Seed = 21;
  Cfg.Generations = 5;
  SearchResult A = S.geneticSearch(Root, Objective::CodeSize, Cfg);
  SearchResult B = S.geneticSearch(Root, Objective::CodeSize, Cfg);
  EXPECT_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
  EXPECT_EQ(A.BestSequence, B.BestSequence);
}

} // namespace
