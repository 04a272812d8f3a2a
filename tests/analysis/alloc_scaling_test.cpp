//===- alloc_scaling_test.cpp - Analyses allocate per build, not per block ===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every phase attempt builds a Cfg and most build Liveness or Dominators,
// so their allocations are paid hundreds of thousands of times per
// enumeration. Their per-block storage is inline (CFG edge lists, bit
// vectors up to BitVector::InlineWords words), which makes each build
// allocate a small fixed number of times however many blocks the function
// has. This test pins that with the counting global operator new of
// tests/common/CountingNew.cpp, which is why it is an executable of its
// own.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/workloads/Workloads.h"
#include "tests/common/CountingNew.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(AllocScaling, AnalysesAllocateAFixedNumberOfTimesPerBuild) {
  constexpr size_t MaxPerBuild = 8;
  size_t Functions = 0, Inline = 0, MaxBlocks = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      const std::string Key = std::string(W.Name) + "/" + F.Name;
      ++Functions;
      MaxBlocks = std::max(MaxBlocks, F.Blocks.size());
      Cfg C;
      EXPECT_LE(allocationsOf([&] { C = Cfg::build(F); }), MaxPerBuild)
          << Key << " Cfg::build, " << F.Blocks.size() << " blocks";
      EXPECT_LE(allocationsOf([&] { Dominators D(F, C); }), MaxPerBuild)
          << Key << " Dominators, " << F.Blocks.size() << " blocks";
      const Liveness LV(F, C);
      if (LV.numRegs() + 1 > BitVector::InlineWords * 64)
        continue; // Wider register universes keep their sets on the heap.
      ++Inline;
      EXPECT_LE(allocationsOf([&] { Liveness L(F, C); }), MaxPerBuild)
          << Key << " Liveness, " << F.Blocks.size() << " blocks";
    }
  }
  // The suite's 67 functions, all but sha_transform (394 registers) with
  // an inline register universe, up to 25 blocks each.
  EXPECT_EQ(Functions, 67u);
  EXPECT_EQ(Inline, 66u);
  EXPECT_GE(MaxBlocks, 20u);
}

} // namespace
