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
// has. This test pins that with a counting global operator new, which is
// why it is an executable of its own.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

namespace {
size_t Allocations = 0;
} // namespace

// GCC 12 at -O2 and above reports the free() below as mismatched with
// operator new once it inlines both; both sides use malloc and free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop

using namespace pose;
using namespace pose::testhelpers;

namespace {

/// Allocations made by \p Build.
template <typename FnT> size_t allocationsOf(FnT Build) {
  const size_t Before = Allocations;
  Build();
  return Allocations - Before;
}

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
