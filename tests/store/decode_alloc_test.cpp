//===- decode_alloc_test.cpp - A stored result decodes in a few allocations ===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A warm supervised sweep is mostly loading stored results. Every node's
// edges decode into the result's one edge array, sized from the payload
// before the first edge, so a decode allocates a fixed number of times
// however many nodes the DAG has. This test pins that with the counting
// global operator new of tests/common/CountingNew.cpp, which is why it
// shares the allocation-counting executable.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"
#include "src/opt/PhaseManager.h"
#include "src/store/Serialize.h"
#include "src/workloads/Workloads.h"
#include "tests/common/CountingNew.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(DecodeAlloc, ResultDecodeAllocatesAFixedNumberOfTimes) {
  // The node array, the edge array and the level statistics; a clean
  // final result has no diagnostics or frontier.
  constexpr size_t MaxPerResult = 3;
  PhaseManager PM;
  const Enumerator E(PM, EnumeratorConfig());
  size_t Results = 0, Nodes = 0, WithEdges = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      const std::string Key = std::string(W.Name) + "/" + F.Name;
      ByteWriter Wr;
      store::encodeResult(Wr, E.enumerate(F));
      ByteReader Rd(Wr.bytes());
      EnumerationResult Out;
      bool Ok = false;
      const size_t Allocs =
          allocationsOf([&] { Ok = store::decodeResult(Rd, Out); });
      ASSERT_TRUE(Ok && Rd.atEnd()) << Key;
      EXPECT_LE(Allocs, MaxPerResult)
          << Key << ", " << Out.Nodes.size() << " nodes";
      // The decoded spans read back as the stored edges.
      ByteWriter Again;
      store::encodeResult(Again, Out);
      EXPECT_EQ(Again.bytes(), Wr.bytes()) << Key;
      ++Results;
      Nodes += Out.Nodes.size();
      for (const DagNode &N : Out.Nodes)
        WithEdges += !N.isLeaf();
    }
  }
  // One allocation per node with edges, as when each node owned its
  // edge list, would be 12,176 over the suite.
  EXPECT_EQ(Results, 67u);
  EXPECT_EQ(Nodes, 12'545u);
  EXPECT_EQ(WithEdges, 12'176u);
}

} // namespace
