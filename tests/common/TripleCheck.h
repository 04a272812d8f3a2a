//===- TripleCheck.h - Equal triples mean equal canonical bytes -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enumerator merges two function instances when their (instruction
/// count, byte sum, CRC) triples are equal, and the paper reports never
/// meeting two different instances with one triple (Section 4.2). This
/// checks that claim on a finished DAG, outside the engine: it
/// materializes every node, re-applies every edge's phase to the edge's
/// source instance, and expects the result to carry the target node's
/// triple and its exact canonical bytes. Each edge is one instance-table
/// hit or insert the enumerator made, so a collision the table merged
/// shows up as a byte mismatch on some edge.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_TESTS_COMMON_TRIPLECHECK_H
#define POSE_TESTS_COMMON_TRIPLECHECK_H

#include "src/core/Canonical.h"
#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/opt/PhaseManager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pose {
namespace testhelpers {

/// Checks every edge of \p R, the enumerated space of \p Root, and
/// returns how many it checked. \p Key names the function in failures.
inline uint64_t expectEqualTriplesHaveEqualBytes(const Function &Root,
                                                 const PhaseManager &PM,
                                                 const EnumerationResult &R,
                                                 const std::string &Key) {
  std::vector<Function> Insts(R.Nodes.size());
  std::vector<std::vector<uint8_t>> Bytes(R.Nodes.size());
  DagPaths(R).forEachInstance(Root, PM, nullptr,
                              [&](uint32_t Id, const Function &Inst) {
                                Insts[Id] = Inst;
                                Bytes[Id] =
                                    canonicalize(Inst, /*KeepBytes=*/true)
                                        .Bytes;
                              });
  uint64_t Edges = 0;
  for (uint32_t Id = 0; Id != R.Nodes.size(); ++Id)
    for (const DagEdge &E : R.Nodes[Id].Edges) {
      const std::string What = Key + " node " + std::to_string(Id) + " --" +
                               phaseCode(E.Phase) + "--> " +
                               std::to_string(E.To);
      Function Child = Insts[Id];
      EXPECT_TRUE(PM.attempt(E.Phase, Child)) << What << ": dormant";
      const CanonicalForm CF = canonicalize(Child, /*KeepBytes=*/true);
      EXPECT_EQ(CF.Hash, R.Nodes[E.To].Hash) << What;
      EXPECT_TRUE(CF.Bytes == Bytes[E.To])
          << What << ": equal triples, different canonical bytes";
      ++Edges;
    }
  return Edges;
}

} // namespace testhelpers
} // namespace pose

#endif // POSE_TESTS_COMMON_TRIPLECHECK_H
