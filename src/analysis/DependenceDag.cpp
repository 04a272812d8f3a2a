//===- DependenceDag.cpp - Intra-block dependence analysis --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/DependenceDag.h"

#include "src/ir/Function.h"

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace pose;

BitMatrix pose::blockDependences(const BasicBlock &B) {
  const size_t N = B.Insts.size();
  BitMatrix Preds(N, N);
  // Every register, then IC, then memory is one resource with a last
  // writer and the readers since that write, tracked by scanning forward.
  // Loads read memory; stores and calls write it, so they are ordered with
  // everything that touches memory while loads reorder among themselves.
  RegNum MaxReg = 0;
  for (const Rtl &I : B.Insts) {
    if (I.definesReg())
      MaxReg = std::max(MaxReg, I.Dst.getReg());
    I.forEachUsedReg([&MaxReg](RegNum R) { MaxReg = std::max(MaxReg, R); });
  }
  const size_t IC = size_t(MaxReg) + 1, Memory = IC + 1;
  constexpr uint32_t None = UINT32_MAX;
  std::vector<uint32_t> LastWriter(Memory + 1, None);
  BitMatrix Readers(Memory + 1, N);

  auto Read = [&](size_t J, size_t Res) {
    if (LastWriter[Res] != None)
      Preds.set(J, LastWriter[Res]); // RAW.
    Readers.set(Res, J);
  };
  auto Write = [&](size_t J, size_t Res) {
    if (LastWriter[Res] != None)
      Preds.set(J, LastWriter[Res]); // WAW.
    Preds.unionRow(J, Readers, Res); // WAR.
    Readers.clearRow(Res);
    LastWriter[Res] = static_cast<uint32_t>(J);
  };

  for (size_t J = 0; J != N; ++J) {
    const Rtl &I = B.Insts[J];
    I.forEachUsedReg([&](RegNum R) { Read(J, R); });
    if (I.usesIC())
      Read(J, IC);
    if (I.Opcode == Op::Load)
      Read(J, Memory);
    if (I.definesIC())
      Write(J, IC);
    if (I.Opcode == Op::Store || I.Opcode == Op::Call)
      Write(J, Memory);
    if (I.definesReg())
      Write(J, I.Dst.getReg());
    // An instruction that reads what it writes was among the readers; it
    // does not precede itself.
    Preds.reset(J, J);
    // Control transfers stay last: every earlier instruction precedes
    // them, and nothing may move past them (they are block-final anyway).
    if (I.isControl())
      Preds.setFirst(J, J);
  }
  return Preds;
}
