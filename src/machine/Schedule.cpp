//===- Schedule.cpp - Final instruction scheduling -----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/machine/Schedule.h"

#include "src/analysis/DependenceDag.h"
#include "src/ir/Function.h"
#include "src/machine/EntryExit.h"

#include <vector>

using namespace pose;

namespace {

/// True when \p Consumer reads the register defined by \p Producer.
bool readsResultOf(const Rtl &Consumer, const Rtl &Producer) {
  if (!Producer.definesReg())
    return false;
  bool Reads = false;
  Consumer.forEachUsedReg([&](RegNum R) {
    Reads |= (R == Producer.Dst.getReg());
  });
  return Reads;
}

/// List-schedules one block for the single-issue, one-cycle-load-delay
/// pipeline: among ready instructions, prefer one that does not consume
/// the result of the previously issued instruction when that instruction
/// was a load. Ties break toward original order (determinism).
std::vector<size_t> scheduleBlock(const BasicBlock &B) {
  const size_t N = B.Insts.size();
  const BitMatrix Preds = blockDependences(B);
  std::vector<size_t> Pending(N);
  std::vector<size_t> Ready;
  for (size_t J = 0; J != N; ++J) {
    Pending[J] = Preds.count(J);
    if (Pending[J] == 0)
      Ready.push_back(J);
  }

  std::vector<size_t> Order;
  Order.reserve(N);
  const Rtl *LastIssued = nullptr;
  while (!Ready.empty()) {
    // The first non-stalling ready instruction in program order; if every
    // one stalls, the first in program order.
    size_t BestAt = 0, FirstAt = 0;
    bool Found = false;
    for (size_t K = 0; K != Ready.size(); ++K) {
      const size_t J = Ready[K];
      if (J < Ready[FirstAt])
        FirstAt = K;
      const bool Stalls = LastIssued && LastIssued->Opcode == Op::Load &&
                          readsResultOf(B.Insts[J], *LastIssued);
      if (!Stalls && (!Found || J < Ready[BestAt])) {
        BestAt = K;
        Found = true;
      }
    }
    if (!Found)
      BestAt = FirstAt;
    const size_t Best = Ready[BestAt];
    Ready[BestAt] = Ready.back();
    Ready.pop_back();
    Order.push_back(Best);
    LastIssued = &B.Insts[Best];
    for (size_t S = Best + 1; S != N; ++S) // Successors come later.
      if (Preds.test(S, Best) && --Pending[S] == 0)
        Ready.push_back(S);
  }
  assert(Order.size() == N && "dependence cycle in a basic block");
  return Order;
}

} // namespace

bool pose::scheduleFunction(Function &F) {
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    if (B.Insts.size() < 3)
      continue;
    std::vector<size_t> Order = scheduleBlock(B);
    bool Identity = true;
    for (size_t J = 0; J != Order.size(); ++J)
      Identity &= (Order[J] == J);
    if (Identity)
      continue;
    std::vector<Rtl> NewInsts;
    NewInsts.reserve(B.Insts.size());
    for (size_t J : Order)
      NewInsts.push_back(B.Insts[J]);
    F.Blocks.mut(BI).Insts = std::move(NewInsts);
    Changed = true;
  }
  return Changed;
}

void pose::finalizeFunction(Function &F) {
  scheduleFunction(F);
  fixEntryExit(F);
}
