//===- EvalOrder.cpp - Phase o ------------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Reorders instructions within a single basic block in an attempt to use
// fewer registers" (Table 1). Legal only before register assignment: the
// point of the phase is to reduce the number of temporaries that register
// assignment will later have to map onto hardware registers (Section 3).
//
// Implementation: per-block dependence DAG plus greedy list scheduling.
// The ready instruction that frees the most registers (operands whose last
// use it is, minus a new value it creates) is emitted first, which
// approximates Sethi-Ullman ordering of independent expression trees.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/DependenceDag.h"
#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

#include <climits>

using namespace pose;

namespace {

/// Greedy schedule of one block. Returns the new order (indices into the
/// original instruction vector). \p UsesLeft, indexed by register, must be
/// all zero on entry; it is again on return.
std::vector<size_t> scheduleBlock(const BasicBlock &B,
                                  const BitVector &LiveOut,
                                  std::vector<int> &UsesLeft) {
  const size_t N = B.Insts.size();
  const BitMatrix Preds = blockDependences(B);
  std::vector<size_t> PendingPreds(N);
  std::vector<size_t> Ready;
  for (size_t J = 0; J != N; ++J) {
    PendingPreds[J] = Preds.count(J);
    if (PendingPreds[J] == 0)
      Ready.push_back(J);
  }
  // Remaining use counts per register, to know when an instruction's
  // operand dies (its last use in this block and not live out).
  for (const Rtl &I : B.Insts)
    I.forEachUsedReg([&](RegNum R) { ++UsesLeft[R]; });

  std::vector<size_t> Order;
  Order.reserve(N);
  while (!Ready.empty()) {
    // Score = registers freed minus registers created; higher is better.
    // A register an instruction reads twice has two uses left, so it is
    // never counted twice.
    size_t BestAt = 0;
    int BestScore = INT_MIN;
    for (size_t K = 0; K != Ready.size(); ++K) {
      const size_t J = Ready[K];
      const Rtl &I = B.Insts[J];
      int Freed = 0;
      I.forEachUsedReg([&](RegNum R) {
        if (UsesLeft[R] == 1 && !LiveOut.test(R) &&
            !(I.definesReg() && I.Dst.getReg() == R))
          ++Freed;
      });
      int Created = I.definesReg() ? 1 : 0;
      int Score = Freed - Created;
      // Prefer higher score; break ties toward original program order so
      // the schedule is deterministic and respects source structure.
      if (Score > BestScore || (Score == BestScore && J < Ready[BestAt])) {
        BestScore = Score;
        BestAt = K;
      }
    }
    const size_t Best = Ready[BestAt];
    Ready[BestAt] = Ready.back();
    Ready.pop_back();
    Order.push_back(Best);
    B.Insts[Best].forEachUsedReg([&](RegNum R) { --UsesLeft[R]; });
    for (size_t S = Best + 1; S != N; ++S) // Successors come later.
      if (Preds.test(S, Best) && --PendingPreds[S] == 0)
        Ready.push_back(S);
  }
  assert(Order.size() == N && "dependence cycle in a basic block");
  return Order;
}

} // namespace

bool EvalOrderPhase::apply(Function &F) const {
  assert(!F.State.RegsAssigned &&
         "evaluation order determination is illegal after register "
         "assignment");
  bool Changed = false;
  Cfg C = Cfg::build(F);
  Liveness LV(F, C);
  std::vector<int> UsesLeft(LV.numRegs(), 0);
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    if (B.Insts.size() < 3)
      continue;
    std::vector<size_t> Order = scheduleBlock(B, LV.liveOut(BI), UsesLeft);
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
