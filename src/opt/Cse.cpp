//===- Cse.cpp - Phase c --------------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Performs global analysis to eliminate fully redundant calculations,
// which also includes global constant and copy propagation" (Table 1).
// Requires register assignment (Section 3): the analysis runs over the
// target's hardware registers.
//
// Three cooperating transformations, iterated to a fixed point:
//   1. Global constant propagation — forward lattice (const/NAC) per
//      register; constant uses are rewritten into immediates where the
//      machine encoding allows (VPO keeps every RTL legal), and
//      all-constant computations fold into moves.
//   2. Local copy propagation — within a block, uses of a copied register
//      are renamed to the copy source, exposing dead moves and CSE.
//   3. Global common subexpression elimination — available-expression
//      dataflow over (dst, op, src0, src1) tuples; a recomputation whose
//      tuple is available turns into a move from the holding register (or
//      disappears when it targets the same register).
//
//===----------------------------------------------------------------------===//

#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"
#include "src/support/BitVector.h"

#include <algorithm>
#include <bit>
#include <optional>

using namespace pose;

namespace {

/// One past the highest register \p F mentions: the size of the dense
/// per-register states below.
size_t registerLimit(const Function &F) {
  size_t Limit = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts) {
      if (I.definesReg())
        Limit = std::max<size_t>(Limit, I.Dst.getReg() + 1);
      I.forEachUsedReg(
          [&Limit](RegNum R) { Limit = std::max<size_t>(Limit, R + 1); });
    }
  return Limit;
}

//===----------------------------------------------------------------------===//
// Global constant propagation
//===----------------------------------------------------------------------===//

/// Lattice value for one register: unknown-yet (Top), a constant, or
/// not-a-constant (Bottom).
struct LatticeVal {
  enum KindT : uint8_t { Top, Const, Bottom } Kind = Top;
  int32_t Value = 0;

  static LatticeVal top() { return {}; }
  static LatticeVal constant(int32_t V) { return {Const, V}; }
  static LatticeVal bottom() { return {Bottom, 0}; }

  bool operator==(const LatticeVal &O) const {
    return Kind == O.Kind && (Kind != Const || Value == O.Value);
  }
};

LatticeVal meet(const LatticeVal &A, const LatticeVal &B) {
  if (A.Kind == LatticeVal::Top)
    return B;
  if (B.Kind == LatticeVal::Top)
    return A;
  if (A.Kind == LatticeVal::Const && B.Kind == LatticeVal::Const &&
      A.Value == B.Value)
    return A;
  return LatticeVal::bottom();
}

/// Lattice value of every register, indexed by register number.
using RegState = std::vector<LatticeVal>;

std::optional<int32_t> foldConst(Op O, int32_t A, int32_t B) {
  const uint32_t UA = static_cast<uint32_t>(A);
  const uint32_t UB = static_cast<uint32_t>(B);
  switch (O) {
  case Op::Add:
    return static_cast<int32_t>(UA + UB);
  case Op::Sub:
    return static_cast<int32_t>(UA - UB);
  case Op::Mul:
    return static_cast<int32_t>(UA * UB);
  case Op::Div:
    if (B == 0 || (A == INT32_MIN && B == -1))
      return std::nullopt;
    return A / B;
  case Op::Rem:
    if (B == 0 || (A == INT32_MIN && B == -1))
      return std::nullopt;
    return A % B;
  case Op::And:
    return A & B;
  case Op::Or:
    return A | B;
  case Op::Xor:
    return A ^ B;
  case Op::Shl:
    return static_cast<int32_t>(UA << (UB & 31));
  case Op::Shr:
    return A >> (UB & 31);
  case Op::Ushr:
    return static_cast<int32_t>(UA >> (UB & 31));
  default:
    return std::nullopt;
  }
}

/// Value of an operand under \p S, if statically known.
std::optional<int32_t> operandConst(const Operand &O, const RegState &S) {
  if (O.isImm())
    return O.Value;
  if (O.isReg()) {
    const LatticeVal &V = S[O.getReg()];
    if (V.Kind == LatticeVal::Const)
      return V.Value;
  }
  return std::nullopt;
}

/// Transfer function of one instruction for constant propagation.
void transfer(const Rtl &I, RegState &S) {
  if (!I.definesReg())
    return;
  RegNum D = I.Dst.getReg();
  if (I.Opcode == Op::Mov) {
    std::optional<int32_t> V = operandConst(I.Src[0], S);
    S[D] = V ? LatticeVal::constant(*V) : LatticeVal::bottom();
    return;
  }
  if (I.isBinary()) {
    std::optional<int32_t> A = operandConst(I.Src[0], S);
    std::optional<int32_t> B = operandConst(I.Src[1], S);
    if (A && B) {
      if (std::optional<int32_t> V = foldConst(I.Opcode, *A, *B)) {
        S[D] = LatticeVal::constant(*V);
        return;
      }
    }
    S[D] = LatticeVal::bottom();
    return;
  }
  if (I.Opcode == Op::Neg || I.Opcode == Op::Not) {
    std::optional<int32_t> A = operandConst(I.Src[0], S);
    if (A) {
      int32_t V = I.Opcode == Op::Neg
                      ? static_cast<int32_t>(0u - static_cast<uint32_t>(*A))
                      : ~*A;
      S[D] = LatticeVal::constant(V);
      return;
    }
    S[D] = LatticeVal::bottom();
    return;
  }
  S[D] = LatticeVal::bottom(); // Lea, Load, Call.
}

bool constantPropagation(Function &F, const Cfg &C, size_t NumRegs) {
  const size_t N = F.Blocks.size();
  // Block B's entry and exit states are In[B * NumRegs, (B + 1) * NumRegs)
  // and likewise in Out.
  RegState In(N * NumRegs), Out(N * NumRegs);
  auto InOf = [&In, NumRegs](size_t B) { return In.begin() + B * NumRegs; };
  auto OutOf = [&Out, NumRegs](size_t B) {
    return Out.begin() + B * NumRegs;
  };
  RegState NewIn(NumRegs), NewOut(NumRegs);
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    for (size_t B = 0; B != N; ++B) {
      const EdgeList &Preds = C.Preds[B];
      if (B == 0 || Preds.empty()) {
        // Entry: nothing known (parameters arrive in memory).
        NewIn.assign(NumRegs, LatticeVal::top());
      } else {
        // Pointwise meet over the predecessors.
        auto First = OutOf(static_cast<size_t>(Preds[0]));
        NewIn.assign(First, First + NumRegs);
        for (size_t P = 1; P < Preds.size(); ++P) {
          auto OtherS = OutOf(static_cast<size_t>(Preds[P]));
          for (size_t R = 0; R != NumRegs; ++R)
            NewIn[R] = meet(NewIn[R], OtherS[R]);
        }
      }
      NewOut = NewIn;
      for (const Rtl &I : F.Blocks[B].Insts)
        transfer(I, NewOut);
      if (!std::equal(NewIn.begin(), NewIn.end(), InOf(B)) ||
          !std::equal(NewOut.begin(), NewOut.end(), OutOf(B))) {
        std::copy(NewIn.begin(), NewIn.end(), InOf(B));
        std::copy(NewOut.begin(), NewOut.end(), OutOf(B));
        Iterate = true;
      }
    }
  }

  // Rewrite pass: replace known-constant register uses with immediates
  // wherever the machine encoding allows, and fold all-constant ops.
  bool Changed = false;
  RegState &S = NewIn; // Reused as the running state.
  for (size_t B = 0; B != N; ++B) {
    S.assign(InOf(B), InOf(B) + NumRegs);
    // Lazy COW materialization: the block body is fetched mutably only
    // when the first instruction actually rewrites.
    BasicBlock *MB = nullptr;
    const size_t NI = F.Blocks[B].Insts.size();
    for (size_t J = 0; J != NI; ++J) {
      const Rtl &I = MB ? MB->Insts[J] : F.Blocks[B].Insts[J];
      Rtl New = I;
      bool Rewrote = false;
      // Try each source position (not Args: call arguments accept
      // immediates but rewriting them obscures nothing — still do it).
      auto TryOperand = [&](Operand &O, int SrcIndex) {
        if (!O.isReg())
          return;
        const LatticeVal V = S[O.getReg()];
        if (V.Kind != LatticeVal::Const)
          return;
        if (!target::immediateAllowed(New.Opcode, SrcIndex, V.Value))
          return;
        O = Operand::imm(V.Value);
        Rewrote = true;
      };
      for (int SI = 0; SI != 3; ++SI)
        if (New.Src[SI].isReg())
          TryOperand(New.Src[SI], SI);
      // Fold if everything became constant.
      if (New.isBinary() && New.Src[0].isImm() && New.Src[1].isImm()) {
        if (std::optional<int32_t> V =
                foldConst(New.Opcode, New.Src[0].Value, New.Src[1].Value)) {
          New = rtl::mov(New.Dst, Operand::imm(*V));
          Rewrote = true;
        }
      }
      if ((New.Opcode == Op::Neg || New.Opcode == Op::Not) &&
          New.Src[0].isImm()) {
        int32_t V = New.Opcode == Op::Neg
                        ? static_cast<int32_t>(
                              0u - static_cast<uint32_t>(New.Src[0].Value))
                        : ~New.Src[0].Value;
        New = rtl::mov(New.Dst, Operand::imm(V));
        Rewrote = true;
      }
      if (Rewrote && target::isLegal(New) && !(New == I)) {
        if (!MB)
          MB = &F.Blocks.mut(B);
        MB->Insts[J] = std::move(New);
        Changed = true;
      }
      transfer(MB ? MB->Insts[J] : F.Blocks[B].Insts[J], S);
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local copy propagation
//===----------------------------------------------------------------------===//

bool copyPropagation(Function &F, size_t NumRegs) {
  constexpr RegNum NoCopy = ~RegNum(0);
  bool Changed = false;
  // CopyOf[d] = s for an active "mov d, s" (never s == d), else NoCopy.
  std::vector<RegNum> CopyOf(NumRegs);
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    std::fill(CopyOf.begin(), CopyOf.end(), NoCopy);
    auto Kill = [&CopyOf](RegNum W) {
      CopyOf[W] = NoCopy;
      for (RegNum &S : CopyOf)
        if (S == W)
          S = NoCopy;
    };
    BasicBlock *MB = nullptr; // Materialized on the first rewrite.
    const size_t NI = F.Blocks[BI].Insts.size();
    for (size_t J = 0; J != NI; ++J) {
      // Probe const-side whether any use reads through an active copy.
      bool Needs = false;
      (MB ? MB->Insts[J] : F.Blocks[BI].Insts[J])
          .forEachUsedReg([&](RegNum R) { Needs |= CopyOf[R] != NoCopy; });
      if (Needs) {
        if (!MB)
          MB = &F.Blocks.mut(BI);
        MB->Insts[J].forEachUseOperand([&](Operand &O) {
          if (const RegNum S = CopyOf[O.getReg()]; S != NoCopy) {
            O = Operand::reg(S);
            Changed = true;
          }
        });
      }
      const Rtl &I = MB ? MB->Insts[J] : F.Blocks[BI].Insts[J];
      if (I.definesReg()) {
        RegNum D = I.Dst.getReg();
        Kill(D);
        if (I.Opcode == Op::Mov && I.Src[0].isReg() &&
            I.Src[0].getReg() != D)
          CopyOf[D] = I.Src[0].getReg();
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Global CSE via available (dst, op, src0, src1) tuples
//===----------------------------------------------------------------------===//

/// A pure computation whose recomputation can be elided.
struct ExprKey {
  Op Opcode;
  Operand Dst, S0, S1;

  bool operator==(const ExprKey &O) const {
    return Opcode == O.Opcode && Dst == O.Dst && S0 == O.S0 && S1 == O.S1;
  }

  size_t hash() const {
    uint64_t H = static_cast<uint64_t>(Opcode);
    for (const Operand &O : {Dst, S0, S1})
      H = (H ^ (static_cast<uint64_t>(O.Kind) << 32 |
                static_cast<uint32_t>(O.Value))) *
          0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(H ^ (H >> 32));
  }
};

/// Returns the expression tuple computed by \p I, when CSE-able: pure,
/// register-writing, non-trivial (moves are copy propagation's business).
/// Self-referencing computations (destination among the sources, e.g.
/// "r4 = r4 + 1") are excluded: their tuple would describe the *new*
/// value of the source register, which is never what was computed.
std::optional<ExprKey> exprOf(const Rtl &I) {
  if (!I.definesReg())
    return std::nullopt;
  if (I.isBinary() || I.Opcode == Op::Neg || I.Opcode == Op::Not ||
      I.Opcode == Op::Lea) {
    const RegNum D = I.Dst.getReg();
    for (const Operand &S : I.Src)
      if (S.isReg() && S.getReg() == D)
        return std::nullopt;
    return ExprKey{I.Opcode, I.Dst, I.Src[0], I.Src[1]};
  }
  return std::nullopt;
}

bool cseAvailableExpressions(Function &F, const Cfg &C, size_t NumRegs) {
  const size_t N = F.Blocks.size();
  // Collect the expression universe, numbered in order of first
  // appearance, and the tuple index of every instruction (-1 for none);
  // block B's instructions start at At[B]. Index is an open-addressing
  // table of tuple numbers, at most half full.
  size_t NumInsts = 0;
  for (const BasicBlock &B : F.Blocks)
    NumInsts += B.Insts.size();
  std::vector<ExprKey> Universe;
  Universe.reserve(NumInsts);
  std::vector<int32_t> ExprAt;
  ExprAt.reserve(NumInsts);
  std::vector<size_t> At(N + 1, 0);
  const size_t Mask = std::bit_ceil(2 * NumInsts + 1) - 1;
  std::vector<int32_t> Index(Mask + 1, -1);
  for (size_t B = 0; B != N; ++B) {
    At[B] = ExprAt.size();
    for (const Rtl &I : F.Blocks[B].Insts) {
      int32_t K = -1;
      if (std::optional<ExprKey> E = exprOf(I)) {
        size_t H = E->hash() & Mask;
        while (Index[H] >= 0 &&
               !(Universe[static_cast<size_t>(Index[H])] == *E))
          H = (H + 1) & Mask;
        if (Index[H] < 0) {
          Index[H] = static_cast<int32_t>(Universe.size());
          Universe.push_back(*E);
        }
        K = Index[H];
      }
      ExprAt.push_back(K);
    }
  }
  At[N] = ExprAt.size();
  if (Universe.empty())
    return false;
  const size_t NE = Universe.size();

  // Writing register W kills every tuple that holds its value in W or
  // reads W, the generating computation included (gen follows kill).
  std::vector<BitVector> KillsOf(NumRegs, BitVector(NE));
  for (size_t K = 0; K != NE; ++K)
    for (const Operand &O : {Universe[K].Dst, Universe[K].S0, Universe[K].S1})
      if (O.isReg())
        KillsOf[O.getReg()].set(K);

  // Per-block summaries: Out = (In - Kill) | Gen.
  std::vector<BitVector> Gen(N, BitVector(NE)), Kill(N, BitVector(NE));
  for (size_t B = 0; B != N; ++B) {
    const std::vector<Rtl> &Insts = F.Blocks[B].Insts;
    for (size_t J = 0; J != Insts.size(); ++J) {
      if (Insts[J].definesReg()) {
        const BitVector &Killed = KillsOf[Insts[J].Dst.getReg()];
        Gen[B].subtract(Killed);
        Kill[B].unionWith(Killed);
      }
      if (const int32_t K = ExprAt[At[B] + J]; K >= 0)
        Gen[B].set(static_cast<size_t>(K));
    }
  }

  // Forward all-paths dataflow.
  BitVector Full(NE);
  for (size_t K = 0; K != NE; ++K)
    Full.set(K);
  std::vector<BitVector> In(N, Full), Out(N, Full);
  In[0] = BitVector(NE);
  BitVector NewIn(NE), NewOut(NE);
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    for (size_t B = 0; B != N; ++B) {
      if (B == 0 || C.Preds[B].empty()) {
        NewIn.clear(); // Entry or unreachable: claim nothing.
      } else {
        NewIn = Full;
        for (int P : C.Preds[B])
          NewIn.intersectWith(Out[static_cast<size_t>(P)]);
      }
      NewOut = NewIn;
      NewOut.subtract(Kill[B]);
      NewOut.unionWith(Gen[B]);
      if (NewIn != In[B] || NewOut != Out[B]) {
        std::swap(In[B], NewIn);
        std::swap(Out[B], NewOut);
        Iterate = true;
      }
    }
  }

  // Rewrite: a recomputation of an available tuple vanishes (its
  // destination already holds the value); a computation whose value an
  // available tuple holds in another register becomes a move from it.
  bool Changed = false;
  BitVector Avail;
  for (size_t B = 0; B != N; ++B) {
    Avail = In[B];
    BasicBlock *MB = nullptr; // Materialized on the first rewrite.
    size_t J = 0;             // Position in the block as rewritten so far.
    for (size_t X = At[B]; X != At[B + 1]; ++X) {
      int32_t K = ExprAt[X];
      if (K >= 0 && Avail.test(static_cast<size_t>(K))) {
        if (!MB)
          MB = &F.Blocks.mut(B);
        MB->Insts.erase(MB->Insts.begin() + static_cast<long>(J));
        Changed = true;
        continue;
      }
      if (K >= 0) {
        const ExprKey &E = Universe[static_cast<size_t>(K)];
        for (size_t K2 = 0; K2 != NE; ++K2) {
          const ExprKey &Cand = Universe[K2];
          if (Avail.test(K2) && Cand.Opcode == E.Opcode && Cand.S0 == E.S0 &&
              Cand.S1 == E.S1 && !(Cand.Dst == E.Dst)) {
            if (!MB)
              MB = &F.Blocks.mut(B);
            MB->Insts[J] = rtl::mov(E.Dst, Cand.Dst);
            Changed = true;
            K = -1; // A move generates no tuple.
            break;
          }
        }
      }
      const Rtl &I = MB ? MB->Insts[J] : F.Blocks[B].Insts[J];
      if (I.definesReg())
        Avail.subtract(KillsOf[I.Dst.getReg()]);
      if (K >= 0)
        Avail.set(static_cast<size_t>(K));
      ++J;
    }
  }
  return Changed;
}

} // namespace

bool CsePhase::apply(Function &F) const {
  assert(F.State.RegsAssigned &&
         "CSE requires register assignment (PhaseManager enforces this)");
  // The three transformations rewrite operands and delete or replace
  // computations; none touches a control instruction, removes a block or
  // introduces a register. So one CFG and one register bound (the dense
  // per-register states' size) serve every round.
  const Cfg C = Cfg::build(F);
  const size_t NumRegs = registerLimit(F);
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    Progress |= constantPropagation(F, C, NumRegs);
    Progress |= copyPropagation(F, NumRegs);
    Progress |= cseAvailableExpressions(F, C, NumRegs);
    Changed |= Progress;
  }
  return Changed;
}
