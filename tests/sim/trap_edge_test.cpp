//===- trap_edge_test.cpp - Interpreter trap edges -----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The address and arithmetic edges the equivalence vector generator
// deliberately reaches (src/sem/TestVectors.h boundary pool): every one
// must end in a clean classified trap or a defined wrapped result — never
// undefined behavior — because behavior digests are built from exactly
// these outcomes. Runs under the ASan/UBSan presets like the rest of the
// suite. The arithmetic edges also run after phases c and s, which fold
// constants with the interpreter's own evaluator (src/ir/Rtl.h): a phase
// must keep the trap or the value, never fold a trap away.
//
//===----------------------------------------------------------------------===//

#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"

#include <climits>
#include <gtest/gtest.h>

using namespace pose;

namespace {

constexpr size_t kArenaWords = 1u << 12; // 4096-word arena for the tests.

/// Wraps a hand-built single function into a runnable module.
Module moduleOf(Function F, int NumParams) {
  Module M;
  Global G;
  G.Name = "f";
  G.Kind = GlobalKind::Func;
  G.FuncIndex = 0;
  G.ReturnsValue = true;
  G.NumParams = NumParams;
  M.Globals.push_back(G);
  F.Name = "f";
  F.ReturnsValue = true;
  F.NumParams = NumParams;
  while (static_cast<int>(F.Slots.size()) < NumParams) {
    StackSlot S;
    S.Name = "p" + std::to_string(F.Slots.size());
    S.IsParam = true;
    F.addSlot(S);
  }
  M.Functions.push_back(std::move(F));
  return M;
}

/// f() = load from absolute word address \p Addr.
RunResult runLoadAt(int32_t Addr) {
  Function F;
  F.addBlock();
  RegNum A = F.makePseudo(), V = F.makePseudo();
  auto &I = F.Blocks.mut(0).Insts;
  I.push_back(rtl::mov(Operand::reg(A), Operand::imm(Addr)));
  I.push_back(rtl::load(Operand::reg(V), Operand::reg(A), 0));
  I.push_back(rtl::ret(Operand::reg(V)));
  Module M = moduleOf(std::move(F), 0);
  Interpreter Sim(M, kArenaWords);
  return Sim.run("f", {});
}

/// f() = store 7 to absolute word address \p Addr, then return 0.
RunResult runStoreAt(int32_t Addr) {
  Function F;
  F.addBlock();
  RegNum A = F.makePseudo();
  auto &I = F.Blocks.mut(0).Insts;
  I.push_back(rtl::mov(Operand::reg(A), Operand::imm(Addr)));
  I.push_back(rtl::store(Operand::reg(A), 0, Operand::imm(7)));
  I.push_back(rtl::ret(Operand::imm(0)));
  Module M = moduleOf(std::move(F), 0);
  Interpreter Sim(M, kArenaWords);
  return Sim.run("f", {});
}

/// f() = binary(OpCode, A, B). Also runs f after phase c and after phase
/// s, expecting the same trap or the same value as unoptimized.
RunResult runBinary(Op OpCode, int32_t A, int32_t B) {
  Function F;
  F.addBlock();
  RegNum RA = F.makePseudo(), RB = F.makePseudo(), RC = F.makePseudo();
  auto &I = F.Blocks.mut(0).Insts;
  I.push_back(rtl::mov(Operand::reg(RA), Operand::imm(A)));
  I.push_back(rtl::mov(Operand::reg(RB), Operand::imm(B)));
  I.push_back(rtl::binary(OpCode, Operand::reg(RC), Operand::reg(RA),
                          Operand::reg(RB)));
  I.push_back(rtl::ret(Operand::reg(RC)));
  Module M = moduleOf(std::move(F), 0);
  Interpreter Sim(M, kArenaWords);
  const RunResult R = Sim.run("f", {});

  PhaseManager PM;
  for (const char *Phase : {"c", "s"}) {
    Function Opt = M.Functions[0];
    PM.applySequence(Opt, Phase);
    Sim.overrideFunction("f", &Opt);
    const RunResult After = Sim.run("f", {});
    Sim.overrideFunction("f", nullptr);
    const std::string Case = std::string(opName(OpCode)) + " " +
                             std::to_string(A) + ", " + std::to_string(B) +
                             " after " + Phase;
    EXPECT_EQ(After.Ok, R.Ok) << Case << ": " << After.Error;
    EXPECT_EQ(After.trapKind(), R.trapKind()) << Case;
    if (R.Ok && After.Ok) {
      EXPECT_EQ(After.ReturnValue, R.ReturnValue) << Case;
    }
  }
  return R;
}

TEST(TrapEdges, LoadsBelowTheGlobalBaseTrap) {
  // Addresses 0..15 are deliberately unmapped so stray null-ish pointers
  // trap instead of reading globals.
  for (int32_t Addr : {0, 1, 15, -1, INT32_MIN}) {
    const RunResult R = runLoadAt(Addr);
    EXPECT_FALSE(R.Ok) << "address " << Addr;
    EXPECT_EQ(R.trapKind(), "load out of bounds") << "address " << Addr;
  }
}

TEST(TrapEdges, LoadAtTheGlobalBaseBoundaryIsClean) {
  // 16 is the first mapped word; the zeroed arena reads back 0.
  const RunResult R = runLoadAt(16);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 0);
}

TEST(TrapEdges, LoadsAtAndPastTheArenaTopTrap) {
  for (int32_t Addr : {static_cast<int32_t>(kArenaWords),
                       static_cast<int32_t>(kArenaWords) + 1, INT32_MAX}) {
    const RunResult R = runLoadAt(Addr);
    EXPECT_FALSE(R.Ok) << "address " << Addr;
    EXPECT_EQ(R.trapKind(), "load out of bounds") << "address " << Addr;
  }
}

TEST(TrapEdges, LoadOfTheLastArenaWordIsClean) {
  const RunResult R = runLoadAt(static_cast<int32_t>(kArenaWords) - 1);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(TrapEdges, StoresShareTheSameBoundsWithTheirOwnTrapClass) {
  for (int32_t Addr :
       {0, 15, -1, static_cast<int32_t>(kArenaWords), INT32_MAX}) {
    const RunResult R = runStoreAt(Addr);
    EXPECT_FALSE(R.Ok) << "address " << Addr;
    EXPECT_EQ(R.trapKind(), "store out of bounds") << "address " << Addr;
  }
  EXPECT_TRUE(runStoreAt(16).Ok);
}

TEST(TrapEdges, IntMinDivAndRemTrapLikeDivisionByZero) {
  for (Op O : {Op::Div, Op::Rem}) {
    const RunResult ByZero = runBinary(O, 5, 0);
    EXPECT_FALSE(ByZero.Ok);
    EXPECT_EQ(ByZero.trapKind(), "division by zero");
    // INT32_MIN / -1 overflows in hardware; the machine traps it under
    // the same class rather than wrapping.
    const RunResult Overflow = runBinary(O, INT32_MIN, -1);
    EXPECT_FALSE(Overflow.Ok);
    EXPECT_EQ(Overflow.trapKind(), "division by zero");
  }
  // The neighboring cases stay defined.
  EXPECT_EQ(runBinary(Op::Div, INT32_MIN, 1).ReturnValue, INT32_MIN);
  EXPECT_EQ(runBinary(Op::Div, INT32_MAX, -1).ReturnValue, -INT32_MAX);
}

TEST(TrapEdges, ShiftAmountsOf32AndBeyondAreMaskedNotUB) {
  // The machine masks shift amounts to 5 bits (Section: word-addressed
  // 32-bit machine), so oversized and negative amounts are defined.
  EXPECT_EQ(runBinary(Op::Shl, 1, 32).ReturnValue, 1);  // 32 & 31 == 0.
  EXPECT_EQ(runBinary(Op::Shl, 1, 33).ReturnValue, 2);  // 33 & 31 == 1.
  EXPECT_EQ(runBinary(Op::Shl, 1, -1).ReturnValue, INT32_MIN); // -1 & 31 == 31.
  EXPECT_EQ(runBinary(Op::Shr, INT32_MIN, 31).ReturnValue, -1);
  EXPECT_EQ(runBinary(Op::Shr, INT32_MIN, 32).ReturnValue, INT32_MIN);
  EXPECT_EQ(runBinary(Op::Ushr, INT32_MIN, 31).ReturnValue, 1);
  EXPECT_EQ(runBinary(Op::Ushr, -1, 33).ReturnValue, INT32_MAX);
  // Shifting INT32_MIN left wraps to zero rather than tripping UBSan.
  EXPECT_EQ(runBinary(Op::Shl, INT32_MIN, 1).ReturnValue, 0);
}

} // namespace
