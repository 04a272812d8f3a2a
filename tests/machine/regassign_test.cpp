//===- regassign_test.cpp - Register assignment tests --------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/machine/RegisterAssign.h"

#include "src/ir/Parse.h"
#include "src/machine/Target.h"
#include "src/sim/Interpreter.h"
#include "tests/common/Helpers.h"
#include "tests/common/SuiteInstances.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

/// Returns true if no pseudo register remains anywhere in \p F.
bool allHardware(const Function &F) {
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts) {
      if (I.Dst.isReg() && !isHardwareReg(I.Dst.getReg()))
        return false;
      bool Bad = false;
      I.forEachUsedReg([&Bad](RegNum R) { Bad |= !isHardwareReg(R); });
      if (Bad)
        return false;
    }
  return true;
}

TEST(RegisterAssign, MapsAllPseudosToHardware) {
  Module M = compileOrDie(
      "int f(int a, int b) { return a * b + a - b; }");
  Function &F = functionNamed(M, "f");
  assignRegisters(F);
  EXPECT_TRUE(F.State.RegsAssigned);
  EXPECT_TRUE(allHardware(F)) << printFunction(F);
  expectVerifies(F);
}

TEST(RegisterAssign, Idempotent) {
  Module M = compileOrDie("int f(int a) { return a + 1; }");
  Function &F = functionNamed(M, "f");
  assignRegisters(F);
  Function Snapshot = F;
  assignRegisters(F);
  EXPECT_EQ(F.instructionCount(), Snapshot.instructionCount());
}

TEST(RegisterAssign, PreservesSemantics) {
  const char *Src =
      "int f(int a, int b, int c) {\n"
      "  int x = a * b; int y = b * c; int z = a * c;\n"
      "  return x + y * z - (x ^ y) + (z & a);\n"
      "}";
  Module M = compileOrDie(Src);
  Interpreter I(M);
  RunResult Before = I.run("f", {3, 5, 7});
  ASSERT_TRUE(Before.Ok) << Before.Error;

  Function &F = functionNamed(M, "f");
  assignRegisters(F);
  RunResult After = I.run("f", {3, 5, 7});
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ReturnValue, After.ReturnValue);
}

/// FNV-1a over \p Text: one recorded value pins a printed function.
uint64_t textDigest(const std::string &Text) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (char C : Text) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001B3ull;
  }
  return H;
}

/// \p Loads values loaded through one address register, all live until
/// one chain sums them; the sum is stored back through the address. From
/// 12 loads on, more values are live at once than there are registers.
/// (MC keeps locals in stack slots, so compiled source never gets there.)
Function pressureCase(int Loads) {
  std::string Text = "function f(a) [a:1]\nL0:\n  r[32]=&S0;\n";
  for (int I = 0; I != Loads; ++I)
    Text += "  r[" + std::to_string(33 + I) + "]=M[r[32]];\n";
  RegNum Sum = 33;
  for (int I = 1; I != Loads; ++I) {
    const RegNum Next = static_cast<RegNum>(32 + Loads + I);
    Text += "  r[" + std::to_string(Next) + "]=r[" + std::to_string(Sum) +
            "]+r[" + std::to_string(33 + I) + "];\n";
    Sum = Next;
  }
  Text += "  M[r[32]]=r[" + std::to_string(Sum) + "];\n";
  Text += "  ret r[" + std::to_string(Sum) + "];\n";
  Function F;
  EXPECT_EQ(parseFunction(Text, F), "") << Text;
  return F;
}

TEST(RegisterAssign, HighPressureSpills) {
  struct Case {
    int Loads;
    size_t SpillSlots;
    uint64_t Digest;
  };
  // Slot counts and digests recorded from the map/set coloring the bit
  // matrix replaced.
  const Case Cases[] = {{12, 1, 0x009d620c75db760eull},
                        {13, 4, 0xa2007481e1b015bfull},
                        {16, 7, 0xdb096e7adda6fa91ull},
                        {25, 16, 0xeee04e5f70e4c853ull}};
  Module M = compileOrDie("int f(int a) { return a; }");
  Interpreter Sim(M);
  for (const Case &C : Cases) {
    Function F = pressureCase(C.Loads);
    Sim.overrideFunction("f", &F);
    const RunResult Before = Sim.run("f", {3});
    ASSERT_TRUE(Before.Ok) << Before.Error;
    EXPECT_EQ(Before.ReturnValue, 3 * C.Loads);

    const size_t Slots = F.Slots.size();
    assignRegisters(F);
    EXPECT_GT(F.Slots.size(), Slots) << C.Loads << " loads";
    EXPECT_EQ(F.Slots.size() - Slots, C.SpillSlots) << C.Loads << " loads";
    EXPECT_TRUE(allHardware(F)) << printFunction(F);
    expectVerifies(F);
    EXPECT_EQ(textDigest(printFunction(F)), C.Digest) << printFunction(F);
    const RunResult After = Sim.run("f", {3});
    ASSERT_TRUE(After.Ok) << After.Error;
    EXPECT_EQ(After.ReturnValue, Before.ReturnValue);
  }
  Sim.overrideFunction("f", nullptr);
}

// Canonicalization renumbers registers, so the golden spaces cannot see a
// coloring that differs by a permutation. This pins the assigned code
// itself, byte for byte, on every unassigned instance of the capped suite
// spaces.
TEST(RegisterAssign, SuiteAssignmentsPinned) {
  PhaseManager PM;
  uint64_t Digest = 0xCBF29CE484222325ull;
  size_t Unassigned = 0;
  forEachSuiteInstance(PM, [&](const std::string &, const Function &Inst) {
    if (Inst.State.RegsAssigned)
      return;
    ++Unassigned;
    Function F = Inst;
    assignRegisters(F);
    Digest = (Digest ^ textDigest(printFunction(F))) * 0x100000001B3ull;
  });
  EXPECT_EQ(Unassigned, 551u);
  EXPECT_EQ(Digest, 0x24f1d9d5d75e4104ull);
}

TEST(RegisterAssign, UsesOnlyAllocatableRegisters) {
  Module M = compileOrDie("int f(int a,int b){return (a+b)*(a-b);}");
  Function &F = functionNamed(M, "f");
  assignRegisters(F);
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts) {
      if (I.Dst.isReg()) {
        EXPECT_LT(I.Dst.getReg(), target::NumAllocatableRegs);
      }
      I.forEachUsedReg(
          [](RegNum R) { EXPECT_LT(R, target::NumAllocatableRegs); });
    }
}

TEST(RegisterAssign, DeterministicAcrossRuns) {
  Module M1 = compileOrDie("int f(int a,int b){return a*b+(a^b);}");
  Module M2 = compileOrDie("int f(int a,int b){return a*b+(a^b);}");
  Function &F1 = functionNamed(M1, "f");
  Function &F2 = functionNamed(M2, "f");
  assignRegisters(F1);
  assignRegisters(F2);
  EXPECT_EQ(printFunction(F1), printFunction(F2));
}

} // namespace
