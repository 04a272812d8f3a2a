//===- instruction_selection_test.cpp - Phase s against its old scan -----===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Phase s scans each block once: a producer tries only its first
// consumer, and after a combine the scan resumes at the earliest producer
// the combine can have changed. The loop it replaced rescanned the block
// from its top after every combine and tried every later instruction as a
// consumer. That loop is kept below, verbatim with the helpers it calls,
// as the reference. Both must make the same combines in the same order, so
// on every input here they must agree on the Changed flag and print the
// same code: every instance of the capped suite spaces, every suite
// function before and after o, and a fixed slice of generated programs,
// their capped spaces included.
//
// The resume point is the subtle part: a combine can enable a producer
// *before* it. Resuming at the combined producer instead of the earliest
// one it can have changed misses such a fold; the named block below shows
// one, and a resume-at-P variant of the reference misses it.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Parse.h"
#include "src/machine/Target.h"
#include "src/opt/PhaseManager.h"
#include "src/opt/Phases.h"
#include "tests/common/ProgramGenerator.h"
#include "tests/common/SuiteInstances.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pose;
using namespace pose::testhelpers;

namespace {

//===--------------------------------------------------------------------===//
// The reference: phase s as it was before the single scan, verbatim but
// for the name of its apply.
//===--------------------------------------------------------------------===//

/// Checks whether instructions in (P, Q) leave the combination of A (at P)
/// into B (at Q) valid: nothing redefines A's destination or sources, no
/// other instruction consumes A's destination, and when A reads memory no
/// intervening instruction may write it.
bool regionAllowsCombine(const BasicBlock &B, size_t P, size_t Q,
                         const Rtl &A) {
  const RegNum D = A.Dst.getReg();
  for (size_t K = P + 1; K < Q; ++K) {
    const Rtl &M = B.Insts[K];
    bool UsesD = false;
    M.forEachUsedReg([&](RegNum R) { UsesD |= (R == D); });
    if (UsesD)
      return false; // d has another consumer.
    if (M.definesReg()) {
      RegNum W = M.Dst.getReg();
      if (W == D)
        return false;
      bool Clobbers = false;
      A.forEachUsedReg([&](RegNum R) { Clobbers |= (R == W); });
      if (Clobbers)
        return false;
    }
    if (A.readsMemory() &&
        (M.Opcode == Op::Store || M.Opcode == Op::Call))
      return false;
  }
  return true;
}

/// Returns true if register \p D is consumed anywhere at or after position
/// \p Q (exclusive of the instruction at Q itself), or is live out of the
/// block; used to decide whether the producer can be deleted.
bool usedBeyond(const Function &F, const Liveness &LV, size_t BlockIndex,
                size_t Q, RegNum D) {
  const BasicBlock &B = F.Blocks[BlockIndex];
  for (size_t K = Q + 1; K < B.Insts.size(); ++K) {
    const Rtl &M = B.Insts[K];
    bool Uses = false;
    M.forEachUsedReg([&](RegNum R) { Uses |= (R == D); });
    if (Uses)
      return true;
    if (M.definesReg() && M.Dst.getReg() == D)
      return false; // Redefined before any further use.
  }
  return LV.liveOut(BlockIndex).test(D);
}

/// Substitutes operand \p From with \p To in every use position of \p I.
/// Returns the rewritten instruction.
Rtl substitute(const Rtl &I, RegNum From, const Operand &To) {
  Rtl Out = I;
  for (Operand &S : Out.Src)
    if (S.isReg() && S.getReg() == From)
      S = To;
  for (Operand &A : Out.Args)
    if (A.isReg() && A.getReg() == From)
      A = To;
  return Out;
}

/// Attempts to combine producer at \p P with consumer at \p Q in block
/// \p BI of \p F. Returns true on success (the block was rewritten).
bool tryCombine(Function &F, const Liveness &LV, size_t BI, size_t P,
                size_t Q) {
  const BasicBlock &B = F.Blocks[BI];
  if (!B.Insts[P].definesReg())
    return false;
  const RegNum D = B.Insts[P].Dst.getReg();

  bool ConsumerUsesD = false;
  B.Insts[Q].forEachUsedReg([&](RegNum R) { ConsumerUsesD |= (R == D); });
  if (!ConsumerUsesD)
    return false;
  // By value: the rewrite below may give the block a new body.
  const Rtl A = B.Insts[P];
  const Rtl Use = B.Insts[Q];
  if (!regionAllowsCombine(B, P, Q, A))
    return false;
  // The combined instruction replaces both; d must die with the pair.
  if (usedBeyond(F, LV, BI, Q, D) && !(Use.definesReg() &&
                                       Use.Dst.getReg() == D))
    return false;

  // Shape 4: collapse a computation into the move that copies its result.
  if (Use.Opcode == Op::Mov && Use.Src[0].isReg() &&
      Use.Src[0].getReg() == D && A.Opcode != Op::Mov) {
    // Calls keep their position (side effects); everything else migrates
    // to the move's slot. Either way the destination becomes x.
    RegNum X = Use.Dst.getReg();
    if (X != D) {
      // x must be untouched between P and Q for the retarget to be valid.
      for (size_t K = P + 1; K < Q; ++K) {
        const Rtl &M = B.Insts[K];
        bool XInvolved = false;
        M.forEachUsedReg([&](RegNum R) { XInvolved |= (R == X); });
        if (M.definesReg() && M.Dst.getReg() == X)
          XInvolved = true;
        if (XInvolved)
          return false;
      }
      // A's own sources must not include x… rewriting dst only is fine
      // even then, but then A would read x before writing it; x's value
      // here equals its value at Q only if untouched — checked above, and
      // A reading x is fine since A precedes the region.
    }
    Rtl New = A;
    New.Dst = Operand::reg(X);
    std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
    if (A.Opcode == Op::Call) {
      MI[P] = New;
      MI.erase(MI.begin() + static_cast<long>(Q));
    } else {
      MI[Q] = New;
      MI.erase(MI.begin() + static_cast<long>(P));
    }
    return true;
  }

  // Shapes 1-3 require a deletable producer (pure value computation).
  if (A.hasSideEffects() || A.Opcode == Op::Call)
    return false;

  Rtl New = Use;
  if (A.Opcode == Op::Mov) {
    // Shapes 1 and 2: forward an immediate or another register.
    New = substitute(Use, D, A.Src[0]);
    foldConstant(New);
  } else if (A.Opcode == Op::Lea &&
             (Use.Opcode == Op::Load || Use.Opcode == Op::Store) &&
             Use.Src[0].isReg() && Use.Src[0].getReg() == D) {
    // Shape 3: fold the address computation into the memory access. Only
    // the base position may take it; if d is also the stored value, the
    // combination is impossible.
    bool DElsewhere = false;
    if (Use.Opcode == Op::Store && Use.Src[2].isReg() &&
        Use.Src[2].getReg() == D)
      DElsewhere = true;
    if (DElsewhere)
      return false;
    New.Src[0] = A.Src[0];
  } else {
    return false; // No other producer shapes combine.
  }

  if (!target::isLegal(New))
    return false;
  std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
  MI[Q] = New;
  MI.erase(MI.begin() + static_cast<long>(P));
  return true;
}

bool applyRescanningFromTheTop(Function &F) {
  // One CFG and one liveness for the whole pass. A combine rewrites
  // instructions of one block and never a control instruction, so the CFG
  // stays exact; the region and usedBeyond checks keep every block's
  // live-in and live-out sets unchanged, so the liveness stays exact too.
  const Cfg C = Cfg::build(F);
  const Liveness LV(F, C);
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    // After a combine, rescan this block from its top: earlier blocks are
    // unchanged and still hold no combine.
    for (bool Progress = true; Progress;) {
      Progress = false;
      const BasicBlock &B = F.Blocks[BI];
      // A combine may give the block a new body (copy-on-write), so B is
      // not read again once one succeeds.
      for (size_t P = 0; !Progress && P < B.Insts.size(); ++P) {
        if (!B.Insts[P].definesReg())
          continue;
        for (size_t Q = P + 1; Q < B.Insts.size(); ++Q) {
          if (tryCombine(F, LV, BI, P, Q)) {
            Progress = true;
            Changed = true;
            break;
          }
          // Stop extending the window once d is redefined.
          if (B.Insts[Q].definesReg() &&
              B.Insts[Q].Dst.getReg() == B.Insts[P].Dst.getReg())
            break;
        }
      }
    }
  }
  return Changed;
}

/// The reference with one change: after a combine the scan resumes at the
/// combined producer instead of the block's top. That is wrong, since a
/// combine can enable a producer before it; the negative control below
/// shows it.
bool applyResumingAtTheCombinedProducer(Function &F) {
  const Cfg C = Cfg::build(F);
  const Liveness LV(F, C);
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    for (size_t P = 0; P < F.Blocks[BI].Insts.size();) {
      const BasicBlock &B = F.Blocks[BI];
      bool Combined = false;
      if (B.Insts[P].definesReg()) {
        for (size_t Q = P + 1; Q < B.Insts.size(); ++Q) {
          if (tryCombine(F, LV, BI, P, Q)) {
            Combined = true;
            break;
          }
          if (B.Insts[Q].definesReg() &&
              B.Insts[Q].Dst.getReg() == B.Insts[P].Dst.getReg())
            break;
        }
      }
      Changed |= Combined;
      if (!Combined)
        ++P;
    }
  }
  return Changed;
}

//===--------------------------------------------------------------------===//
// The differential check.
//===--------------------------------------------------------------------===//

struct Agreement {
  size_t Inputs = 0;
  size_t Changed = 0; ///< Inputs the reference changes.
  size_t Mismatches = 0;
  size_t LongestBlock = 0; ///< Instructions in the longest input block.
};

/// Applies phase s and the reference to copies of \p Inst and counts a
/// mismatch unless both report the same Changed flag and print the same
/// code. The first few mismatches are reported in full.
void compareWithReference(const std::string &Key, const Function &Inst,
                          Agreement &A) {
  Function New = Inst;
  Function Old = Inst;
  const bool NewChanged = InstructionSelectionPhase().apply(New);
  const bool OldChanged = applyRescanningFromTheTop(Old);
  ++A.Inputs;
  A.Changed += OldChanged;
  for (const BasicBlock &B : Inst.Blocks)
    A.LongestBlock = std::max(A.LongestBlock, B.Insts.size());
  if (NewChanged == OldChanged && printFunction(New) == printFunction(Old))
    return;
  if (++A.Mismatches <= 3)
    ADD_FAILURE() << Key << ": s " << (NewChanged ? "changed" : "kept")
                  << " it, the rescan " << (OldChanged ? "changed" : "kept")
                  << " it\ninput:\n"
                  << printFunction(Inst) << "s:\n"
                  << printFunction(New) << "rescan:\n"
                  << printFunction(Old);
}

/// Compares on \p F itself and, where o is legal, on \p F after o: the
/// first phase of the batch order, so the code s meets in a compile.
void compareBeforeAndAfterO(const PhaseManager &PM, const std::string &Key,
                            const Function &F, Agreement &A) {
  compareWithReference(Key, F, A);
  if (!PM.isLegal(PhaseId::EvalOrder, F))
    return;
  Function AfterO = F;
  PM.attempt(PhaseId::EvalOrder, AfterO);
  compareWithReference(Key + " after o", AfterO, A);
}

TEST(InstructionSelection, MatchesTheRescanOnSuiteInstances) {
  PhaseManager PM;
  Agreement A;
  forEachSuiteInstance(PM, [&](const std::string &Key, const Function &F) {
    compareWithReference(Key, F, A);
  });
  EXPECT_EQ(A.Mismatches, 0u);
  // Coverage: 6933 instances, the reference changes 3809 of them.
  EXPECT_GE(A.Inputs, 6'000u);
  EXPECT_GE(A.Changed, 3'000u);
}

TEST(InstructionSelection, MatchesTheRescanOnSuiteFunctionsBeforeAndAfterO) {
  PhaseManager PM;
  Agreement A;
  size_t Functions = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      ++Functions;
      compareBeforeAndAfterO(PM, std::string(W.Name) + "/" + F.Name, F, A);
    }
  }
  EXPECT_EQ(A.Mismatches, 0u);
  EXPECT_EQ(Functions, 67u);
  EXPECT_EQ(A.Inputs, 2 * Functions);
  EXPECT_EQ(A.Changed, A.Inputs);
  // The longest block here has 140 instructions.
  EXPECT_GE(A.LongestBlock, 100u);
}

TEST(InstructionSelection, MatchesTheRescanOnGeneratedPrograms) {
  // Every function of 400 generated programs before and after o, which
  // takes in the rare long straight-line blocks (seeds 118 and 384 hold
  // blocks of 117 and 104 instructions), and the capped spaces of the
  // first 30.
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 100;
  Cfg.MaxTotalNodes = 400;
  Enumerator E(PM, Cfg);
  Agreement A;
  for (uint64_t Seed = 0; Seed != 400; ++Seed) {
    ProgramGenerator Gen(Seed * 104729 + 17);
    Module M = compileOrDie(Gen.generate());
    for (const Function &F : M.Functions) {
      const std::string Key = "seed " + std::to_string(Seed) + " " + F.Name;
      compareBeforeAndAfterO(PM, Key, F, A);
      if (Seed >= 30)
        continue;
      DagPaths(E.enumerate(F))
          .forEachInstance(F, PM, nullptr,
                           [&](uint32_t Id, const Function &Inst) {
                             compareWithReference(
                                 Key + " node " + std::to_string(Id), Inst,
                                 A);
                           });
    }
  }
  EXPECT_EQ(A.Mismatches, 0u);
  // Coverage: 5967 inputs, the reference changes 4270 of them.
  EXPECT_GE(A.Inputs, 5'000u);
  EXPECT_GE(A.Changed, 3'000u);
  EXPECT_GE(A.LongestBlock, 100u);
}

// r[32]'s producer fails at first: r[32] has a second use. Combining
// r[33] into the add rewrites it to r[34]=r[32]+r[32], which makes the
// add r[32]'s only consumer, so the producer *before* the combine folds
// next (r[34]=10), and then the return takes the constant.
const char *EarlierProducerBlock = "function f()\n"
                                   "L0:\n"
                                   "  r[32]=5;\n"
                                   "  r[33]=r[32];\n"
                                   "  r[34]=r[33]+r[32];\n"
                                   "  ret r[34];\n";

TEST(InstructionSelection, FoldsThroughAnEarlierProducer) {
  Function F;
  ASSERT_EQ(parseFunction(EarlierProducerBlock, F), "");
  Function Old = F;
  EXPECT_TRUE(InstructionSelectionPhase().apply(F));
  EXPECT_EQ(printFunction(F), "function f()\nL0:\n  ret 10;\n");
  EXPECT_TRUE(applyRescanningFromTheTop(Old));
  EXPECT_EQ(printFunction(Old), printFunction(F));
}

TEST(InstructionSelection, ResumingAtTheCombinedProducerMissesTheFold) {
  // The negative control: the named block tells the two resume points
  // apart.
  Function F;
  ASSERT_EQ(parseFunction(EarlierProducerBlock, F), "");
  EXPECT_TRUE(applyResumingAtTheCombinedProducer(F));
  EXPECT_EQ(F.instructionCount(), 3u) << printFunction(F);
}

} // namespace
