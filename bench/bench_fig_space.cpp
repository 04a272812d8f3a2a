//===- bench_fig_space.cpp - Reproduces Figures 1, 2, 3, 4 and 5 --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The search-space figures, quantified per level for a chosen function:
//  Figure 1 — the naive space: 15^n attempted sequences per level;
//  Figure 2 — dormant-phase pruning: active sequences per level;
//  Figure 4 — identical-instance detection: distinct DAG nodes per level.
// Plus the two worked examples:
//  Figure 3 — two different phases producing identical code;
//  Figure 5 — register/label remapping canonicalization.
//
// Flags: --function=NAME (default pick_nearest), --budget=N, --fig3,
//        --fig5.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/SpaceStats.h"
#include "src/ir/Printer.h"
#include "src/opt/Phases.h"
#include "src/support/Str.h"

#include <string>

using namespace pose;
using namespace pose::bench;

static void figure3() {
  std::printf("Figure 3: different optimizations having the same effect\n\n");
  // Original: r[2]=1; r[3]=r[4]+r[2]
  Function A;
  A.addBlock();
  A.Blocks.mut(0).Insts.push_back(rtl::mov(Operand::reg(2), Operand::imm(1)));
  A.Blocks.mut(0).Insts.push_back(rtl::binary(Op::Add, Operand::reg(3),
                                          Operand::reg(4),
                                          Operand::reg(2)));
  A.Blocks.mut(0).Insts.push_back(rtl::ret(Operand::reg(3)));
  A.recomputeCounters();
  A.State.RegsAssigned = true; // r2..r4 are hardware registers.
  Function B = A;
  std::printf("original code segment:\n%s\n", printFunction(A).c_str());

  InstructionSelectionPhase S;
  S.apply(A);
  std::printf("after instruction selection:\n%s\n",
              printFunction(A).c_str());

  // The same effect via constant propagation (part of c) followed by dead
  // assignment elimination.
  CsePhase C;
  C.apply(B);
  std::printf("after constant propagation (within c):\n%s\n",
              printFunction(B).c_str());
  DeadAssignElimPhase H;
  H.apply(B);
  std::printf("after dead assignment elimination:\n%s\n",
              printFunction(B).c_str());
  std::printf("identical instances: %s\n\n",
              canonicalize(A).Hash == canonicalize(B).Hash ? "yes" : "no");
}

static void figure5() {
  std::printf("Figure 5: different registers/labels, equivalent code\n\n");
  auto Build = [](RegNum Sum, RegNum Base, RegNum Ptr, RegNum End,
                  RegNum Tmp, int32_t L) {
    Function F;
    BasicBlock Head(L + 10);
    Head.Insts.push_back(rtl::mov(Operand::reg(Sum), Operand::imm(0)));
    Head.Insts.push_back(rtl::lea(Operand::reg(Base), Operand::global(0)));
    Head.Insts.push_back(rtl::mov(Operand::reg(Ptr), Operand::reg(Base)));
    Head.Insts.push_back(rtl::binary(Op::Add, Operand::reg(End),
                                     Operand::reg(Base),
                                     Operand::imm(4000)));
    BasicBlock Loop(L);
    Loop.Insts.push_back(rtl::load(Operand::reg(Tmp), Operand::reg(Ptr), 0));
    Loop.Insts.push_back(rtl::binary(Op::Add, Operand::reg(Sum),
                                     Operand::reg(Sum), Operand::reg(Tmp)));
    Loop.Insts.push_back(rtl::binary(Op::Add, Operand::reg(Ptr),
                                     Operand::reg(Ptr), Operand::imm(4)));
    Loop.Insts.push_back(rtl::cmp(Operand::reg(Ptr), Operand::reg(End)));
    Loop.Insts.push_back(rtl::branch(Cond::Lt, L));
    BasicBlock Tail(L + 20);
    Tail.Insts.push_back(rtl::ret(Operand::reg(Sum)));
    F.Blocks.push_back(std::move(Head));
    F.Blocks.push_back(std::move(Loop));
    F.Blocks.push_back(std::move(Tail));
    F.recomputeCounters();
    return F;
  };
  Function B = Build(10, 12, 1, 9, 8, 3); // Fig 5(b)
  Function C = Build(11, 10, 1, 9, 8, 5); // Fig 5(c)
  std::printf("(b) register allocation before code motion:\n%s\n",
              printFunction(B).c_str());
  std::printf("(c) code motion before register allocation:\n%s\n",
              printFunction(C).c_str());
  CanonicalForm FB = canonicalize(B), FC = canonicalize(C);
  std::printf("triples: (%u, %u, %08x) vs (%u, %u, %08x) -> %s\n\n",
              FB.Hash.InstCount, FB.Hash.ByteSum, FB.Hash.Crc,
              FC.Hash.InstCount, FC.Hash.ByteSum, FC.Hash.Crc,
              FB.Hash == FC.Hash ? "identical after remapping"
                                 : "DIFFERENT (bug!)");
}

int main(int Argc, char **Argv) {
  bool Fig3 = false, Fig5 = false;
  std::string Target = "pick_nearest";
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000'000;
  parseBenchFlags(Argc, Argv,
                  switchFlag("--fig3", Fig3, "print Figure 3 and exit"),
                  switchFlag("--fig5", Fig5, "print Figure 5 and exit"),
                  textFlag("--function", "NAME", Target,
                           "function whose space Figures 1/2/4 show "
                           "(default pick_nearest)"),
                  budgetFlag(Cfg.MaxLevelSequences));
  if (Fig3) {
    figure3();
    return 0;
  }
  if (Fig5) {
    figure5();
    return 0;
  }

  PhaseManager PM;
  Enumerator E(PM, Cfg);

  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      if (F.Name != Target)
        continue;
      EnumerationResult R = E.enumerate(F);
      std::printf("Figures 1/2/4 for %s(%c): per-level size of the "
                  "attempted tree, the dormant-pruned tree, and the DAG\n\n",
                  F.Name.c_str(), programTag(W.Info->Name));
      std::printf("%5s %22s %22s %12s\n", "Level",
                  "Fig1 naive 15^n", "Fig2 active sequences",
                  "Fig4 new DAG nodes");
      uint64_t Naive = 1;
      for (const LevelStat &L : R.Levels) {
        std::string NaiveStr =
            Naive == UINT64_MAX ? ">1.8e19" : fmtGrouped(Naive);
        std::printf("%5u %22s %22s %12s\n", L.Level, NaiveStr.c_str(),
                    fmtGrouped(L.ActiveSequences).c_str(),
                    fmtGrouped(L.NewNodes).c_str());
        if (Naive > UINT64_MAX / NumPhases)
          Naive = UINT64_MAX;
        else
          Naive *= NumPhases;
      }
      std::printf("\ntotals: %s distinct instances (DAG), %s attempted "
                  "phases, %s naive sequences at depth %u; complete=%s\n",
                  fmtGrouped(R.Nodes.size()).c_str(),
                  fmtGrouped(R.AttemptedPhases).c_str(),
                  naiveSpaceSize(R.MaxActiveLength) == UINT64_MAX
                      ? ">1.8e19"
                      : fmtGrouped(naiveSpaceSize(R.MaxActiveLength))
                            .c_str(),
                  R.MaxActiveLength, R.complete() ? "yes" : "no");
      return 0;
    }
  }
  std::fprintf(stderr, "no workload function named %s\n", Target.c_str());
  return 1;
}
