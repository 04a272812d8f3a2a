//===- Interpreter.cpp - RTL interpreter ------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/sim/Interpreter.h"

#include "src/frontend/Compile.h"

#include <algorithm>

using namespace pose;

namespace {

/// First word address handed to globals; address 0 stays unmapped so that
/// stray zero-valued "pointers" trap.
constexpr int32_t GlobalStart = 16;

/// Maximum call depth (frames, not words; each frame also checks space).
constexpr int MaxDepth = 256;

bool evalCond(Cond C, int32_t A, int32_t B) {
  const uint32_t UA = static_cast<uint32_t>(A);
  const uint32_t UB = static_cast<uint32_t>(B);
  switch (C) {
  case Cond::Eq:
    return A == B;
  case Cond::Ne:
    return A != B;
  case Cond::Lt:
    return A < B;
  case Cond::Le:
    return A <= B;
  case Cond::Gt:
    return A > B;
  case Cond::Ge:
    return A >= B;
  case Cond::ULt:
    return UA < UB;
  case Cond::ULe:
    return UA <= UB;
  case Cond::UGt:
    return UA > UB;
  case Cond::UGe:
    return UA >= UB;
  case Cond::None:
    break;
  }
  assert(false && "branch without condition");
  return false;
}

} // namespace

Interpreter::Interpreter(const Module &M, size_t MemWords)
    : M(M), MemWords(MemWords) {
  // Lay out globals once; contents are refreshed per run.
  GlobalBase.assign(M.Globals.size(), 0);
  int32_t Next = GlobalStart;
  for (size_t Id = 0; Id != M.Globals.size(); ++Id) {
    const Global &G = M.Globals[Id];
    if (G.Kind != GlobalKind::Var)
      continue;
    GlobalBase[Id] = Next;
    Next += G.SizeWords;
  }
  assert(static_cast<size_t>(Next) < MemWords / 2 &&
         "globals overflow the arena");
}

void Interpreter::overrideFunction(const std::string &Name,
                                   const Function *Body) {
  if (Body)
    Overrides[Name] = Body;
  else
    Overrides.erase(Name);
}

const Function *Interpreter::bodyFor(int32_t GlobalId) const {
  if (GlobalId < 0 || static_cast<size_t>(GlobalId) >= M.Globals.size())
    return nullptr;
  const Global &G = M.Globals[GlobalId];
  auto It = Overrides.find(G.Name);
  if (It != Overrides.end())
    return It->second;
  return M.functionFor(GlobalId);
}

RunResult Interpreter::run(const std::string &Name,
                           const std::vector<int32_t> &Args,
                           uint64_t StepLimit) {
  RunResult R;
  int Id = M.findGlobal(Name);
  const Function *F = Id >= 0 ? bodyFor(Id) : nullptr;
  if (!F) {
    R.Error = "no such function: " + Name;
    return R;
  }

  // Fresh memory: zeroed arena with global initializers applied.
  Mem.assign(MemWords, 0);
  for (size_t GId = 0; GId != M.Globals.size(); ++GId) {
    const Global &G = M.Globals[GId];
    if (G.Kind != GlobalKind::Var)
      continue;
    for (size_t J = 0; J != G.Init.size(); ++J)
      Mem[static_cast<size_t>(GlobalBase[GId]) + J] = G.Init[J];
  }

  ExecState St;
  St.StepLimit = StepLimit;
  if (!ProfileName.empty()) {
    int PId = M.findGlobal(ProfileName);
    St.ProfileTarget = PId >= 0 ? bodyFor(PId) : nullptr;
    if (St.ProfileTarget)
      St.BlockCounts.assign(St.ProfileTarget->Blocks.size(), 0);
  }
  int32_t Result = 0;
  bool Ok = callFunction(*F, Args, Result, St,
                         static_cast<int32_t>(MemWords));
  R.Ok = Ok;
  R.Error = St.Error;
  R.ReturnValue = Result;
  R.DynamicInsts = St.Steps;
  R.Output = std::move(St.Output);
  R.BlockCounts = std::move(St.BlockCounts);
  return R;
}

bool Interpreter::callFunction(const Function &F,
                               const std::vector<int32_t> &Args,
                               int32_t &Result, ExecState &St,
                               int32_t FrameTop) {
  if (++St.Depth > MaxDepth) {
    St.Error = "call depth limit exceeded in " + F.Name;
    return false;
  }

  // Frame layout: slots packed downward from FrameTop.
  int32_t FrameWords = 0;
  std::vector<int32_t> SlotAddr(F.Slots.size());
  for (size_t S = 0; S != F.Slots.size(); ++S) {
    FrameWords += F.Slots[S].SizeWords;
    SlotAddr[S] = FrameTop - FrameWords;
  }
  const int32_t FrameBase = FrameTop - FrameWords;
  if (FrameBase <= GlobalStart + 1024) { // Leave room under the globals.
    St.Error = "stack overflow in " + F.Name;
    return false;
  }
  for (int32_t A = FrameBase; A != FrameTop; ++A)
    Mem[static_cast<size_t>(A)] = 0;
  assert(static_cast<int32_t>(Args.size()) == F.NumParams &&
         "caller/callee arity mismatch");
  for (size_t P = 0; P != Args.size(); ++P)
    Mem[static_cast<size_t>(SlotAddr[P])] = Args[P];

  std::vector<int32_t> Regs(std::max<size_t>(F.pseudoLimit(), 64), 0);
  int32_t IcA = 0, IcB = 0;

  size_t Block = 0, Index = 0;

  auto Value = [&](const Operand &O) -> int32_t {
    switch (O.Kind) {
    case OperandKind::Reg:
      return Regs[O.getReg()];
    case OperandKind::Imm:
      return O.Value;
    default:
      assert(false && "operand has no value");
      return 0;
    }
  };
  auto Address = [&](const Operand &O) -> int32_t {
    switch (O.Kind) {
    case OperandKind::Reg:
      return Regs[O.getReg()];
    case OperandKind::Slot:
      return SlotAddr[static_cast<size_t>(O.Value)];
    case OperandKind::Global:
      return GlobalBase[static_cast<size_t>(O.Value)];
    default:
      assert(false && "operand is not an address");
      return 0;
    }
  };
  auto CheckAddr = [&](int64_t A) {
    return A >= GlobalStart && A < static_cast<int64_t>(MemWords);
  };

  while (true) {
    if (Block >= F.Blocks.size()) {
      St.Error = "fell off the end of " + F.Name;
      return false;
    }
    const BasicBlock &B = F.Blocks[Block];
    if (Index >= B.Insts.size()) {
      ++Block;
      Index = 0;
      continue;
    }
    const Rtl &I = B.Insts[Index];
    if (Index == 0 && &F == St.ProfileTarget)
      ++St.BlockCounts[Block];
    if (++St.Steps > St.StepLimit) {
      St.Error = "step limit exceeded in " + F.Name;
      return false;
    }

    switch (I.Opcode) {
    case Op::Mov:
      Regs[I.Dst.getReg()] = Value(I.Src[0]);
      break;
    case Op::Lea:
      Regs[I.Dst.getReg()] = Address(I.Src[0]);
      break;
    case Op::Neg:
    case Op::Not:
      Regs[I.Dst.getReg()] = evalUnary(I.Opcode, Value(I.Src[0]));
      break;
    case Op::Load: {
      int64_t A = static_cast<int64_t>(Address(I.Src[0])) + I.Src[1].Value;
      if (!CheckAddr(A)) {
        St.Error = "load out of bounds in " + F.Name;
        return false;
      }
      Regs[I.Dst.getReg()] = Mem[static_cast<size_t>(A)];
      break;
    }
    case Op::Store: {
      int64_t A = static_cast<int64_t>(Address(I.Src[0])) + I.Src[1].Value;
      if (!CheckAddr(A)) {
        St.Error = "store out of bounds in " + F.Name;
        return false;
      }
      Mem[static_cast<size_t>(A)] = Value(I.Src[2]);
      break;
    }
    case Op::Cmp:
      IcA = Value(I.Src[0]);
      IcB = Value(I.Src[1]);
      break;
    case Op::Branch:
      if (evalCond(I.CC, IcA, IcB)) {
        int T = F.findBlock(I.Src[0].Value);
        assert(T >= 0 && "branch target vanished");
        Block = static_cast<size_t>(T);
        Index = 0;
        continue;
      }
      break;
    case Op::Jump: {
      int T = F.findBlock(I.Src[0].Value);
      assert(T >= 0 && "jump target vanished");
      Block = static_cast<size_t>(T);
      Index = 0;
      continue;
    }
    case Op::Call: {
      int32_t CalleeId = I.Src[0].Value;
      const Global &G = M.Globals[static_cast<size_t>(CalleeId)];
      std::vector<int32_t> CallArgs;
      CallArgs.reserve(I.Args.size());
      for (const Operand &A : I.Args)
        CallArgs.push_back(Value(A));
      if (G.Kind == GlobalKind::External) {
        if (G.Name == BuiltinOut) {
          St.Output.push_back(CallArgs.empty() ? 0 : CallArgs[0]);
        } else {
          St.Error = "call to unknown external " + G.Name;
          return false;
        }
      } else {
        const Function *Callee = bodyFor(CalleeId);
        if (!Callee) {
          St.Error = "call to undefined function " + G.Name;
          return false;
        }
        int32_t CallResult = 0;
        if (!callFunction(*Callee, CallArgs, CallResult, St, FrameBase))
          return false;
        if (I.Dst.isReg())
          Regs[I.Dst.getReg()] = CallResult;
      }
      break;
    }
    case Op::Ret:
      Result = I.Src[0].isNone() ? 0 : Value(I.Src[0]);
      --St.Depth;
      return true;
    case Op::Prologue:
    case Op::Epilogue:
      break;
    default:
      if (I.isBinary()) {
        const std::optional<int32_t> V =
            evalBinary(I.Opcode, Value(I.Src[0]), Value(I.Src[1]));
        if (!V) {
          St.Error = "division by zero in " + F.Name;
          return false;
        }
        Regs[I.Dst.getReg()] = *V;
        break;
      }
      St.Error = "unexecutable opcode in " + F.Name;
      return false;
    }
    ++Index;
  }
}
