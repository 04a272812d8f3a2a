//===- Serialize.cpp - Binary codecs for enumeration artifacts ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/Serialize.h"

namespace pose {
namespace store {

namespace {

// --- strict scalar helpers -------------------------------------------------

bool decodeBool(ByteReader &R, bool &V) {
  uint8_t B = R.u8();
  if (B > 1) {
    R.fail();
    return false;
  }
  V = B != 0;
  return R.ok();
}

bool decodeCount(ByteReader &R, size_t &N) {
  uint64_t V = R.u64();
  // A count can never exceed the bytes remaining (every element encodes to
  // at least one byte), so reject it before any allocation.
  if (!R.ok() || V > R.remaining()) {
    R.fail();
    return false;
  }
  N = static_cast<size_t>(V);
  return true;
}

bool decodePhase(ByteReader &R, PhaseId &P) {
  uint8_t V = R.u8();
  if (V >= NumPhases) {
    R.fail();
    return false;
  }
  P = static_cast<PhaseId>(V);
  return R.ok();
}

// --- IR --------------------------------------------------------------------

void encodeOperand(ByteWriter &W, const Operand &O) {
  W.u8(static_cast<uint8_t>(O.Kind));
  W.i32(O.Value);
}

bool decodeOperand(ByteReader &R, Operand &O) {
  uint8_t K = R.u8();
  if (K > static_cast<uint8_t>(OperandKind::Label)) {
    R.fail();
    return false;
  }
  O.Kind = static_cast<OperandKind>(K);
  O.Value = R.i32();
  return R.ok();
}

void encodeRtl(ByteWriter &W, const Rtl &I) {
  W.u8(static_cast<uint8_t>(I.Opcode));
  W.u8(static_cast<uint8_t>(I.CC));
  encodeOperand(W, I.Dst);
  for (const Operand &S : I.Src)
    encodeOperand(W, S);
  W.u64(I.Args.size());
  for (const Operand &A : I.Args)
    encodeOperand(W, A);
}

bool decodeRtl(ByteReader &R, Rtl &I) {
  uint8_t OpV = R.u8();
  uint8_t CCV = R.u8();
  if (OpV > static_cast<uint8_t>(Op::Epilogue) ||
      CCV > static_cast<uint8_t>(Cond::UGe)) {
    R.fail();
    return false;
  }
  I.Opcode = static_cast<Op>(OpV);
  I.CC = static_cast<Cond>(CCV);
  if (!decodeOperand(R, I.Dst))
    return false;
  for (Operand &S : I.Src)
    if (!decodeOperand(R, S))
      return false;
  size_t N;
  if (!decodeCount(R, N))
    return false;
  I.Args.resize(N);
  for (Operand &A : I.Args)
    if (!decodeOperand(R, A))
      return false;
  return R.ok();
}

void encodePhaseState(ByteWriter &W, const PhaseState &S) {
  W.u8(S.encode());
}

bool decodePhaseState(ByteReader &R, PhaseState &S) {
  uint8_t B = R.u8();
  if (B > 3) {
    R.fail();
    return false;
  }
  S.RegsAssigned = (B & 1) != 0;
  S.RegAllocDone = (B & 2) != 0;
  return R.ok();
}

// --- enumeration types -----------------------------------------------------

void encodeHash(ByteWriter &W, const HashTriple &H) {
  W.u32(H.InstCount);
  W.u32(H.ByteSum);
  W.u32(H.Crc);
}

bool decodeHash(ByteReader &R, HashTriple &H) {
  H.InstCount = R.u32();
  H.ByteSum = R.u32();
  H.Crc = R.u32();
  return R.ok();
}

void encodeNode(ByteWriter &W, const DagNode &N) {
  encodeHash(W, N.Hash);
  W.u32(N.Level);
  W.u32(N.CodeSize);
  W.u64(N.CfHash);
  W.u16(N.ActiveMask);
  W.u16(N.DormantMask);
  W.u16(N.AttemptedMask);
  W.u64(N.Edges.size());
  for (const DagEdge &E : N.Edges) {
    W.u8(static_cast<uint8_t>(E.Phase));
    W.u32(E.To);
  }
  W.u64(N.Weight);
}

bool decodeNode(ByteReader &R, DagNode &N) {
  if (!decodeHash(R, N.Hash))
    return false;
  N.Level = R.u32();
  N.CodeSize = R.u32();
  N.CfHash = R.u64();
  N.ActiveMask = R.u16();
  N.DormantMask = R.u16();
  N.AttemptedMask = R.u16();
  size_t NE;
  if (!decodeCount(R, NE))
    return false;
  N.Edges.resize(NE);
  for (DagEdge &E : N.Edges) {
    if (!decodePhase(R, E.Phase))
      return false;
    E.To = R.u32();
  }
  N.Weight = R.u64();
  return R.ok();
}

void encodeDiagnostic(ByteWriter &W, const PhaseDiagnostic &D) {
  W.u8(static_cast<uint8_t>(D.Phase));
  W.str(D.Func);
  W.str(D.Message);
  W.u64(D.Application);
  W.u8(D.Injected);
}

bool decodeDiagnostic(ByteReader &R, PhaseDiagnostic &D) {
  if (!decodePhase(R, D.Phase))
    return false;
  D.Func = R.str();
  D.Message = R.str();
  D.Application = R.u64();
  return decodeBool(R, D.Injected);
}

void encodeFrontierEntry(ByteWriter &W, const FrontierEntry &E) {
  W.u32(E.Node);
  encodeFunction(W, E.Instance);
  W.u64(E.Path.size());
  for (PhaseId P : E.Path)
    W.u8(static_cast<uint8_t>(P));
  encodePhaseState(W, E.State);
  W.u16(E.IncomingMask);
  W.u32(E.Parent);
  W.u8(static_cast<uint8_t>(E.ViaPhase));
  W.u64(E.Sequences);
}

bool decodeFrontierEntry(ByteReader &R, FrontierEntry &E) {
  E.Node = R.u32();
  if (!decodeFunction(R, E.Instance))
    return false;
  size_t NP;
  if (!decodeCount(R, NP))
    return false;
  E.Path.resize(NP);
  for (PhaseId &P : E.Path)
    if (!decodePhase(R, P))
      return false;
  if (!decodePhaseState(R, E.State))
    return false;
  E.IncomingMask = R.u16();
  E.Parent = R.u32();
  if (!decodePhase(R, E.ViaPhase))
    return false;
  E.Sequences = R.u64();
  return R.ok();
}

} // namespace

// --- public codecs ---------------------------------------------------------

void encodeFunction(ByteWriter &W, const Function &F) {
  W.str(F.Name);
  W.i32(F.NumParams);
  W.u8(F.ReturnsValue);
  W.u64(F.Slots.size());
  for (const StackSlot &S : F.Slots) {
    W.str(S.Name);
    W.i32(S.SizeWords);
    W.u8(S.IsArray);
    W.u8(S.IsParam);
  }
  W.u64(F.Blocks.size());
  for (const BasicBlock &B : F.Blocks) {
    W.i32(B.Label);
    W.u64(B.Insts.size());
    for (const Rtl &I : B.Insts)
      encodeRtl(W, I);
  }
  encodePhaseState(W, F.State);
  W.u32(F.pseudoLimit());
  W.i32(F.labelLimit());
}

bool decodeFunction(ByteReader &R, Function &F) {
  F = Function();
  F.Name = R.str();
  F.NumParams = R.i32();
  if (!decodeBool(R, F.ReturnsValue))
    return false;
  size_t NSlots;
  if (!decodeCount(R, NSlots))
    return false;
  F.Slots.resize(NSlots);
  for (size_t I = 0; I != NSlots; ++I) {
    StackSlot &S = F.Slots.mut(I);
    S.Name = R.str();
    S.SizeWords = R.i32();
    if (!decodeBool(R, S.IsArray) || !decodeBool(R, S.IsParam))
      return false;
  }
  size_t NBlocks;
  if (!decodeCount(R, NBlocks))
    return false;
  F.Blocks.resize(NBlocks);
  for (size_t BI = 0; BI != NBlocks; ++BI) {
    BasicBlock &B = F.Blocks.mut(BI);
    B.Label = R.i32();
    size_t NInsts;
    if (!decodeCount(R, NInsts))
      return false;
    B.Insts.resize(NInsts);
    for (Rtl &I : B.Insts)
      if (!decodeRtl(R, I))
        return false;
  }
  if (!decodePhaseState(R, F.State))
    return false;
  RegNum PseudoLimit = R.u32();
  int32_t LabelLimit = R.i32();
  if (!R.ok())
    return false;
  F.setAllocationCounters(PseudoLimit, LabelLimit);
  return true;
}

void encodeResult(ByteWriter &W, const EnumerationResult &Res) {
  W.u64(Res.Nodes.size());
  for (const DagNode &N : Res.Nodes)
    encodeNode(W, N);
  W.u8(static_cast<uint8_t>(Res.Stop));
  W.u8(Res.Cyclic);
  W.u64(Res.AttemptedPhases);
  W.u64(Res.PhaseApplications);
  W.u32(Res.MaxActiveLength);
  W.u64(Res.Levels.size());
  for (const LevelStat &L : Res.Levels) {
    W.u32(L.Level);
    W.u64(L.NewNodes);
    W.u64(L.ActiveSequences);
    W.u64(L.Attempted);
    W.u64(L.Active);
  }
  W.u64(Res.PredictedEdges);
  W.u64(Res.Diagnostics.size());
  for (const PhaseDiagnostic &D : Res.Diagnostics)
    encodeDiagnostic(W, D);
  W.u64(Res.ApproxMemoryBytes);
}

bool decodeResult(ByteReader &R, EnumerationResult &Res) {
  Res = EnumerationResult();
  size_t NNodes;
  if (!decodeCount(R, NNodes))
    return false;
  Res.Nodes.resize(NNodes);
  for (DagNode &N : Res.Nodes)
    if (!decodeNode(R, N))
      return false;
  uint8_t StopV = R.u8();
  if (StopV > static_cast<uint8_t>(StopReason::WorkerCrash)) {
    R.fail();
    return false;
  }
  Res.Stop = static_cast<StopReason>(StopV);
  if (!decodeBool(R, Res.Cyclic))
    return false;
  Res.AttemptedPhases = R.u64();
  Res.PhaseApplications = R.u64();
  Res.MaxActiveLength = R.u32();
  size_t NLevels;
  if (!decodeCount(R, NLevels))
    return false;
  Res.Levels.resize(NLevels);
  for (LevelStat &L : Res.Levels) {
    L.Level = R.u32();
    L.NewNodes = R.u64();
    L.ActiveSequences = R.u64();
    L.Attempted = R.u64();
    L.Active = R.u64();
  }
  Res.PredictedEdges = R.u64();
  size_t NDiags;
  if (!decodeCount(R, NDiags))
    return false;
  Res.Diagnostics.resize(NDiags);
  for (PhaseDiagnostic &D : Res.Diagnostics)
    if (!decodeDiagnostic(R, D))
      return false;
  Res.ApproxMemoryBytes = R.u64();
  return R.ok();
}

void encodeCheckpoint(ByteWriter &W, const EnumerationCheckpoint &C) {
  W.u8(C.Valid);
  encodeResult(W, C.Partial);
  W.u64(C.Frontier.size());
  for (const FrontierEntry &E : C.Frontier)
    encodeFrontierEntry(W, E);
  W.u32(C.LevelCounter);
  for (uint64_t Count : C.AppCount)
    W.u64(Count);
  W.u64(C.FrontierBytes);
}

bool decodeCheckpoint(ByteReader &R, EnumerationCheckpoint &C) {
  C = EnumerationCheckpoint();
  if (!decodeBool(R, C.Valid))
    return false;
  if (!decodeResult(R, C.Partial))
    return false;
  size_t NFrontier;
  if (!decodeCount(R, NFrontier))
    return false;
  C.Frontier.resize(NFrontier);
  for (FrontierEntry &E : C.Frontier)
    if (!decodeFrontierEntry(R, E))
      return false;
  C.LevelCounter = R.u32();
  for (uint64_t &Count : C.AppCount)
    Count = R.u64();
  C.FrontierBytes = R.u64();
  return R.ok();
}

const char *workerFailureName(WorkerFailure F) {
  switch (F) {
  case WorkerFailure::Signal:
    return "signal";
  case WorkerFailure::Timeout:
    return "timeout";
  case WorkerFailure::BadExit:
    return "bad-exit";
  case WorkerFailure::Protocol:
    return "protocol";
  }
  return "?";
}

void encodeQuarantine(ByteWriter &W, const QuarantineRecord &Q) {
  W.u8(static_cast<uint8_t>(Q.Failure));
  W.i32(Q.Signal);
  W.i32(Q.ExitCode);
  W.u32(Q.Attempts);
  W.str(Q.Message);
}

bool decodeQuarantine(ByteReader &R, QuarantineRecord &Q) {
  Q = QuarantineRecord();
  uint8_t F = R.u8();
  if (F > static_cast<uint8_t>(WorkerFailure::Protocol)) {
    R.fail();
    return false;
  }
  Q.Failure = static_cast<WorkerFailure>(F);
  Q.Signal = R.i32();
  Q.ExitCode = R.i32();
  Q.Attempts = R.u32();
  Q.Message = R.str();
  return R.ok();
}

void encodeEquivalence(ByteWriter &W, const sem::EquivRecord &E) {
  W.u64(E.VectorSeed);
  W.u32(E.VectorsRequested);
  W.u32(E.NumParams);
  W.u64(E.UsedVectors.size());
  for (uint32_t V : E.UsedVectors)
    W.u32(V);
  W.u64(E.NodeBehavior.size());
  for (uint64_t B : E.NodeBehavior)
    W.u64(B);
  for (uint64_t D : E.NodeDynamic)
    W.u64(D);
  for (uint8_t O : E.NodeAllOk)
    W.u8(O);
}

bool decodeEquivalence(ByteReader &R, sem::EquivRecord &E) {
  E = sem::EquivRecord();
  E.VectorSeed = R.u64();
  E.VectorsRequested = R.u32();
  E.NumParams = R.u32();
  const uint64_t NUsed = R.u64();
  if (NUsed > R.remaining() / 4 || NUsed > E.VectorsRequested) {
    R.fail();
    return false;
  }
  E.UsedVectors.reserve(NUsed);
  for (uint64_t I = 0; I != NUsed; ++I) {
    const uint32_t V = R.u32();
    // Strictly ascending indices into the requested vector set.
    if (V >= E.VectorsRequested ||
        (!E.UsedVectors.empty() && V <= E.UsedVectors.back())) {
      R.fail();
      return false;
    }
    E.UsedVectors.push_back(V);
  }
  const uint64_t NNodes = R.u64();
  // Each node carries a digest (8), a dynamic count (8) and a flag (1).
  if (NNodes > R.remaining() / 17) {
    R.fail();
    return false;
  }
  E.NodeBehavior.reserve(NNodes);
  for (uint64_t I = 0; I != NNodes; ++I)
    E.NodeBehavior.push_back(R.u64());
  E.NodeDynamic.reserve(NNodes);
  for (uint64_t I = 0; I != NNodes; ++I)
    E.NodeDynamic.push_back(R.u64());
  E.NodeAllOk.reserve(NNodes);
  for (uint64_t I = 0; I != NNodes; ++I) {
    const uint8_t O = R.u8();
    if (O > 1) {
      R.fail();
      return false;
    }
    E.NodeAllOk.push_back(O);
  }
  return R.ok();
}

} // namespace store
} // namespace pose
