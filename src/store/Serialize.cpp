//===- Serialize.cpp - Binary codecs for enumeration artifacts ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/Serialize.h"

#include <algorithm>
#include <functional>

namespace pose {
namespace store {

// The field lists of the persisted types' parts. They share the public
// io() overload set, so they live beside it rather than in an anonymous
// namespace, whose io() would hide it.

constexpr PhaseId kLastPhase = static_cast<PhaseId>(NumPhases - 1);

template <class Io> void io(Io &S, PhaseId &P) {
  S.tag(P, PhaseId{}, kLastPhase);
}

// --- IR --------------------------------------------------------------------

template <class Io> void io(Io &S, Operand &O) {
  S.tag(O.Kind, OperandKind{}, OperandKind::Label);
  S.i32(O.Value);
}

template <class Io> void io(Io &S, Rtl &I) {
  S.tag(I.Opcode, Op{}, Op::Epilogue);
  S.tag(I.CC, Cond{}, Cond::UGe);
  io(S, I.Dst);
  for (Operand &O : I.Src)
    io(S, O);
  S.seq(I.Args, [&](Operand &A) { io(S, A); });
}

template <class Io> void io(Io &S, PhaseState &P) {
  S.flags(P.RegsAssigned, P.RegAllocDone);
}

// --- enumeration types -----------------------------------------------------

template <class Io> void io(Io &S, HashTriple &H) {
  S.u32(H.InstCount);
  S.u32(H.ByteSum);
  S.u32(H.Crc);
}

/// A node whose edges must target one of the DAG's \p Nodes nodes.
template <class Io> void io(Io &S, DagNode &N, size_t Nodes) {
  io(S, N.Hash);
  S.u32(N.Level);
  S.u32(N.CodeSize);
  S.u64(N.CfHash);
  S.u16(N.ActiveMask);
  S.u16(N.DormantMask);
  S.u16(N.AttemptedMask);
  S.seq(N.Edges, [&](DagEdge &E) {
    io(S, E.Phase);
    S.u32(E.To);
    S.check(E.To < Nodes);
  });
  S.u64(N.Weight);
}

template <class Io> void io(Io &S, PhaseDiagnostic &D) {
  io(S, D.Phase);
  S.str(D.Func);
  S.str(D.Message);
  S.u64(D.Application);
  S.flag(D.Injected);
}

/// A frontier entry of a checkpoint whose partial DAG has \p Nodes nodes.
template <class Io> void io(Io &S, FrontierEntry &E, size_t Nodes) {
  S.u32(E.Node);
  S.check(E.Node < Nodes);
  io(S, E.Instance);
  S.u16(E.IncomingMask);
  S.u64(E.Sequences);
}

// --- persisted types -------------------------------------------------------

template <class Io> bool io(Io &S, Function &F) {
  S.str(F.Name);
  S.i32(F.NumParams);
  S.flag(F.ReturnsValue);
  S.seq(F.Slots, [&](StackSlot &Slot) {
    S.str(Slot.Name);
    S.i32(Slot.SizeWords);
    S.flag(Slot.IsArray);
    S.flag(Slot.IsParam);
  });
  S.seq(F.Blocks, [&](BasicBlock &B) {
    S.i32(B.Label);
    S.seq(B.Insts, [&](Rtl &I) { io(S, I); });
  });
  io(S, F.State);
  RegNum PseudoLimit = F.pseudoLimit();
  int32_t LabelLimit = F.labelLimit();
  S.u32(PseudoLimit);
  S.i32(LabelLimit);
  if constexpr (Io::Reading)
    F.setAllocationCounters(PseudoLimit, LabelLimit);
  return S.ok();
}

template <class Io> bool io(Io &S, EnumerationResult &Res) {
  S.seq(Res.Nodes, [&](DagNode &N) { io(S, N, Res.Nodes.size()); });
  S.tag(Res.Stop, StopReason{}, StopReason::WorkerCrash);
  S.flag(Res.Cyclic);
  S.u64(Res.AttemptedPhases);
  S.u32(Res.MaxActiveLength);
  S.seq(Res.Levels, [&](LevelStat &L) {
    S.u32(L.Level);
    S.u64(L.NewNodes);
    S.u64(L.ActiveSequences);
    S.u64(L.Attempted);
    S.u64(L.Active);
  });
  S.seq(Res.Diagnostics, [&](PhaseDiagnostic &D) { io(S, D); });
  S.u64(Res.ApproxMemoryBytes);
  return S.ok();
}

template <class Io> bool io(Io &S, EnumerationCheckpoint &C) {
  // Only a filled-in checkpoint is ever persisted or resumed.
  S.flag(C.Valid);
  S.check(C.Valid);
  io(S, C.Partial);
  S.seq(C.Frontier, [&](FrontierEntry &E) {
    io(S, E, C.Partial.Nodes.size());
  });
  S.u32(C.LevelCounter);
  for (uint64_t &Count : C.AppCount)
    S.u64(Count);
  S.u64(C.FrontierBytes);
  return S.ok();
}

template <class Io> bool io(Io &S, QuarantineRecord &Q) {
  S.tag(Q.Failure, WorkerFailure{}, WorkerFailure::Protocol);
  S.i32(Q.Signal);
  S.i32(Q.ExitCode);
  S.u32(Q.Attempts);
  S.str(Q.Message);
  return S.ok();
}

template <class Io> bool io(Io &S, sem::EquivRecord &E) {
  S.u64(E.VectorSeed);
  S.u32(E.VectorsRequested);
  S.u32(E.NumParams);
  S.seq(E.UsedVectors, [&](uint32_t &V) {
    S.u32(V);
    S.check(V < E.VectorsRequested);
  });
  // Strictly ascending indices into the requested vector set.
  S.check(std::adjacent_find(E.UsedVectors.begin(), E.UsedVectors.end(),
                             std::greater_equal<>()) == E.UsedVectors.end());
  // One count for the three per-node arrays.
  size_t Nodes = E.NodeBehavior.size();
  S.count(Nodes);
  S.items(E.NodeBehavior, Nodes, [&](uint64_t &B) { S.u64(B); });
  S.items(E.NodeDynamic, Nodes, [&](uint64_t &D) { S.u64(D); });
  S.items(E.NodeAllOk, Nodes, [&](uint8_t &O) {
    S.u8(O);
    S.check(O <= 1);
  });
  return S.ok();
}

#define POSE_STORE_INSTANTIATE(T)                                              \
  template bool io(ByteWriter &, T &);                                         \
  template bool io(ByteReader &, T &);
POSE_STORE_INSTANTIATE(Function)
POSE_STORE_INSTANTIATE(EnumerationResult)
POSE_STORE_INSTANTIATE(EnumerationCheckpoint)
POSE_STORE_INSTANTIATE(QuarantineRecord)
POSE_STORE_INSTANTIATE(sem::EquivRecord)
#undef POSE_STORE_INSTANTIATE

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

} // namespace store
} // namespace pose
