//===- Canonical.cpp - Function instance canonicalization --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two implementations of the same serialization live here. The fast path
// (canonicalize with a CanonicalScratch) serializes into a reusable flat
// buffer through dense, epoch-stamped remap arrays and folds the CRC over
// the finished buffer in one bulk pass (src/support/Crc32.cpp: carry-less
// multiplication where the CPU has it); it is what every hot caller uses.
// The reference path (canonicalizeReference) is the original
// std::map + byte-at-a-time implementation, kept verbatim as the
// differential oracle — the fast path must produce byte-identical output,
// which tests/core/canonical_fastpath_test.cpp enforces property-style.
//
//===----------------------------------------------------------------------===//

#include "src/core/Canonical.h"

#include "src/ir/Function.h"
#include "src/support/Crc32.h"
#include "src/support/Fnv.h"

#include <algorithm>
#include <map>

using namespace pose;

namespace {

/// Serialization operand tags. Registers get distinct hardware/pseudo tags
/// so that the compulsory register assignment changes instance identity.
enum OperandTag : uint8_t {
  TagNone = 0,
  TagHardwareReg,
  TagPseudoReg,
  TagImm,
  TagSlot,
  TagGlobal,
  TagLabel,
};

//===----------------------------------------------------------------------===//
// Reference path (differential oracle)
//===----------------------------------------------------------------------===//

/// Streams canonical bytes into the three accumulators.
class ByteSink {
public:
  explicit ByteSink(bool Keep) : Keep(Keep) {}

  void put(uint8_t B) {
    Sum += B;
    Crc.update(B);
    if (Keep)
      Bytes.push_back(B);
  }

  void putU32(uint32_t V) {
    put(static_cast<uint8_t>(V));
    put(static_cast<uint8_t>(V >> 8));
    put(static_cast<uint8_t>(V >> 16));
    put(static_cast<uint8_t>(V >> 24));
  }

  uint32_t byteSum() const { return Sum; }
  uint32_t crc() const { return Crc.value(); }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }

private:
  bool Keep;
  uint32_t Sum = 0;
  Crc32Stream Crc;
  std::vector<uint8_t> Bytes;
};

/// Remaps registers (per class) and resolves labels to effective
/// non-empty-block ordinals while serializing.
class Serializer {
public:
  Serializer(const Function &F, ByteSink &Sink, bool RemapRegisters)
      : F(F), Sink(Sink), RemapRegisters(RemapRegisters) {
    // A label denotes a position in the emitted instruction stream: the
    // offset of the first instruction of the first non-empty block at or
    // after the labelled block. This makes empty blocks transparent and —
    // crucially — distinguishes instances where an instruction moved
    // across a block boundary (e.g. hoisted from a loop header into a
    // fall-through preheader) even though the instruction sequence itself
    // is unchanged.
    std::vector<uint32_t> StartOffset(F.Blocks.size() + 1, 0);
    uint32_t Offset = 0;
    for (size_t I = 0; I != F.Blocks.size(); ++I) {
      StartOffset[I] = Offset;
      Offset += static_cast<uint32_t>(F.Blocks[I].Insts.size());
    }
    StartOffset[F.Blocks.size()] = Offset;
    for (size_t I = 0; I != F.Blocks.size(); ++I) {
      size_t T = I;
      while (T < F.Blocks.size() && F.Blocks[T].empty())
        ++T;
      LabelOrdinal[F.Blocks[I].Label] = StartOffset[T];
    }
  }

  void run() {
    Sink.put(F.State.encode());
    for (const BasicBlock &B : F.Blocks)
      for (const Rtl &I : B.Insts)
        serializeInst(I);
  }

private:
  const Function &F;
  ByteSink &Sink;
  bool RemapRegisters;
  std::map<int32_t, uint32_t> LabelOrdinal;
  std::map<RegNum, uint32_t> HardwareMap, PseudoMap;

  uint32_t remapReg(RegNum R) {
    if (!RemapRegisters)
      return R;
    auto &Map = isHardwareReg(R) ? HardwareMap : PseudoMap;
    auto [It, Inserted] = Map.emplace(R, Map.size() + 1);
    (void)Inserted;
    return It->second;
  }

  void serializeOperand(const Operand &O) {
    switch (O.Kind) {
    case OperandKind::None:
      Sink.put(TagNone);
      return;
    case OperandKind::Reg: {
      RegNum R = O.getReg();
      Sink.put(isHardwareReg(R) ? TagHardwareReg : TagPseudoReg);
      Sink.putU32(remapReg(R));
      return;
    }
    case OperandKind::Imm:
      Sink.put(TagImm);
      Sink.putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Slot:
      Sink.put(TagSlot);
      Sink.putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Global:
      Sink.put(TagGlobal);
      Sink.putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Label: {
      Sink.put(TagLabel);
      auto It = LabelOrdinal.find(O.Value);
      assert(It != LabelOrdinal.end() && "dangling label");
      Sink.putU32(It->second);
      return;
    }
    }
  }

  void serializeInst(const Rtl &I) {
    Sink.put(static_cast<uint8_t>(I.Opcode));
    Sink.put(static_cast<uint8_t>(I.CC));
    serializeOperand(I.Dst);
    for (const Operand &S : I.Src)
      serializeOperand(S);
    // The count is a full 32-bit field: a uint8_t here would alias arg
    // lists 256 apart and could collide distinct instances.
    Sink.putU32(static_cast<uint32_t>(I.Args.size()));
    for (const Operand &A : I.Args)
      serializeOperand(A);
  }
};

//===----------------------------------------------------------------------===//
// Fast path
//===----------------------------------------------------------------------===//

/// Serializes into the scratch's flat byte buffer through dense remap
/// arrays; the hash triple is computed over the finished buffer in bulk.
class FastSerializer {
public:
  FastSerializer(const Function &F, CanonicalScratch &S, bool RemapRegisters,
                 std::vector<uint8_t> &Buffer, const uint32_t Epoch,
                 uint32_t *HardwareMap, uint32_t *HardwareEpoch,
                 std::vector<uint32_t> &PseudoMap,
                 std::vector<uint32_t> &PseudoEpoch,
                 std::vector<uint32_t> &LabelOffset,
                 std::vector<uint32_t> &LabelEpoch,
                 std::vector<uint32_t> &StartOffset)
      : F(F), RemapRegisters(RemapRegisters), Buffer(Buffer), Epoch(Epoch),
        HardwareMap(HardwareMap), HardwareEpoch(HardwareEpoch),
        PseudoMap(PseudoMap), PseudoEpoch(PseudoEpoch),
        LabelOffset(LabelOffset), LabelEpoch(LabelEpoch) {
    (void)S;
    // Emitted start offset per block, with one sentinel entry past the
    // end (same resolution rule as the reference Serializer).
    StartOffset.resize(F.Blocks.size() + 1);
    uint32_t Offset = 0;
    for (size_t I = 0; I != F.Blocks.size(); ++I) {
      StartOffset[I] = Offset;
      Offset += static_cast<uint32_t>(F.Blocks[I].Insts.size());
    }
    StartOffset[F.Blocks.size()] = Offset;

    // Dense label table: labels are allocated from 0 by makeLabel(), so
    // the value range is nearly always tiny. A function whose labels were
    // renamed to arbitrary values (or negative ones) falls back to a
    // sorted pair list with binary-search lookups instead of letting the
    // dense array balloon.
    int32_t MaxLabel = -1;
    bool AnyNegative = false;
    for (const BasicBlock &B : F.Blocks) {
      MaxLabel = std::max(MaxLabel, B.Label);
      AnyNegative |= B.Label < 0;
    }
    const size_t DenseLimit = 16 * F.Blocks.size() + 1024;
    DenseLabels =
        !AnyNegative && static_cast<size_t>(MaxLabel) + 1 <= DenseLimit;
    if (DenseLabels) {
      if (LabelOffset.size() <= static_cast<size_t>(MaxLabel)) {
        LabelOffset.resize(MaxLabel + 1, 0);
        LabelEpoch.resize(MaxLabel + 1, 0);
      }
      for (size_t I = 0; I != F.Blocks.size(); ++I) {
        size_t T = I;
        while (T < F.Blocks.size() && F.Blocks[T].empty())
          ++T;
        LabelOffset[F.Blocks[I].Label] = StartOffset[T];
        LabelEpoch[F.Blocks[I].Label] = Epoch;
      }
    } else {
      SortedLabels.reserve(F.Blocks.size());
      for (size_t I = 0; I != F.Blocks.size(); ++I) {
        size_t T = I;
        while (T < F.Blocks.size() && F.Blocks[T].empty())
          ++T;
        SortedLabels.push_back({F.Blocks[I].Label, StartOffset[T]});
      }
      std::sort(SortedLabels.begin(), SortedLabels.end());
    }
  }

  /// Returns the number of bytes serialized. The buffer is grown once to
  /// the worst case up front, so every write inside the loop is an
  /// unchecked pointer store — no per-byte capacity branch.
  size_t run() {
    size_t Worst = 1; // State byte.
    for (const BasicBlock &B : F.Blocks)
      for (const Rtl &I : B.Insts)
        Worst += 2 + 4 * 5 + 4 + 5 * I.Args.size();
    if (Buffer.size() < Worst)
      Buffer.resize(Worst); // Never shrinks: reuse pays this rarely.
    Ptr = Buffer.data();
    put(F.State.encode());
    for (const BasicBlock &B : F.Blocks)
      for (const Rtl &I : B.Insts)
        serializeInst(I);
    return static_cast<size_t>(Ptr - Buffer.data());
  }

private:
  const Function &F;
  bool RemapRegisters;
  std::vector<uint8_t> &Buffer;
  uint8_t *Ptr = nullptr;
  const uint32_t Epoch;
  uint32_t *HardwareMap, *HardwareEpoch;
  std::vector<uint32_t> &PseudoMap, &PseudoEpoch;
  std::vector<uint32_t> &LabelOffset, &LabelEpoch;
  bool DenseLabels = true;
  std::vector<std::pair<int32_t, uint32_t>> SortedLabels;
  uint32_t NextHardware = 1, NextPseudo = 1;

  void put(uint8_t B) { *Ptr++ = B; }

  void putU32(uint32_t V) {
    Ptr[0] = static_cast<uint8_t>(V);
    Ptr[1] = static_cast<uint8_t>(V >> 8);
    Ptr[2] = static_cast<uint8_t>(V >> 16);
    Ptr[3] = static_cast<uint8_t>(V >> 24);
    Ptr += 4;
  }

  uint32_t remapReg(RegNum R) {
    if (!RemapRegisters)
      return R;
    if (isHardwareReg(R)) {
      if (HardwareEpoch[R] != Epoch) {
        HardwareEpoch[R] = Epoch;
        HardwareMap[R] = NextHardware++;
      }
      return HardwareMap[R];
    }
    const size_t Idx = R - FirstPseudoReg;
    if (Idx >= PseudoMap.size()) {
      PseudoMap.resize(Idx + 64, 0);
      PseudoEpoch.resize(Idx + 64, 0);
    }
    if (PseudoEpoch[Idx] != Epoch) {
      PseudoEpoch[Idx] = Epoch;
      PseudoMap[Idx] = NextPseudo++;
    }
    return PseudoMap[Idx];
  }

  uint32_t labelOffsetOf(int32_t Label) {
    if (DenseLabels) {
      assert(static_cast<size_t>(Label) < LabelEpoch.size() &&
             LabelEpoch[Label] == Epoch && "dangling label");
      return LabelOffset[Label];
    }
    auto It = std::lower_bound(
        SortedLabels.begin(), SortedLabels.end(), Label,
        [](const std::pair<int32_t, uint32_t> &P, int32_t L) {
          return P.first < L;
        });
    assert(It != SortedLabels.end() && It->first == Label &&
           "dangling label");
    return It->second;
  }

  void serializeOperand(const Operand &O) {
    switch (O.Kind) {
    case OperandKind::None:
      put(TagNone);
      return;
    case OperandKind::Reg: {
      RegNum R = O.getReg();
      put(isHardwareReg(R) ? TagHardwareReg : TagPseudoReg);
      putU32(remapReg(R));
      return;
    }
    case OperandKind::Imm:
      put(TagImm);
      putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Slot:
      put(TagSlot);
      putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Global:
      put(TagGlobal);
      putU32(static_cast<uint32_t>(O.Value));
      return;
    case OperandKind::Label:
      put(TagLabel);
      putU32(labelOffsetOf(O.Value));
      return;
    }
  }

  void serializeInst(const Rtl &I) {
    put(static_cast<uint8_t>(I.Opcode));
    put(static_cast<uint8_t>(I.CC));
    serializeOperand(I.Dst);
    for (const Operand &S : I.Src)
      serializeOperand(S);
    // Full 32-bit count, matching the reference serializer.
    putU32(static_cast<uint32_t>(I.Args.size()));
    for (const Operand &A : I.Args)
      serializeOperand(A);
  }
};

} // namespace

CanonicalForm pose::canonicalize(const Function &F, CanonicalScratch &S,
                                 bool KeepBytes, bool RemapRegisters) {
  // Epoch 0 marks "never written"; on wraparound every stamp array must
  // actually be cleared once so stale stamps from 2^32 calls ago cannot
  // alias the new epoch.
  if (++S.Epoch == 0) {
    std::fill(std::begin(S.HardwareEpoch), std::end(S.HardwareEpoch), 0u);
    std::fill(S.PseudoEpoch.begin(), S.PseudoEpoch.end(), 0u);
    std::fill(S.LabelEpoch.begin(), S.LabelEpoch.end(), 0u);
    S.Epoch = 1;
  }
  FastSerializer Fast(F, S, RemapRegisters, S.Buffer, S.Epoch, S.HardwareMap,
                      S.HardwareEpoch, S.PseudoMap, S.PseudoEpoch,
                      S.LabelOffset, S.LabelEpoch, S.StartOffset);
  const size_t Len = Fast.run();
  const uint8_t *Bytes = S.Buffer.data();

  CanonicalForm Out;
  Out.Hash.InstCount = static_cast<uint32_t>(F.instructionCount());
  // Four independent accumulators break the add dependency chain; the
  // scalar tail handles the last Len % 4 bytes.
  uint32_t S0 = 0, S1 = 0, S2 = 0, S3 = 0;
  size_t I = 0;
  for (; I + 4 <= Len; I += 4) {
    S0 += Bytes[I];
    S1 += Bytes[I + 1];
    S2 += Bytes[I + 2];
    S3 += Bytes[I + 3];
  }
  for (; I != Len; ++I)
    S0 += Bytes[I];
  Out.Hash.ByteSum = S0 + S1 + S2 + S3;
  Out.Hash.Crc = crc32(Bytes, Len);
  if (KeepBytes)
    Out.Bytes.assign(Bytes, Bytes + Len);
  return Out;
}

CanonicalForm pose::canonicalize(const Function &F, bool KeepBytes,
                                 bool RemapRegisters) {
  CanonicalScratch S;
  return canonicalize(F, S, KeepBytes, RemapRegisters);
}

CanonicalForm pose::canonicalizeReference(const Function &F, bool KeepBytes,
                                          bool RemapRegisters) {
  ByteSink Sink(KeepBytes);
  Serializer S(F, Sink, RemapRegisters);
  S.run();
  CanonicalForm Out;
  Out.Hash.InstCount = static_cast<uint32_t>(F.instructionCount());
  Out.Hash.ByteSum = Sink.byteSum();
  Out.Hash.Crc = Sink.crc();
  if (KeepBytes)
    Out.Bytes = Sink.takeBytes();
  return Out;
}

uint64_t pose::controlFlowHash(const Function &F) {
  // FNV-1a over (block ordinal, successor ordinals) of non-empty blocks.
  Cfg C = Cfg::build(F);
  std::vector<uint32_t> Ordinal(F.Blocks.size());
  uint32_t Next = 0;
  for (size_t I = 0; I != F.Blocks.size(); ++I)
    Ordinal[I] = F.Blocks[I].empty() ? UINT32_MAX : Next++;
  Fnv1a H;
  H.le32(Next); // Non-empty block count.
  for (size_t I = 0; I != F.Blocks.size(); ++I) {
    if (F.Blocks[I].empty())
      continue;
    H.le32(Ordinal[I]);
    for (int S : C.Succs[I]) {
      // Resolve empty successors forward to the next real block.
      size_t T = static_cast<size_t>(S);
      while (T < F.Blocks.size() && F.Blocks[T].empty())
        ++T;
      H.le32(T < F.Blocks.size() ? Ordinal[T] : UINT32_MAX);
    }
  }
  return H.value();
}
