//===- Canonical.h - Function instance canonicalization --------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identity of function instances, the heart of the paper's second pruning
/// technique (Section 4.2): "For each function instance we store three
/// numbers: a count of the number of instructions, byte-sum of all
/// instructions, and the CRC checksum on the bytes of the RTLs in that
/// function."
///
/// Before hashing, registers and block labels are remapped in
/// first-encounter order (Section 4.2.1, Figure 5) so that instances
/// differing only in register numbering or label names compare equal.
/// Hardware and pseudo registers remap in separate classes, which makes
/// the compulsory register assignment observable in the instance identity.
/// Serialization reflects *emitted code*: block boundaries are not
/// serialized and label operands resolve through empty blocks, mirroring
/// the paper's treatment of block merging as internal-only representation.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_CORE_CANONICAL_H
#define POSE_CORE_CANONICAL_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pose {

class Function;

/// The paper's three-number identity of a function instance.
struct HashTriple {
  uint32_t InstCount = 0;
  uint32_t ByteSum = 0;
  uint32_t Crc = 0;

  bool operator==(const HashTriple &O) const {
    return InstCount == O.InstCount && ByteSum == O.ByteSum && Crc == O.Crc;
  }
  bool operator!=(const HashTriple &O) const { return !(*this == O); }
};

/// Hash functor for unordered containers keyed by HashTriple.
struct HashTripleHasher {
  size_t operator()(const HashTriple &T) const {
    uint64_t H = T.Crc;
    H = H * 0x9E3779B97F4A7C15ull + T.ByteSum;
    H = H * 0x9E3779B97F4A7C15ull + T.InstCount;
    return static_cast<size_t>(H ^ (H >> 32));
  }
};

/// Canonicalized instance: the hash triple, and optionally the exact
/// canonical byte string (kept by the tests that check the paper's claim
/// that equal triples never hid differing instances).
struct CanonicalForm {
  HashTriple Hash;
  std::vector<uint8_t> Bytes; ///< Empty unless requested.
};

/// Reusable working memory for the canonicalization fast path: flat dense
/// remap arrays indexed by register number / label value instead of the
/// reference implementation's std::map lookups, plus a preallocated byte
/// buffer the whole serialization lands in (so the CRC runs once over the
/// finished buffer through the bulk CRC-32 path, a carry-less
/// multiplication fold, instead of per byte).
///
/// Contract: a scratch may be reused across any number of canonicalize()
/// calls — every call produces the same result as a fresh scratch — but a
/// single scratch must not be shared by concurrent calls. The enumerator
/// keeps one per worker thread. The label and pseudo-register arrays are
/// epoch-stamped so reuse never pays for clearing them, and the byte
/// buffer keeps its capacity, so steady-state canonicalization allocates
/// nothing.
class CanonicalScratch {
public:
  CanonicalScratch() = default;
  CanonicalScratch(const CanonicalScratch &) = delete;
  CanonicalScratch &operator=(const CanonicalScratch &) = delete;

private:
  friend CanonicalForm canonicalize(const Function &F,
                                    CanonicalScratch &Scratch,
                                    bool KeepBytes, bool RemapRegisters);
  std::vector<uint8_t> Buffer;        ///< Worst-case-sized byte storage;
                                      ///< the serializer writes through a
                                      ///< raw pointer and reports the
                                      ///< length, never shrinking it.
  uint32_t HardwareMap[32] = {};      ///< Reg -> 1-based remap ordinal.
  uint32_t HardwareEpoch[32] = {};
  std::vector<uint32_t> PseudoMap;    ///< (Reg - FirstPseudoReg) -> ordinal.
  std::vector<uint32_t> PseudoEpoch;
  std::vector<uint32_t> LabelOffset;  ///< Label value -> emitted offset.
  std::vector<uint32_t> LabelEpoch;
  std::vector<uint32_t> StartOffset;  ///< Per-block emitted start offset.
  uint32_t Epoch = 0;
};

/// Computes the canonical form of \p F. \p KeepBytes retains the
/// serialized bytes for exact comparison. \p RemapRegisters can be turned
/// off to measure how much pruning the Section 4.2.1 remapping buys
/// (labels always resolve to instruction offsets — raw label numbers are
/// meaningless); see bench_ablation.
///
/// This overload constructs a throwaway scratch; hot callers (the
/// enumerator's Intern path attempts this once per attempted phase) pass
/// a reused \ref CanonicalScratch instead.
CanonicalForm canonicalize(const Function &F, bool KeepBytes = false,
                           bool RemapRegisters = true);

/// Fast-path canonicalization through reusable scratch memory. Produces
/// output byte-identical to the scratch-free overload and to
/// canonicalizeReference() (enforced by tests/core/canonical_fastpath_test
/// and the differential enumeration suites).
CanonicalForm canonicalize(const Function &F, CanonicalScratch &Scratch,
                           bool KeepBytes = false,
                           bool RemapRegisters = true);

/// The original map-based, byte-at-a-time implementation, kept as the
/// differential oracle for the fast path (and as the honest baseline for
/// bench_canonical). Semantics are identical to canonicalize().
CanonicalForm canonicalizeReference(const Function &F, bool KeepBytes = false,
                                    bool RemapRegisters = true);

/// Hash of the control-flow shape only (blocks and edges, ignoring
/// instruction payloads): the paper's "CF" statistic counts distinct
/// control flows among all instances of a function (Table 3), because
/// dynamic instruction counts can be inferred across instances that share
/// a control flow (Section 7).
uint64_t controlFlowHash(const Function &F);

} // namespace pose

#endif // POSE_CORE_CANONICAL_H
