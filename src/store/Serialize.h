//===- Serialize.h - Binary codecs for enumeration artifacts ---*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact binary codecs for the types the artifact store persists: function
/// instances, enumeration results, and resumable checkpoints. "Exact"
/// means a decode(encode(X)) round trip reproduces X field for field —
/// including allocation counters and phase state of function instances —
/// so a resumed enumeration is byte-identical to an uninterrupted one.
///
/// Decoders are strict: every enum value is range-checked, every boolean
/// must be 0 or 1, and any violation (or buffer overrun) returns false.
/// They deliberately do NOT require the reader to be exhausted, so codecs
/// compose; the framing layer (ArtifactStore) rejects trailing bytes.
///
/// The encoding is little-endian with explicit lengths and no padding; it
/// is covered by \ref kFormatVersion in ArtifactStore.h — any change here
/// must bump that version.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_SERIALIZE_H
#define POSE_STORE_SERIALIZE_H

#include "src/core/Enumerator.h"
#include "src/sem/Equivalence.h"
#include "src/store/ByteIo.h"
#include "src/store/Quarantine.h"

namespace pose {
namespace store {

/// Function instances (exact: slots, blocks, phase state, counters).
void encodeFunction(ByteWriter &W, const Function &F);
bool decodeFunction(ByteReader &R, Function &F);

/// Complete or partial enumeration results (nodes, edges, level stats,
/// diagnostics, stop reason, accounting).
void encodeResult(ByteWriter &W, const EnumerationResult &Res);
bool decodeResult(ByteReader &R, EnumerationResult &Res);

/// Resumable checkpoints (partial result + committed frontier + engine
/// counters).
void encodeCheckpoint(ByteWriter &W, const EnumerationCheckpoint &C);
bool decodeCheckpoint(ByteReader &R, EnumerationCheckpoint &C);

/// Quarantine records (worker failure class + signal/exit metadata).
void encodeQuarantine(ByteWriter &W, const QuarantineRecord &Q);
bool decodeQuarantine(ByteReader &R, QuarantineRecord &Q);

/// Equivalence records (vector provenance + per-node behavior digests).
/// The decoder enforces the type's invariants: the three per-node arrays
/// have equal length, AllOk bytes are 0/1, and UsedVectors is strictly
/// ascending with every index below VectorsRequested.
void encodeEquivalence(ByteWriter &W, const sem::EquivRecord &E);
bool decodeEquivalence(ByteReader &R, sem::EquivRecord &E);

} // namespace store
} // namespace pose

#endif // POSE_STORE_SERIALIZE_H
