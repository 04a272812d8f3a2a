//===- Serialize.h - Binary codecs for enumeration artifacts ---*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact binary codecs for the types the artifact store persists: function
/// instances, enumeration results, resumable checkpoints, quarantine
/// records and equivalence records. "Exact" means a decode(encode(X))
/// round trip reproduces X field for field — including allocation counters
/// and phase state of function instances — so a resumed enumeration is
/// byte-identical to an uninterrupted one.
///
/// Each type's format is one io() field list (see ByteIo.h), so the
/// encoder and the decoder cannot drift apart. Decoding is strict: every
/// enum value is range-checked, every boolean must be 0 or 1, every node
/// index must name a node of its DAG, a checkpoint must be Valid, and any
/// violation (or buffer overrun) returns false. Decoders deliberately do
/// NOT require the reader to be exhausted, so codecs compose; the framing
/// layer (ArtifactStore) rejects trailing bytes.
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

/// The field lists, defined for ByteWriter and ByteReader in
/// Serialize.cpp: function instances (exact: slots, blocks, phase state,
/// counters); complete or partial enumeration results (nodes, edges,
/// level stats, diagnostics, stop reason, accounting); resumable
/// checkpoints (partial result + committed frontier + engine counters);
/// quarantine records (worker failure class + signal/exit metadata).
template <class Io> bool io(Io &S, Function &F);
template <class Io> bool io(Io &S, EnumerationResult &Res);
template <class Io> bool io(Io &S, EnumerationCheckpoint &C);
template <class Io> bool io(Io &S, QuarantineRecord &Q);
/// Equivalence records (vector provenance + per-node behavior digests).
/// Decoding enforces the type's invariants: the three per-node arrays
/// have equal length, AllOk bytes are 0/1, and UsedVectors is strictly
/// ascending with every index below VectorsRequested.
template <class Io> bool io(Io &S, sem::EquivRecord &E);

/// Encodes \p X through its field list.
template <class T> void encode(ByteWriter &W, const T &X) {
  io(W, const_cast<T &>(X));
}

/// Resets \p X and strictly decodes it from \p R.
template <class T> bool decode(ByteReader &R, T &X) {
  X = T();
  return io(R, X);
}

/// encode/decode of an enumeration result under its own name (perfbench
/// times these two calls).
inline void encodeResult(ByteWriter &W, const EnumerationResult &Res) {
  encode(W, Res);
}
inline bool decodeResult(ByteReader &R, EnumerationResult &Res) {
  return decode(R, Res);
}

} // namespace store
} // namespace pose

#endif // POSE_STORE_SERIALIZE_H
