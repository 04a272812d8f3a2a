//===- ArtifactStore.h - Persistent enumeration artifact store -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directory of versioned, checksummed enumeration artifacts: completed
/// DAGs (\ref ArtifactKind::Result), resumable checkpoints of interrupted
/// runs (\ref ArtifactKind::Checkpoint), and quarantine records of jobs
/// whose out-of-process workers kept crashing
/// (\ref ArtifactKind::Quarantine). Exhaustive
/// enumerations are expensive — hours for the larger functions of the
/// paper's benchmarks — while the analyses that consume them (interaction
/// mining, the probabilistic compiler, DOT export) are cheap; the store
/// decouples the two, and lets a run killed by a deadline or memory
/// budget continue in a later process with a byte-identical final DAG.
///
/// Every artifact is keyed by the canonical hash triple of the
/// *unoptimized* function plus a fingerprint of the DAG-affecting
/// configuration, and framed with a magic string, a format version, a
/// CRC-32 of the payload, and a CRC-32 of the header itself (so a flipped
/// bit anywhere in the file — header fields included — is detectable
/// without knowing what the field should say, which is what lets
/// `posec --fsck` re-verify a store offline). A lookup that finds a file
/// with the wrong version, key, fingerprint, or checksum reports exactly
/// what mismatched, with the byte offset and the expected-vs-actual
/// values (\ref LoadStatus::Rejected) — a stale or corrupt artifact is
/// never silently reused. Writes go through a temporary file and an
/// atomic rename via the injectable \ref StoreIo layer, so a crash
/// mid-write leaves either the old artifact or none; write failures
/// carry errno context and unlink their temp file.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_ARTIFACTSTORE_H
#define POSE_STORE_ARTIFACTSTORE_H

#include "src/core/Enumerator.h"
#include "src/store/Quarantine.h"
#include "src/support/FaultFs.h"

#include <string>
#include <vector>

namespace pose {
namespace sem {
struct EquivRecord;
} // namespace sem
namespace store {

/// Bumped whenever the serialized encoding (Serialize.cpp) or the frame
/// layout changes; artifacts written by any other version are rejected.
/// Version 2: StopReason gained WorkerCrash (wider encoded range) and the
/// store gained quarantine records.
/// Version 3: canonical serialization widened the per-instruction arg
/// count from uint8_t to uint32_t, changing every hash triple (and with
/// it the artifact keys stored artifacts were computed under).
/// Version 4: the frame gained a trailing header CRC-32, making every
/// header field (including the config fingerprint, which no cross-check
/// covers) verifiable by --fsck without an expected value to compare to.
/// Version 5: the store gained equivalence records (semantic bucket sets
/// per DAG), and configFingerprint started mixing the fault *kind* of
/// non-crash injected faults so wrong-code plans key separately from
/// verifier plans.
/// Version 6: the enumerator's exact-compare mode was removed, so results
/// dropped the hash-collision counter, checkpoints the mode flag and the
/// per-node canonical bytes, and configFingerprint the mode's mix.
/// Version 7: the enumerator's naive re-apply mode was removed, so results
/// dropped the phase-application counter, checkpoint frontier entries
/// their replay path and separate phase state (the instance carries it),
/// and configFingerprint the mode's mix.
/// Version 8: the enumerator's independence-pruning mode was removed, so
/// results dropped the predicted-edge counter, checkpoint frontier entries
/// their discovery parent and phase, and configFingerprint the mode's mix.
constexpr uint32_t kFormatVersion = 8;

/// What an artifact file contains.
enum class ArtifactKind : uint32_t {
  Result = 1,      ///< A finished EnumerationResult (any stop reason).
  Checkpoint = 2,  ///< A resumable EnumerationCheckpoint.
  Quarantine = 3,  ///< A QuarantineRecord for a crashing worker job.
  Equivalence = 4, ///< A sem::EquivRecord: behavior digests per DAG node.
};

/// File-name suffix and report name of \p K ("result", "checkpoint",
/// "quarantine", "equiv").
const char *artifactKindName(ArtifactKind K);

/// Size of the fixed frame header: magic, version, kind, root triple,
/// fingerprint, payload size, payload CRC, header CRC.
constexpr size_t kFrameHeaderSize = 8 + 4 + 4 + 12 + 8 + 8 + 4 + 4;

/// Outcome of checking one artifact file.
enum class FrameVerdict {
  Ok,        ///< Verified end to end.
  Missing,   ///< The file cannot be opened or read.
  Truncated, ///< Shorter than a header, or than the payload it promises
             ///< (a torn write).
  Corrupt,   ///< Damaged: bad magic, version, header CRC, trailing bytes,
             ///< payload CRC, a kind or root other than expected, or a
             ///< payload that does not decode as its kind.
};

/// The one artifact check, shared by store lookups, fsck and merge:
/// reads \p Path and verifies magic, format version, header CRC, payload
/// length against the file size and payload CRC; requires the header to
/// name \p Kind and \p Root; and requires the payload to decode
/// completely as that kind (the codec's own rules included). The
/// fingerprint is not judged: lookups compare it, fsck and merge trust
/// the header CRC. On success \p Bytes holds the file; otherwise
/// \p Error names the byte offset and the expected-vs-actual values.
FrameVerdict checkArtifact(const std::string &Path, const HashTriple &Root,
                           ArtifactKind Kind, std::vector<uint8_t> &Bytes,
                           std::string &Error);

/// Reads the whole file at \p Path into \p Bytes with one open, fstat and
/// read-to-EOF loop; false when it cannot be opened or read (a missing
/// path, a directory).
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Bytes);

/// Fingerprint of the EnumeratorConfig fields that determine the DAG:
/// budgets, the register-remapping switch, verifier and fault-injection
/// settings. Execution-only knobs (Jobs, DeadlineMs,
/// MaxMemoryBytes, the stop token) are excluded on purpose — a DAG
/// enumerated with four workers under a deadline is the same DAG, and a
/// resumed run may legitimately use different resources than the run that
/// wrote the checkpoint. Crash-class injected faults (FaultKind::Segv and
/// friends) are execution-only too: they kill the process instead of
/// shaping the DAG, so a run with crash injection shares artifacts —
/// checkpoints, results, quarantine records — with a clean run.
uint64_t configFingerprint(const EnumeratorConfig &Config);

/// Fingerprint for an equivalence record: the DAG's config fingerprint
/// extended with the test-vector seed and count. A record computed under
/// different vectors is a different artifact — behavior digests are only
/// comparable within one vector set.
uint64_t equivFingerprint(uint64_t ConfigFp, uint64_t VectorSeed,
                          uint64_t VectorCount);

/// Outcome of a store lookup.
enum class LoadStatus {
  Hit,      ///< Artifact found, validated, and decoded.
  Miss,     ///< No artifact for this key (not an error).
  Rejected, ///< An artifact exists but failed validation; see the error
            ///< string. It must be regenerated, never used.
};

/// The store: a flat directory, one file per (root, kind) key.
class ArtifactStore {
public:
  /// \p Io routes every mutating filesystem operation; null uses
  /// \ref processStoreIo() (the real filesystem unless posec installed a
  /// --fault-io injector).
  explicit ArtifactStore(std::string Directory, StoreIo *Io = nullptr);

  /// Creates the store directory if needed. Returns false (with \p Error
  /// set) when it cannot be created.
  bool prepare(std::string &Error) const;

  const std::string &directory() const { return Dir; }

  /// Path of the artifact file for \p Root and \p Kind.
  std::string pathFor(const HashTriple &Root, ArtifactKind Kind) const;

  /// Removes `*.pose.tmp` leftovers of writers that died between the
  /// temp write and the committing rename, returning the paths removed.
  /// Only safe when no writer can be mid-write in this store: the
  /// supervisor calls it before spawning any worker, fsck --repair on an
  /// offline store. Never called from workers — a sibling's in-flight
  /// temp file must not be reclaimed under it.
  std::vector<std::string> reclaimTmp() const;

  /// Persists \p Res for \p Root. Returns false with \p Error set on I/O
  /// failure. A finished result supersedes any checkpoint or quarantine
  /// record for the same key, which are removed.
  bool saveResult(const HashTriple &Root, uint64_t Fingerprint,
                  const EnumerationResult &Res, std::string &Error) const;

  /// Persists \p C for \p Root (C.Valid must be true).
  bool saveCheckpoint(const HashTriple &Root, uint64_t Fingerprint,
                      const EnumerationCheckpoint &C,
                      std::string &Error) const;

  /// Looks up a finished result for (\p Root, \p Fingerprint).
  LoadStatus loadResult(const HashTriple &Root, uint64_t Fingerprint,
                        EnumerationResult &Res, std::string &Error) const;

  /// Looks up a resumable checkpoint for (\p Root, \p Fingerprint).
  LoadStatus loadCheckpoint(const HashTriple &Root, uint64_t Fingerprint,
                            EnumerationCheckpoint &C,
                            std::string &Error) const;

  /// Removes the checkpoint for \p Root, if any (used after the resumed
  /// run finishes).
  void removeCheckpoint(const HashTriple &Root) const;

  /// Persists a quarantine record: this (root, fingerprint) job's worker
  /// keeps dying and must be skipped until something changes.
  bool saveQuarantine(const HashTriple &Root, uint64_t Fingerprint,
                      const QuarantineRecord &Q, std::string &Error) const;

  /// Looks up a quarantine record for (\p Root, \p Fingerprint).
  LoadStatus loadQuarantine(const HashTriple &Root, uint64_t Fingerprint,
                            QuarantineRecord &Q, std::string &Error) const;

  /// Removes the quarantine record for \p Root, if any (the job finished
  /// after all, or the operator cleared it).
  void removeQuarantine(const HashTriple &Root) const;

  /// Persists the equivalence record for (\p Root, \p Fingerprint); pass
  /// equivFingerprint(), not the raw config fingerprint.
  bool saveEquivalence(const HashTriple &Root, uint64_t Fingerprint,
                       const sem::EquivRecord &E, std::string &Error) const;

  /// Looks up an equivalence record for (\p Root, \p Fingerprint).
  LoadStatus loadEquivalence(const HashTriple &Root, uint64_t Fingerprint,
                             sem::EquivRecord &E, std::string &Error) const;

  /// Removes the equivalence record for \p Root, if any.
  void removeEquivalence(const HashTriple &Root) const;

private:
  template <class T>
  bool save(const HashTriple &Root, ArtifactKind Kind, uint64_t Fingerprint,
            const T &X, std::string &Error) const;
  template <class T>
  LoadStatus load(const HashTriple &Root, ArtifactKind Kind,
                  uint64_t Fingerprint, T &X, std::string &Error) const;

  std::string Dir;
  StoreIo *Io;
};

} // namespace store
} // namespace pose

#endif // POSE_STORE_ARTIFACTSTORE_H
