//===- StoreAdmin.h - Offline store integrity and merging ------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline administration of artifact store directories, the operator
/// surface behind `posec --fsck` and `posec --merge-store`.
///
/// fsck re-verifies every frame in a store from nothing but the bytes on
/// disk — magic, version, header CRC, kind-vs-filename, key-vs-filename,
/// payload CRC, and a full payload decode, the same checkArtifact() a
/// store lookup and a merge apply — and classifies what it finds:
/// intact, truncated (torn write), corrupt (damaged bytes), an orphaned
/// `*.pose.tmp` from a writer that died before its rename, or a foreign
/// file it refuses to touch. With repair, damaged artifacts are moved
/// aside into `lost+found/` and orphans deleted, so the next sweep
/// recomputes exactly what was lost and nothing else.
///
/// merge unions shard stores produced by `posec --supervise --shard=K/N`
/// into one directory. The store's encodings are canonical, so the same
/// job computed anywhere yields byte-identical files; merge enforces
/// exactly that — same file name implies byte-identical content, with
/// identical copies deduplicated and any divergence reported as a
/// conflict (never silently resolved), since it means two stores claim
/// different facts about the same key.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_STOREADMIN_H
#define POSE_STORE_STOREADMIN_H

#include "src/store/ArtifactStore.h"

#include <string>
#include <vector>

namespace pose {
namespace store {

/// Parses a store file name of the canonical
/// `%08x-%08x-%08x.<kind>.pose` shape. False when \p Name is anything
/// else (including upper-case hex, which the store never writes).
bool parseArtifactName(const std::string &Name, HashTriple &Root,
                       ArtifactKind &Kind);

/// Classification of one store directory entry.
enum class FsckState : uint8_t {
  Ok,        ///< Frame verified end to end, payload decodes.
  Truncated, ///< Shorter than its header promises (torn write).
  Corrupt,   ///< Damaged bytes: magic/version/CRC/kind/key/decode.
  OrphanTmp, ///< `*.pose.tmp` left by a writer that died pre-rename.
  Foreign,   ///< Not a store file; listed, never touched by repair.
};

/// Short lower-case name ("ok", "corrupt", "orphan-tmp", ...).
const char *fsckStateName(FsckState S);

/// One non-intact (or foreign) directory entry.
struct FsckEntry {
  std::string Name; ///< File name inside the store directory.
  FsckState State = FsckState::Foreign;
  std::string Detail;     ///< Diagnostic: offset, expected vs actual.
  std::string RepairedTo; ///< Repair destination; "(removed)" for
                          ///< orphans, empty when nothing was done.
};

/// What an fsck pass found (and, with repair, did).
struct FsckReport {
  std::vector<FsckEntry> Entries; ///< Non-Ok entries, sorted by name.
  size_t Scanned = 0;
  size_t Intact = 0;
  size_t Corrupt = 0;
  size_t Truncated = 0;
  size_t Orphans = 0;
  size_t Foreign = 0;
  size_t Repaired = 0; ///< Problems actually moved aside / removed.
  std::string Error;   ///< Directory-level failure; all else unset.

  /// Nothing wrong with the store (foreign files are tolerated).
  bool clean() const {
    return Error.empty() && Corrupt == 0 && Truncated == 0 && Orphans == 0;
  }
  /// Every problem found was repaired away; the store is usable again.
  bool repairedClean() const {
    return Error.empty() && Repaired == Corrupt + Truncated + Orphans;
  }
};

/// Name of the repair destination directory inside a store.
constexpr const char *kLostAndFoundDir = "lost+found";

/// Scans every file of the store at \p Dir and re-verifies each frame.
/// With \p Repair, corrupt and truncated artifacts are moved into
/// `Dir/lost+found/` (never deleted — the bytes may still matter for a
/// post-mortem) and orphaned temp files are removed. Only run repair on
/// a store no writer is using. \p Io null = processStoreIo().
FsckReport fsckStore(const std::string &Dir, bool Repair,
                     StoreIo *Io = nullptr);

/// How a merge ended.
enum class MergeStatus : uint8_t {
  Ok,            ///< All sources unioned into the destination.
  Conflict,      ///< Same key, byte-different payload; nothing about the
                 ///< conflicting key was changed. See ConflictKey.
  CorruptSource, ///< A source artifact failed frame verification; run
                 ///< --fsck on that source first.
  IoError,       ///< Missing directory or a failed copy.
  SelfMerge,     ///< The destination is also a source (same path, a
                 ///< relative alias, or a symlink): merging a store into
                 ///< itself would walk a directory being mutated.
                 ///< Nothing was copied. A usage error, not an I/O one.
};

/// Outcome and statistics of one merge.
struct MergeReport {
  MergeStatus Status = MergeStatus::Ok;
  size_t Copied = 0;     ///< New artifacts copied into the destination.
  size_t Deduped = 0;    ///< Same key, byte-identical: nothing to do.
  size_t SkippedTmp = 0; ///< Crash leftovers in a source, ignored.
  std::string ConflictKey; ///< File name of the conflicting artifact.
  std::string Error;       ///< Human-readable failure description.
};

/// Unions the artifacts of every \p Srcs store into \p Dst (created if
/// needed), copying atomically (temp + rename) so an interrupted merge
/// leaves no torn destination files. Sources are processed in argument
/// order, files in sorted order, so the outcome is deterministic. Every
/// source artifact passes the check fsck applies (checkArtifact) before
/// it is allowed in; a merge stops at the first conflict or corrupt
/// source without touching the conflicting key. \p Io null =
/// processStoreIo().
MergeReport mergeStores(const std::string &Dst,
                        const std::vector<std::string> &Srcs,
                        StoreIo *Io = nullptr);

} // namespace store
} // namespace pose

#endif // POSE_STORE_STOREADMIN_H
