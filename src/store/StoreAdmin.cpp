//===- StoreAdmin.cpp - Offline store integrity and merging ---------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/StoreAdmin.h"

#include <algorithm>
#include <filesystem>

namespace fs = std::filesystem;

namespace pose {
namespace store {

namespace {

/// Strict lower-case hex: exactly eight digits of [0-9a-f].
bool parseHex32(const std::string &Text, size_t Pos, uint32_t &Out) {
  uint32_t V = 0;
  for (size_t I = 0; I != 8; ++I) {
    const char C = Text[Pos + I];
    uint32_t Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<uint32_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<uint32_t>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | Digit;
  }
  Out = V;
  return true;
}

bool endsWith(const std::string &Name, const char *Suffix) {
  const size_t Len = std::char_traits<char>::length(Suffix);
  return Name.size() >= Len &&
         Name.compare(Name.size() - Len, Len, Suffix) == 0;
}

/// Sorted regular-file names directly inside \p Dir (subdirectories such
/// as lost+found are skipped). False with \p Error on iteration failure.
bool listStoreFiles(const std::string &Dir, std::vector<std::string> &Names,
                    std::string &Error) {
  std::error_code EC;
  fs::directory_iterator It(Dir, EC), End;
  if (EC) {
    Error = "cannot read store directory '" + Dir + "': " + EC.message();
    return false;
  }
  for (; !EC && It != End; It.increment(EC))
    if (It->is_regular_file(EC))
      Names.push_back(It->path().filename().string());
  if (EC) {
    Error = "cannot read store directory '" + Dir + "': " + EC.message();
    return false;
  }
  std::sort(Names.begin(), Names.end());
  return true;
}

} // namespace

bool parseArtifactName(const std::string &Name, HashTriple &Root,
                       ArtifactKind &Kind) {
  // %08x-%08x-%08x.<kind>.pose — shortest kind is "equiv".
  if (Name.size() < 8 + 1 + 8 + 1 + 8 + 1 + 5 + 5)
    return false;
  if (Name[8] != '-' || Name[17] != '-')
    return false;
  HashTriple T;
  if (!parseHex32(Name, 0, T.InstCount) || !parseHex32(Name, 9, T.ByteSum) ||
      !parseHex32(Name, 18, T.Crc))
    return false;
  const std::string Rest = Name.substr(26);
  for (ArtifactKind K : {ArtifactKind::Result, ArtifactKind::Quarantine,
                         ArtifactKind::Equivalence})
    if (Rest == std::string(".") + artifactKindName(K) + ".pose") {
      Root = T;
      Kind = K;
      return true;
    }
  return false;
}

const char *fsckStateName(FsckState S) {
  switch (S) {
  case FsckState::Ok:
    return "ok";
  case FsckState::Truncated:
    return "truncated";
  case FsckState::Corrupt:
    return "corrupt";
  case FsckState::OrphanTmp:
    return "orphan-tmp";
  case FsckState::Foreign:
    return "foreign";
  }
  return "?";
}

FsckReport fsckStore(const std::string &Dir, bool Repair, StoreIo *Io) {
  StoreIo &Fs = Io ? *Io : processStoreIo();
  FsckReport Rep;
  std::vector<std::string> Names;
  if (!listStoreFiles(Dir, Names, Rep.Error))
    return Rep;

  std::error_code EC;
  bool LostDirReady = false;
  const fs::path LostDir = fs::path(Dir) / kLostAndFoundDir;

  for (const std::string &Name : Names) {
    ++Rep.Scanned;
    FsckEntry E;
    E.Name = Name;
    const std::string Path = (fs::path(Dir) / Name).string();

    HashTriple Root;
    ArtifactKind Kind;
    if (endsWith(Name, ".pose.tmp")) {
      E.State = FsckState::OrphanTmp;
      E.Detail = "temporary file left by a writer that died before its "
                 "rename committed";
      ++Rep.Orphans;
      if (Repair && Fs.remove(Path)) {
        E.RepairedTo = "(removed)";
        ++Rep.Repaired;
      }
      Rep.Entries.push_back(std::move(E));
      continue;
    }
    if (!parseArtifactName(Name, Root, Kind)) {
      E.State = FsckState::Foreign;
      E.Detail = "not a store artifact name; left untouched";
      ++Rep.Foreign;
      Rep.Entries.push_back(std::move(E));
      continue;
    }

    std::vector<uint8_t> Bytes;
    switch (checkArtifact(Path, Root, Kind, Bytes, E.Detail)) {
    case FrameVerdict::Ok:
      ++Rep.Intact;
      continue; // Intact artifacts are counted, not listed.
    case FrameVerdict::Truncated:
      E.State = FsckState::Truncated;
      ++Rep.Truncated;
      break;
    case FrameVerdict::Missing:
    case FrameVerdict::Corrupt:
      E.State = FsckState::Corrupt;
      ++Rep.Corrupt;
      break;
    }

    if (Repair) {
      if (!LostDirReady) {
        fs::create_directories(LostDir, EC);
        LostDirReady = !EC;
      }
      if (LostDirReady) {
        // Move aside, never delete: the damaged bytes may matter for a
        // post-mortem, and out of the store they can no longer be read
        // by a sweep. Suffix on collision so repeated repairs keep every
        // generation.
        fs::path Dest = LostDir / Name;
        for (unsigned N = 1; fs::exists(Dest, EC); ++N)
          Dest = LostDir / (Name + "." + std::to_string(N));
        int Err = 0;
        if (Fs.rename(Path, Dest.string(), Err)) {
          E.RepairedTo = Dest.string();
          ++Rep.Repaired;
        }
      }
    }
    Rep.Entries.push_back(std::move(E));
  }
  return Rep;
}

MergeReport mergeStores(const std::string &Dst,
                        const std::vector<std::string> &Srcs, StoreIo *Io) {
  StoreIo &Fs = Io ? *Io : processStoreIo();
  MergeReport Rep;

  std::error_code EC;
  fs::create_directories(Dst, EC);
  if (EC) {
    Rep.Status = MergeStatus::IoError;
    Rep.Error =
        "cannot create destination store '" + Dst + "': " + EC.message();
    return Rep;
  }

  // Refuse a destination that is also a source. The copy loop below
  // lists a source once and then mutates the destination; if they are
  // the same directory (spelled the same, through `..` aliasing, or via
  // a symlink), the walk reads a directory being rewritten under it.
  // Canonicalize after create_directories so the destination's own
  // components resolve; weakly_canonical tolerates a not-yet-existing
  // source (listStoreFiles reports that properly below).
  const fs::path DstCanon = fs::weakly_canonical(Dst, EC);
  for (const std::string &Src : Srcs) {
    std::error_code SrcEC;
    const fs::path SrcCanon = fs::weakly_canonical(Src, SrcEC);
    if (!EC && !SrcEC && DstCanon == SrcCanon) {
      Rep.Status = MergeStatus::SelfMerge;
      Rep.Error = "destination store '" + Dst + "' is also a source ('" +
                  Src + "' resolves to the same directory); merging a "
                  "store into itself would walk a directory being "
                  "mutated — give the merge a fresh destination";
      return Rep;
    }
  }

  for (const std::string &Src : Srcs) {
    std::vector<std::string> Names;
    if (!listStoreFiles(Src, Names, Rep.Error)) {
      Rep.Status = MergeStatus::IoError;
      return Rep;
    }
    for (const std::string &Name : Names) {
      const std::string SrcPath = (fs::path(Src) / Name).string();
      if (endsWith(Name, ".pose.tmp")) {
        // A crash leftover in a shard store; the shard's own artifacts
        // are complete without it (old-or-none), so it carries nothing
        // worth merging.
        ++Rep.SkippedTmp;
        continue;
      }
      HashTriple Root;
      ArtifactKind Kind;
      if (!parseArtifactName(Name, Root, Kind))
        continue; // Foreign file; not part of the store's contents.

      std::vector<uint8_t> Bytes;
      std::string Why;
      switch (checkArtifact(SrcPath, Root, Kind, Bytes, Why)) {
      case FrameVerdict::Ok:
        break;
      case FrameVerdict::Missing:
        Rep.Status = MergeStatus::IoError;
        Rep.Error = "cannot read '" + SrcPath + "'";
        return Rep;
      case FrameVerdict::Truncated:
      case FrameVerdict::Corrupt:
        Rep.Status = MergeStatus::CorruptSource;
        Rep.Error = "source artifact '" + SrcPath + "' " + Why +
                    "; run --fsck on '" + Src + "' first";
        return Rep;
      }

      const std::string DstPath = (fs::path(Dst) / Name).string();
      std::vector<uint8_t> Existing;
      if (readFileBytes(DstPath, Existing)) {
        if (Existing == Bytes) {
          ++Rep.Deduped;
          continue;
        }
        // Same key, different bytes: the stores disagree about this
        // artifact. The usual cause is shards swept under different
        // configurations (the fingerprint at offset 28 differs); never
        // pick a side silently.
        Rep.Status = MergeStatus::Conflict;
        Rep.ConflictKey = Name;
        Rep.Error = "merge conflict on '" + Name + "': '" + SrcPath +
                    "' and '" + DstPath +
                    "' hold byte-different artifacts for the same key; "
                    "check the stores' enumerator configurations "
                    "(fingerprints) and re-sweep the divergent shard";
        return Rep;
      }

      // Atomic copy through the destination's own temp/rename protocol,
      // so a merge interrupted mid-copy leaves no torn destination file.
      const std::string Tmp = DstPath + ".tmp";
      int Err = 0;
      size_t Written = 0;
      if (!Fs.writeFile(Tmp, Bytes.data(), Bytes.size(), Err, Written)) {
        Fs.remove(Tmp);
        Rep.Status = MergeStatus::IoError;
        Rep.Error = "cannot write '" + Tmp + "'";
        return Rep;
      }
      if (!Fs.rename(Tmp, DstPath, Err)) {
        Fs.remove(Tmp);
        Rep.Status = MergeStatus::IoError;
        Rep.Error = "cannot rename '" + Tmp + "' to '" + DstPath + "'";
        return Rep;
      }
      ++Rep.Copied;
    }
  }
  return Rep;
}

} // namespace store
} // namespace pose
