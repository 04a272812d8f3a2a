//===- admin_test.cpp - Store fsck and merge tests -----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The offline store-administration layer: fsck classification and repair
// (corrupt and truncated artifacts moved to lost+found, orphaned temp
// files removed, foreign files left alone), and the shard-store merge
// (deterministic union, byte-identical dedupe, conflict on same-key
// divergence, refusal of corrupt sources).
//
//===----------------------------------------------------------------------===//

#include "src/store/StoreAdmin.h"

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

namespace fs = std::filesystem;

using namespace pose;
using namespace pose::store;
using namespace pose::testhelpers;

namespace {

const char *TwoFnSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
    "int g(int a){return a+1;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-admin-" + Name;
  fs::remove_all(Dir);
  return Dir;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

void writeText(const std::string &Path, const char *Text) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
}

/// Two enumerated functions saved into \p Dir; returns their roots.
struct Seeded {
  HashTriple RootF, RootG;
  uint64_t Fp = 0;
};

Seeded seedStore(const std::string &Dir) {
  Module M = compileOrDie(TwoFnSource);
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Seeded S;
  S.Fp = configFingerprint(Cfg);
  ArtifactStore Store(Dir, &StoreIo::system());
  std::string Error;
  EXPECT_TRUE(Store.prepare(Error)) << Error;
  for (Function &F : M.Functions) {
    Enumerator E(PM, Cfg);
    const EnumerationResult R = E.enumerate(F);
    const HashTriple Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
    EXPECT_TRUE(Store.saveResult(Root, S.Fp, R, Error)) << Error;
    (F.Name == "f" ? S.RootF : S.RootG) = Root;
  }
  return S;
}

TEST(ParseArtifactName, RoundTripsStoreFileNames) {
  const std::string Dir = freshDir("names");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::string Path = Store.pathFor(S.RootF, ArtifactKind::Result);
  const std::string Name = fs::path(Path).filename().string();
  HashTriple Root;
  ArtifactKind Kind;
  ASSERT_TRUE(parseArtifactName(Name, Root, Kind));
  EXPECT_EQ(Root, S.RootF);
  EXPECT_EQ(Kind, ArtifactKind::Result);
}

TEST(ParseArtifactName, RejectsEverythingElse) {
  HashTriple Root;
  ArtifactKind Kind;
  EXPECT_FALSE(parseArtifactName("", Root, Kind));
  EXPECT_FALSE(parseArtifactName("README.md", Root, Kind));
  EXPECT_FALSE(parseArtifactName("00000001-00000002-00000003.result.pose.tmp",
                                 Root, Kind));
  EXPECT_FALSE(parseArtifactName("0000001-00000002-00000003.result.pose",
                                 Root, Kind)); // 7 hex digits.
  EXPECT_FALSE(parseArtifactName("0000000G-00000002-00000003.result.pose",
                                 Root, Kind)); // Non-hex.
  EXPECT_FALSE(parseArtifactName("0000000A-00000002-00000003.result.pose",
                                 Root, Kind)); // Upper-case hex.
  EXPECT_FALSE(parseArtifactName("00000001-00000002-00000003.sandwich.pose",
                                 Root, Kind)); // Unknown kind.
  EXPECT_FALSE(parseArtifactName("00000001-00000002-00000003.result.pose2",
                                 Root, Kind));
  EXPECT_FALSE(parseArtifactName("00000001-00000002-00000003.checkpoint.pose",
                                 Root, Kind)); // Gone with format 9.
  EXPECT_TRUE(parseArtifactName("00000001-00000002-00000003.equiv.pose",
                                Root, Kind));
  EXPECT_EQ(Kind, ArtifactKind::Equivalence);
  EXPECT_TRUE(parseArtifactName("00000001-00000002-00000003.quarantine.pose",
                                Root, Kind));
  EXPECT_EQ(Kind, ArtifactKind::Quarantine);
}

TEST(Fsck, CleanStoreReportsClean) {
  const std::string Dir = freshDir("clean");
  seedStore(Dir);
  const FsckReport R = fsckStore(Dir, false);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Scanned, 2u);
  EXPECT_EQ(R.Intact, 2u);
  EXPECT_TRUE(R.Entries.empty());
}

TEST(Fsck, MissingDirectoryIsAnError) {
  const FsckReport R =
      fsckStore(::testing::TempDir() + "pose-admin-nonexistent", false);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_FALSE(R.clean());
}

TEST(Fsck, ClassifiesEveryDamageClass) {
  const std::string Dir = freshDir("classify");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());

  // Corrupt: flip a payload byte of f's result.
  const std::string PathF = Store.pathFor(S.RootF, ArtifactKind::Result);
  std::vector<uint8_t> Bad = readFile(PathF);
  Bad[Bad.size() - 1] ^= 0x01;
  writeFile(PathF, Bad);
  // Truncated: cut g's result mid-payload.
  const std::string PathG = Store.pathFor(S.RootG, ArtifactKind::Result);
  const std::vector<uint8_t> Whole = readFile(PathG);
  writeFile(PathG, std::vector<uint8_t>(Whole.begin(),
                                        Whole.begin() + Whole.size() / 2));
  // Orphan: a stale temp file. Foreign: an unrelated file.
  writeText((fs::path(Dir) / "11112222-33334444-55556666.result.pose.tmp")
                .string(),
            "torn");
  writeText((fs::path(Dir) / "NOTES.txt").string(), "hello");

  const FsckReport R = fsckStore(Dir, false);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(R.Scanned, 4u);
  EXPECT_EQ(R.Intact, 0u);
  EXPECT_EQ(R.Corrupt, 1u);
  EXPECT_EQ(R.Truncated, 1u);
  EXPECT_EQ(R.Orphans, 1u);
  EXPECT_EQ(R.Foreign, 1u);
  EXPECT_EQ(R.Repaired, 0u); // Repair was not requested.
  // Diagnostics carry the offset-rich frame errors.
  bool SawChecksum = false, SawTruncated = false;
  for (const FsckEntry &E : R.Entries) {
    if (E.State == FsckState::Corrupt)
      SawChecksum = E.Detail.find("checksum mismatch") != std::string::npos;
    if (E.State == FsckState::Truncated)
      SawTruncated = E.Detail.find("payload") != std::string::npos;
    EXPECT_TRUE(E.RepairedTo.empty());
  }
  EXPECT_TRUE(SawChecksum);
  EXPECT_TRUE(SawTruncated);
}

TEST(Fsck, DetectsKindAndKeyConfusionAgainstTheFileName) {
  // A valid frame sitting at the wrong path (renamed or copied) is
  // corruption fsck must catch even though every checksum passes.
  const std::string Dir = freshDir("confusion");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::string PathF = Store.pathFor(S.RootF, ArtifactKind::Result);
  const std::string PathG = Store.pathFor(S.RootG, ArtifactKind::Result);
  writeFile(PathG, readFile(PathF)); // f's artifact under g's key.

  const FsckReport R = fsckStore(Dir, false);
  EXPECT_EQ(R.Corrupt, 1u);
  ASSERT_EQ(R.Entries.size(), 1u);
  EXPECT_NE(R.Entries[0].Detail.find("different root"), std::string::npos)
      << R.Entries[0].Detail;
}

TEST(Fsck, RepairQuarantinesDamageAndRemovesOrphans) {
  const std::string Dir = freshDir("repair");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::string PathF = Store.pathFor(S.RootF, ArtifactKind::Result);
  std::vector<uint8_t> Bad = readFile(PathF);
  Bad[20] ^= 0xFF; // A root-triple byte: header CRC catches it.
  writeFile(PathF, Bad);
  writeText((fs::path(Dir) / "11112222-33334444-55556666.result.pose.tmp")
                .string(),
            "torn");
  writeText((fs::path(Dir) / "NOTES.txt").string(), "hello");

  const FsckReport R = fsckStore(Dir, true);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.Corrupt, 1u);
  EXPECT_EQ(R.Orphans, 1u);
  EXPECT_EQ(R.Foreign, 1u);
  EXPECT_EQ(R.Repaired, 2u); // The corrupt file and the orphan.
  EXPECT_TRUE(R.repairedClean());

  // The damaged artifact moved (not deleted) into lost+found; the orphan
  // is gone; the foreign file is untouched; the store is clean again.
  const fs::path Lost = fs::path(Dir) / kLostAndFoundDir;
  EXPECT_TRUE(fs::exists(Lost / fs::path(PathF).filename()));
  EXPECT_FALSE(fs::exists(PathF));
  EXPECT_FALSE(
      fs::exists(fs::path(Dir) / "11112222-33334444-55556666.result.pose.tmp"));
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "NOTES.txt"));

  const FsckReport After = fsckStore(Dir, false);
  EXPECT_TRUE(After.clean());
  EXPECT_EQ(After.Intact, 1u); // g's artifact survived untouched.
}

TEST(Fsck, RepeatedRepairKeepsEveryGeneration) {
  const std::string Dir = freshDir("regen");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::string PathF = Store.pathFor(S.RootF, ArtifactKind::Result);
  const std::vector<uint8_t> Pristine = readFile(PathF);

  for (int Round = 0; Round != 2; ++Round) {
    std::vector<uint8_t> Bad = Pristine;
    Bad[30 + Round] ^= 0xFF;
    writeFile(PathF, Bad);
    EXPECT_TRUE(fsckStore(Dir, true).repairedClean()) << Round;
  }
  const fs::path Lost = fs::path(Dir) / kLostAndFoundDir;
  const std::string Name = fs::path(PathF).filename().string();
  EXPECT_TRUE(fs::exists(Lost / Name));
  EXPECT_TRUE(fs::exists(Lost / (Name + ".1"))); // Collision-suffixed.
}

TEST(Merge, UnionsDisjointStoresDeterministically) {
  const std::string DirA = freshDir("union-a");
  const std::string DirB = freshDir("union-b");
  const Seeded S = seedStore(DirA);
  // Split: move g's artifact into store B.
  ArtifactStore A(DirA, &StoreIo::system());
  const std::string PathG = A.pathFor(S.RootG, ArtifactKind::Result);
  fs::create_directories(DirB);
  fs::rename(PathG, fs::path(DirB) / fs::path(PathG).filename());

  const std::string Dst = freshDir("union-dst");
  const MergeReport R = mergeStores(Dst, {DirA, DirB});
  EXPECT_EQ(R.Status, MergeStatus::Ok) << R.Error;
  EXPECT_EQ(R.Copied, 2u);
  EXPECT_EQ(R.Deduped, 0u);
  // The merged store verifies clean and holds both artifacts.
  const FsckReport F = fsckStore(Dst, false);
  EXPECT_TRUE(F.clean());
  EXPECT_EQ(F.Intact, 2u);
}

TEST(Merge, IdenticalArtifactsDedupe) {
  const std::string DirA = freshDir("dedupe-a");
  const std::string DirB = freshDir("dedupe-b");
  seedStore(DirA);
  seedStore(DirB); // Same deterministic enumeration: byte-identical.

  const std::string Dst = freshDir("dedupe-dst");
  const MergeReport R = mergeStores(Dst, {DirA, DirB});
  EXPECT_EQ(R.Status, MergeStatus::Ok) << R.Error;
  EXPECT_EQ(R.Copied, 2u);
  EXPECT_EQ(R.Deduped, 2u);
}

TEST(Merge, SameKeyDivergenceIsAConflictNamingTheKey) {
  const std::string DirA = freshDir("conflict-a");
  const std::string DirB = freshDir("conflict-b");
  const Seeded S = seedStore(DirA);
  seedStore(DirB);
  // Re-save f's artifact in B under a different configuration: same key
  // (the file name ignores the fingerprint), different bytes.
  {
    Module M = compileOrDie(TwoFnSource);
    PhaseManager PM;
    EnumeratorConfig Other;
    Other.MaxLevelSequences = 7;
    Enumerator E(PM, Other);
    Function &F = functionNamed(M, "f");
    const EnumerationResult R = E.enumerate(F);
    ArtifactStore B(DirB, &StoreIo::system());
    std::string Error;
    ASSERT_TRUE(
        B.saveResult(S.RootF, configFingerprint(Other), R, Error))
        << Error;
  }

  const std::string Dst = freshDir("conflict-dst");
  const MergeReport R = mergeStores(Dst, {DirA, DirB});
  EXPECT_EQ(R.Status, MergeStatus::Conflict);
  ArtifactStore A(DirA, &StoreIo::system());
  const std::string Name =
      fs::path(A.pathFor(S.RootF, ArtifactKind::Result)).filename().string();
  EXPECT_EQ(R.ConflictKey, Name);
  EXPECT_NE(R.Error.find(Name), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("fingerprint"), std::string::npos) << R.Error;
}

TEST(Merge, CorruptSourceIsRefusedWithAnFsckHint) {
  const std::string DirA = freshDir("corrupt-a");
  const Seeded S = seedStore(DirA);
  ArtifactStore A(DirA, &StoreIo::system());
  const std::string PathF = A.pathFor(S.RootF, ArtifactKind::Result);
  std::vector<uint8_t> Bad = readFile(PathF);
  Bad[Bad.size() - 1] ^= 0xFF;
  writeFile(PathF, Bad);

  const std::string Dst = freshDir("corrupt-dst");
  const MergeReport R = mergeStores(Dst, {DirA});
  EXPECT_EQ(R.Status, MergeStatus::CorruptSource);
  EXPECT_NE(R.Error.find("--fsck"), std::string::npos) << R.Error;
}

TEST(Merge, SkipsStaleTempFilesAndForeignFiles) {
  const std::string DirA = freshDir("tmp-a");
  seedStore(DirA);
  writeText((fs::path(DirA) / "11112222-33334444-55556666.result.pose.tmp")
                .string(),
            "torn");
  writeText((fs::path(DirA) / "NOTES.txt").string(), "hello");

  const std::string Dst = freshDir("tmp-dst");
  const MergeReport R = mergeStores(Dst, {DirA});
  EXPECT_EQ(R.Status, MergeStatus::Ok) << R.Error;
  EXPECT_EQ(R.Copied, 2u);
  EXPECT_EQ(R.SkippedTmp, 1u);
  EXPECT_FALSE(fs::exists(fs::path(Dst) / "NOTES.txt"));
  EXPECT_FALSE(fs::exists(
      fs::path(Dst) / "11112222-33334444-55556666.result.pose.tmp"));
}

TEST(Merge, RefusesToMergeAStoreIntoItself) {
  const std::string Dir = freshDir("self");
  const Seeded S = seedStore(Dir);
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::string PathF = Store.pathFor(S.RootF, ArtifactKind::Result);
  const std::vector<uint8_t> Before = readFile(PathF);

  const MergeReport R = mergeStores(Dir, {Dir});
  EXPECT_EQ(R.Status, MergeStatus::SelfMerge);
  EXPECT_EQ(R.Copied, 0u);
  EXPECT_NE(R.Error.find("destination"), std::string::npos) << R.Error;
  // The store is untouched: same artifact bytes, still fsck-clean.
  EXPECT_EQ(readFile(PathF), Before);
  EXPECT_TRUE(fsckStore(Dir, false).clean());
}

TEST(Merge, RefusesSelfMergeThroughARelativeAlias) {
  const std::string Dir = freshDir("self-alias");
  seedStore(Dir);
  // dir/../<leaf> resolves back to dir itself.
  const fs::path P(Dir);
  const std::string Alias =
      (P.parent_path() / ".." / P.parent_path().filename() / P.filename())
          .string();
  const MergeReport R = mergeStores(Dir, {Alias});
  EXPECT_EQ(R.Status, MergeStatus::SelfMerge) << Alias << ": " << R.Error;
  EXPECT_EQ(R.Copied, 0u);
}

TEST(Merge, RefusesSelfMergeThroughASymlink) {
  const std::string Dir = freshDir("self-link");
  seedStore(Dir);
  const std::string Link = freshDir("self-link-alias");
  std::error_code EC;
  fs::create_directory_symlink(Dir, Link, EC);
  if (EC)
    GTEST_SKIP() << "cannot create symlinks here: " << EC.message();
  const MergeReport R = mergeStores(Dir, {Link});
  EXPECT_EQ(R.Status, MergeStatus::SelfMerge) << R.Error;
  EXPECT_EQ(R.Copied, 0u);
  fs::remove(Link);
}

TEST(Merge, SelfMergeAmongOtherSourcesStillRefusesBeforeCopying) {
  const std::string DirA = freshDir("self-multi-a");
  seedStore(DirA);
  const std::string Dst = freshDir("self-multi-dst");
  seedStore(Dst);
  const MergeReport R = mergeStores(Dst, {DirA, Dst});
  EXPECT_EQ(R.Status, MergeStatus::SelfMerge);
  EXPECT_EQ(R.Copied, 0u) << "sources must be validated before any copy";
}

TEST(Merge, MissingSourceIsAnIoError) {
  const std::string Dst = freshDir("missing-dst");
  const MergeReport R =
      mergeStores(Dst, {::testing::TempDir() + "pose-admin-no-such-store"});
  EXPECT_EQ(R.Status, MergeStatus::IoError);
  EXPECT_FALSE(R.Error.empty());
}

TEST(ReclaimTmp, RemovesOnlyTempFiles) {
  const std::string Dir = freshDir("reclaim");
  const Seeded S = seedStore(Dir);
  writeText((fs::path(Dir) / "11112222-33334444-55556666.result.pose.tmp")
                .string(),
            "torn");
  writeText((fs::path(Dir) / "NOTES.txt").string(), "hello");
  ArtifactStore Store(Dir, &StoreIo::system());
  const std::vector<std::string> Removed = Store.reclaimTmp();
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_NE(Removed[0].find(".pose.tmp"), std::string::npos);
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "NOTES.txt"));
  EXPECT_TRUE(fs::exists(Store.pathFor(S.RootF, ArtifactKind::Result)));
}

TEST(ReclaimTmp, KeepsADirectoryNamedLikeATempFile) {
  const std::string Dir = freshDir("reclaim-dir");
  seedStore(Dir);
  const fs::path Sub = fs::path(Dir) / "x.pose.tmp";
  fs::create_directory(Sub);
  writeText((Sub / "inside.pose.tmp").string(), "kept");
  ArtifactStore Store(Dir, &StoreIo::system());
  EXPECT_TRUE(Store.reclaimTmp().empty());
  EXPECT_TRUE(fs::is_directory(Sub));
  EXPECT_TRUE(fs::exists(Sub / "inside.pose.tmp"));
}

} // namespace
