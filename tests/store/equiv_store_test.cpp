//===- equiv_store_test.cpp - The equivalence artifact kind --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Full store coverage of the Equivalence artifact kind: exact codec round
// trip, decoder strictness (truncation, invariant violations), every-byte
// flip rejection at the frame layer, fsck classification of a corrupted
// equivalence file, and merge-store dedupe/conflict behavior.
//
//===----------------------------------------------------------------------===//

#include "src/store/StoreAdmin.h"

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/sem/Equivalence.h"
#include "src/store/Serialize.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

namespace fs = std::filesystem;

using namespace pose;
using namespace pose::store;
using namespace pose::testhelpers;

namespace {

const char *LoopSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-equivstore-" + Name;
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

/// A real record computed over f's enumerated space.
struct Computed {
  Module M;
  HashTriple Root;
  uint64_t Fp = 0;
  sem::EquivRecord E;
};

Computed computeRecord() {
  Computed C;
  C.M = compileOrDie(LoopSource);
  Function &F = functionNamed(C.M, "f");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Enumerator En(PM, Cfg);
  const EnumerationResult R = En.enumerate(F);
  EXPECT_TRUE(R.complete());
  C.Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
  C.Fp = equivFingerprint(configFingerprint(Cfg),
                          sem::kDefaultVectorSeed,
                          sem::kDefaultVectorCount);
  C.E = sem::computeEquivalence(C.M, F, PM, R, sem::EquivInputs());
  return C;
}

bool recordsEqual(const sem::EquivRecord &A, const sem::EquivRecord &B) {
  return A.VectorSeed == B.VectorSeed &&
         A.VectorsRequested == B.VectorsRequested &&
         A.NumParams == B.NumParams && A.UsedVectors == B.UsedVectors &&
         A.NodeBehavior == B.NodeBehavior &&
         A.NodeDynamic == B.NodeDynamic && A.NodeAllOk == B.NodeAllOk;
}

TEST(EquivCodec, RoundTripIsExact) {
  const Computed C = computeRecord();
  ByteWriter W;
  encode(W, C.E);
  ByteReader R(W.bytes());
  sem::EquivRecord Out;
  ASSERT_TRUE(decode(R, Out));
  EXPECT_TRUE(R.atEnd());
  EXPECT_TRUE(recordsEqual(C.E, Out));
}

TEST(EquivCodec, EveryTruncationIsRejected) {
  const Computed C = computeRecord();
  ByteWriter W;
  encode(W, C.E);
  const std::vector<uint8_t> &Bytes = W.bytes();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    ByteReader R(Bytes.data(), Len);
    sem::EquivRecord Out;
    EXPECT_FALSE(decode(R, Out) && R.atEnd())
        << "prefix length " << Len;
  }
}

TEST(EquivCodec, InvariantViolationsAreRejected) {
  const Computed C = computeRecord();
  {
    // Non-ascending used-vector indices.
    sem::EquivRecord Bad = C.E;
    ASSERT_GE(Bad.UsedVectors.size(), 2u);
    std::swap(Bad.UsedVectors[0], Bad.UsedVectors[1]);
    ByteWriter W;
    encode(W, Bad);
    ByteReader R(W.bytes());
    sem::EquivRecord Out;
    EXPECT_FALSE(decode(R, Out));
  }
  {
    // A used index at/above the requested count.
    sem::EquivRecord Bad = C.E;
    Bad.UsedVectors.back() = Bad.VectorsRequested;
    ByteWriter W;
    encode(W, Bad);
    ByteReader R(W.bytes());
    sem::EquivRecord Out;
    EXPECT_FALSE(decode(R, Out));
  }
  {
    // An AllOk byte outside 0/1.
    sem::EquivRecord Bad = C.E;
    ASSERT_FALSE(Bad.NodeAllOk.empty());
    Bad.NodeAllOk[0] = 2;
    ByteWriter W;
    encode(W, Bad);
    ByteReader R(W.bytes());
    sem::EquivRecord Out;
    EXPECT_FALSE(decode(R, Out));
  }
}

TEST(EquivStore, SaveLoadRemoveAndFingerprintMismatch) {
  const std::string Dir = freshDir("roundtrip");
  Computed C = computeRecord();
  ArtifactStore Store(Dir, &StoreIo::system());
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveEquivalence(C.Root, C.Fp, C.E, Error)) << Error;

  sem::EquivRecord Out;
  EXPECT_EQ(Store.loadEquivalence(C.Root, C.Fp, Out, Error),
            LoadStatus::Hit)
      << Error;
  EXPECT_TRUE(recordsEqual(C.E, Out));
  // Another seed is another artifact: the lookup must reject, because a
  // digest is only comparable within one vector set.
  const uint64_t OtherFp = C.Fp ^ 1;
  EXPECT_EQ(Store.loadEquivalence(C.Root, OtherFp, Out, Error),
            LoadStatus::Rejected);
  Store.removeEquivalence(C.Root);
  EXPECT_EQ(Store.loadEquivalence(C.Root, C.Fp, Out, Error),
            LoadStatus::Miss);
}

TEST(EquivStore, EveryByteFlipIsRejectedAtTheFrameLayer) {
  const std::string Dir = freshDir("byteflip");
  Computed C = computeRecord();
  ArtifactStore Store(Dir, &StoreIo::system());
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveEquivalence(C.Root, C.Fp, C.E, Error)) << Error;
  const std::string Path = Store.pathFor(C.Root, ArtifactKind::Equivalence);
  const std::vector<uint8_t> Good = readFile(Path);
  ASSERT_FALSE(Good.empty());

  for (size_t I = 0; I != Good.size(); ++I) {
    std::vector<uint8_t> Bad = Good;
    Bad[I] ^= 0x01;
    writeFile(Path, Bad);
    sem::EquivRecord Out;
    EXPECT_EQ(Store.loadEquivalence(C.Root, C.Fp, Out, Error),
              LoadStatus::Rejected)
        << "flipped byte " << I << " was accepted";
  }
  writeFile(Path, Good);
  EXPECT_EQ(Store.loadEquivalence(C.Root, C.Fp, C.E, Error),
            LoadStatus::Hit);
}

TEST(EquivStore, FsckClassifiesACorruptEquivalenceArtifact) {
  const std::string Dir = freshDir("fsck");
  Computed C = computeRecord();
  ArtifactStore Store(Dir, &StoreIo::system());
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveEquivalence(C.Root, C.Fp, C.E, Error)) << Error;
  EXPECT_TRUE(fsckStore(Dir, false).clean());

  const std::string Path = Store.pathFor(C.Root, ArtifactKind::Equivalence);
  std::vector<uint8_t> Bad = readFile(Path);
  Bad[Bad.size() - 1] ^= 0xFF; // Payload damage behind a valid header.
  writeFile(Path, Bad);

  const FsckReport R = fsckStore(Dir, false);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(R.Corrupt, 1u);
  ASSERT_EQ(R.Entries.size(), 1u);
  EXPECT_EQ(R.Entries[0].State, FsckState::Corrupt);
  EXPECT_EQ(R.Entries[0].Name, fs::path(Path).filename().string());
}

TEST(EquivStore, MergeDedupesIdenticalAndConflictsOnDivergence) {
  const std::string DirA = freshDir("merge-a");
  const std::string DirB = freshDir("merge-b");
  Computed C = computeRecord();
  std::string Error;
  {
    ArtifactStore A(DirA, &StoreIo::system());
    ASSERT_TRUE(A.prepare(Error)) << Error;
    ASSERT_TRUE(A.saveEquivalence(C.Root, C.Fp, C.E, Error)) << Error;
    ArtifactStore B(DirB, &StoreIo::system());
    ASSERT_TRUE(B.prepare(Error)) << Error;
    ASSERT_TRUE(B.saveEquivalence(C.Root, C.Fp, C.E, Error)) << Error;
  }

  // Byte-identical records dedupe.
  const std::string Dst = freshDir("merge-dst");
  const MergeReport M1 = mergeStores(Dst, {DirA, DirB});
  EXPECT_EQ(M1.Status, MergeStatus::Ok) << M1.Error;
  EXPECT_EQ(M1.Copied, 1u);
  EXPECT_EQ(M1.Deduped, 1u);

  // A record computed under another vector seed has the same file name
  // but different bytes: a conflict naming the key, never a silent pick.
  {
    ArtifactStore B(DirB, &StoreIo::system());
    sem::EquivRecord Other = C.E;
    Other.VectorSeed ^= 0x5A5A;
    ASSERT_TRUE(B.saveEquivalence(C.Root, C.Fp ^ 2, Other, Error)) << Error;
  }
  const std::string Dst2 = freshDir("merge-dst2");
  const MergeReport M2 = mergeStores(Dst2, {DirA, DirB});
  EXPECT_EQ(M2.Status, MergeStatus::Conflict);
  ArtifactStore A(DirA, &StoreIo::system());
  const std::string Name =
      fs::path(A.pathFor(C.Root, ArtifactKind::Equivalence))
          .filename()
          .string();
  EXPECT_EQ(M2.ConflictKey, Name);
}

} // namespace
