//===- ArtifactStore.cpp - Persistent enumeration artifact store ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/ArtifactStore.h"

#include "src/store/ByteIo.h"
#include "src/store/Serialize.h"
#include "src/support/Crc32.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace pose {
namespace store {

namespace {

// File frame: magic, format version, kind, root triple, config
// fingerprint, payload length, payload CRC-32, header CRC-32 (over
// everything before it), payload bytes.
constexpr char kMagic[8] = {'P', 'O', 'S', 'E', 'A', 'R', 'T', '\n'};
// Byte offsets of the header fields, quoted in diagnostics so a corrupt
// file names where it diverged.
constexpr size_t kOffVersion = 8;
constexpr size_t kOffKind = 12;
constexpr size_t kOffRoot = 16;
constexpr size_t kOffFingerprint = 28;
constexpr size_t kOffPayloadSize = 36;
constexpr size_t kOffPayloadCrc = 44;
constexpr size_t kOffHeaderCrc = 48;
static_assert(kFrameHeaderSize == kOffHeaderCrc + 4,
              "frame layout and offsets out of sync");

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 0x100000001B3ull; // FNV-1a prime, widened.
  return H;
}

std::string hex32(uint32_t V) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%08x", V);
  return Buf;
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string tripleText(const HashTriple &T) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%08x-%08x-%08x", T.InstCount, T.ByteSum,
                T.Crc);
  return Buf;
}

std::string errnoText(int Err) {
  if (Err == 0)
    return "unknown I/O error";
  return std::string(std::strerror(Err)) + " (errno " +
         std::to_string(Err) + ")";
}

} // namespace

const char *artifactKindName(ArtifactKind K) {
  switch (K) {
  case ArtifactKind::Result:
    return "result";
  case ArtifactKind::Checkpoint:
    return "checkpoint";
  case ArtifactKind::Quarantine:
    return "quarantine";
  case ArtifactKind::Equivalence:
    return "equiv";
  }
  return "?";
}

uint64_t configFingerprint(const EnumeratorConfig &Config) {
  uint64_t H = 0xCBF29CE484222325ull;
  H = mix(H, Config.MaxLevelSequences);
  H = mix(H, Config.MaxTotalNodes);
  H = mix(H, Config.NaiveReapply);
  H = mix(H, Config.RemapRegisters);
  H = mix(H, Config.UseIndependencePruning);
  for (int X = 0; X != NumPhases; ++X)
    for (int Y = 0; Y != NumPhases; ++Y)
      H = mix(H, Config.TrainedIndependence[X][Y]);
  H = mix(H, Config.VerifyIr);
  // Injected verifier faults prune edges and wrong-code faults mutate
  // instances, so both shape the DAG like any other config switch; an
  // empty plan fingerprints like no plan. Crash-class faults kill the
  // process instead of shaping the DAG — they are execution-only and
  // excluded, so a crash-injected worker reads and writes the same
  // artifacts as a clean run of the same job.
  if (Config.Faults)
    for (const FaultPlan::Fault &F : Config.Faults->Faults) {
      if (isCrashKind(F.Kind))
        continue;
      H = mix(H, static_cast<uint64_t>(F.Phase));
      H = mix(H, F.Application);
      H = mix(H, static_cast<uint64_t>(F.Kind));
    }
  return H;
}

uint64_t equivFingerprint(uint64_t ConfigFp, uint64_t VectorSeed,
                          uint64_t VectorCount) {
  uint64_t H = ConfigFp;
  H = mix(H, VectorSeed);
  H = mix(H, VectorCount);
  return H;
}

ArtifactStore::ArtifactStore(std::string Directory, StoreIo *Io)
    : Dir(std::move(Directory)), Io(Io ? Io : &processStoreIo()) {}

bool ArtifactStore::prepare(std::string &Error) const {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create store directory '" + Dir + "': " + EC.message();
    return false;
  }
  return true;
}

std::string ArtifactStore::pathFor(const HashTriple &Root,
                                   ArtifactKind Kind) const {
  char Name[64];
  std::snprintf(Name, sizeof(Name), "%08x-%08x-%08x.%s.pose", Root.InstCount,
                Root.ByteSum, Root.Crc, artifactKindName(Kind));
  return (fs::path(Dir) / Name).string();
}

std::vector<std::string> ArtifactStore::reclaimTmp() const {
  std::vector<std::string> Removed;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    const std::string Name = It->path().filename().string();
    constexpr const char *Suffix = ".pose.tmp";
    const size_t SufLen = std::strlen(Suffix);
    if (Name.size() <= SufLen ||
        Name.compare(Name.size() - SufLen, SufLen, Suffix) != 0)
      continue;
    if (Io->remove(It->path().string()))
      Removed.push_back(It->path().string());
  }
  std::sort(Removed.begin(), Removed.end());
  return Removed;
}

bool ArtifactStore::writeArtifact(const HashTriple &Root, ArtifactKind Kind,
                                  uint64_t Fingerprint,
                                  const std::vector<uint8_t> &Payload,
                                  std::string &Error) const {
  ByteWriter W;
  for (char C : kMagic)
    W.u8(static_cast<uint8_t>(C));
  W.u32(kFormatVersion);
  W.u32(static_cast<uint32_t>(Kind));
  W.u32(Root.InstCount);
  W.u32(Root.ByteSum);
  W.u32(Root.Crc);
  W.u64(Fingerprint);
  W.u64(Payload.size());
  W.u32(crc32(Payload));
  W.u32(crc32(W.bytes())); // Header CRC over everything above.
  std::vector<uint8_t> File = W.take();
  File.insert(File.end(), Payload.begin(), Payload.end());

  const std::string Path = pathFor(Root, Kind);
  const std::string Tmp = Path + ".tmp";
  int Err = 0;
  size_t Written = 0;
  if (!Io->writeFile(Tmp, File.data(), File.size(), Err, Written)) {
    Error = "cannot write '" + Tmp + "': " + errnoText(Err) + " after " +
            std::to_string(Written) + " of " + std::to_string(File.size()) +
            " bytes";
    // A failed write must not leave its torn temp file behind for the
    // next reader to trip over; after a genuine crash nothing runs here
    // and --fsck / the supervisor's startup sweep reclaim the orphan.
    Io->remove(Tmp);
    return false;
  }
  if (!Io->rename(Tmp, Path, Err)) {
    Error = "cannot rename '" + Tmp + "' to '" + Path +
            "': " + errnoText(Err);
    Io->remove(Tmp);
    return false;
  }
  return true;
}

FrameVerdict inspectFrame(const std::vector<uint8_t> &Bytes,
                          ArtifactFrame &Out, std::string &Error) {
  if (Bytes.size() < kFrameHeaderSize) {
    Error = "is truncated: " + std::to_string(Bytes.size()) +
            " bytes, a frame header is " +
            std::to_string(kFrameHeaderSize);
    return FrameVerdict::Truncated;
  }
  ByteReader R(Bytes);
  for (size_t I = 0; I != sizeof(kMagic); ++I) {
    const uint8_t Got = R.u8();
    const uint8_t Want = static_cast<uint8_t>(kMagic[I]);
    if (Got != Want) {
      Error = "is not a POSE artifact (bad magic at offset " +
              std::to_string(I) + ": byte " + hex32(Got) + ", expected " +
              hex32(Want) + ")";
      return FrameVerdict::Corrupt;
    }
  }
  Out.Version = R.u32();
  if (Out.Version != kFormatVersion) {
    Error = "has format version " + std::to_string(Out.Version) +
            " (at offset " + std::to_string(kOffVersion) +
            "), this build reads version " + std::to_string(kFormatVersion);
    return FrameVerdict::Corrupt;
  }
  Out.RawKind = R.u32();
  Out.Root.InstCount = R.u32();
  Out.Root.ByteSum = R.u32();
  Out.Root.Crc = R.u32();
  Out.Fingerprint = R.u64();
  Out.PayloadSize = R.u64();
  Out.PayloadCrc = R.u32();
  const uint32_t HeaderCrc = R.u32();
  const uint32_t ComputedHeaderCrc = crc32(Bytes.data(), kOffHeaderCrc);
  if (HeaderCrc != ComputedHeaderCrc) {
    Error = "header checksum mismatch at offset " +
            std::to_string(kOffHeaderCrc) + ": stored " + hex32(HeaderCrc) +
            ", computed " + hex32(ComputedHeaderCrc);
    return FrameVerdict::Corrupt;
  }
  if (Out.RawKind < static_cast<uint32_t>(ArtifactKind::Result) ||
      Out.RawKind > static_cast<uint32_t>(ArtifactKind::Equivalence)) {
    Error = "has unknown artifact kind " + std::to_string(Out.RawKind) +
            " at offset " + std::to_string(kOffKind);
    return FrameVerdict::Corrupt;
  }
  const uint64_t Held = Bytes.size() - kFrameHeaderSize;
  if (Out.PayloadSize != Held) {
    Error = "payload length mismatch at offset " +
            std::to_string(kOffPayloadSize) + ": header promises " +
            std::to_string(Out.PayloadSize) + " payload bytes, file holds " +
            std::to_string(Held);
    return Held < Out.PayloadSize ? FrameVerdict::Truncated
                                  : FrameVerdict::Corrupt;
  }
  const uint32_t ComputedPayloadCrc = crc32(
      Bytes.data() + kFrameHeaderSize, Bytes.size() - kFrameHeaderSize);
  if (Out.PayloadCrc != ComputedPayloadCrc) {
    Error = "payload checksum mismatch at offset " +
            std::to_string(kOffPayloadCrc) + ": stored " +
            hex32(Out.PayloadCrc) + ", computed " +
            hex32(ComputedPayloadCrc);
    return FrameVerdict::Corrupt;
  }
  return FrameVerdict::Ok;
}

LoadStatus ArtifactStore::readArtifact(const HashTriple &Root,
                                       ArtifactKind Kind, uint64_t Fingerprint,
                                       std::vector<uint8_t> &Payload,
                                       std::string &Error) const {
  const std::string Path = pathFor(Root, Kind);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return LoadStatus::Miss;
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof()) {
    Error = "cannot read '" + Path + "'";
    return LoadStatus::Rejected;
  }
  ArtifactFrame F;
  std::string Why;
  if (inspectFrame(Bytes, F, Why) != FrameVerdict::Ok) {
    Error = "'" + Path + "' " + Why;
    return LoadStatus::Rejected;
  }
  if (F.RawKind != static_cast<uint32_t>(Kind)) {
    Error = "'" + Path + "' holds a different artifact kind at offset " +
            std::to_string(kOffKind) + ": stored " +
            artifactKindName(static_cast<ArtifactKind>(F.RawKind)) +
            ", expected " + artifactKindName(Kind);
    return LoadStatus::Rejected;
  }
  if (F.Root != Root) {
    Error = "'" + Path +
            "' is keyed to a different root function at offset " +
            std::to_string(kOffRoot) + ": stored " + tripleText(F.Root) +
            ", expected " + tripleText(Root);
    return LoadStatus::Rejected;
  }
  if (F.Fingerprint != Fingerprint) {
    Error = "'" + Path +
            "' was produced under a different enumerator configuration "
            "(fingerprint at offset " +
            std::to_string(kOffFingerprint) + ": stored " +
            hex64(F.Fingerprint) + ", expected " + hex64(Fingerprint) + ")";
    return LoadStatus::Rejected;
  }
  Payload.assign(Bytes.begin() + kFrameHeaderSize, Bytes.end());
  return LoadStatus::Hit;
}

bool ArtifactStore::saveResult(const HashTriple &Root, uint64_t Fingerprint,
                               const EnumerationResult &Res,
                               std::string &Error) const {
  ByteWriter W;
  encodeResult(W, Res);
  if (!writeArtifact(Root, ArtifactKind::Result, Fingerprint, W.bytes(),
                     Error))
    return false;
  removeCheckpoint(Root);
  removeQuarantine(Root);
  // A fresh result invalidates any equivalence record: the behavior
  // digests are indexed by the DAG's node ids.
  removeEquivalence(Root);
  return true;
}

bool ArtifactStore::saveCheckpoint(const HashTriple &Root,
                                   uint64_t Fingerprint,
                                   const EnumerationCheckpoint &C,
                                   std::string &Error) const {
  ByteWriter W;
  encodeCheckpoint(W, C);
  return writeArtifact(Root, ArtifactKind::Checkpoint, Fingerprint, W.bytes(),
                       Error);
}

LoadStatus ArtifactStore::loadResult(const HashTriple &Root,
                                     uint64_t Fingerprint,
                                     EnumerationResult &Res,
                                     std::string &Error) const {
  std::vector<uint8_t> Payload;
  LoadStatus S =
      readArtifact(Root, ArtifactKind::Result, Fingerprint, Payload, Error);
  if (S != LoadStatus::Hit)
    return S;
  ByteReader R(Payload);
  if (!decodeResult(R, Res) || !R.atEnd()) {
    Error = "'" + pathFor(Root, ArtifactKind::Result) +
            "' payload does not decode (file damaged)";
    return LoadStatus::Rejected;
  }
  return LoadStatus::Hit;
}

LoadStatus ArtifactStore::loadCheckpoint(const HashTriple &Root,
                                         uint64_t Fingerprint,
                                         EnumerationCheckpoint &C,
                                         std::string &Error) const {
  std::vector<uint8_t> Payload;
  LoadStatus S = readArtifact(Root, ArtifactKind::Checkpoint, Fingerprint,
                              Payload, Error);
  if (S != LoadStatus::Hit)
    return S;
  ByteReader R(Payload);
  if (!decodeCheckpoint(R, C) || !R.atEnd() || !C.Valid) {
    Error = "'" + pathFor(Root, ArtifactKind::Checkpoint) +
            "' payload does not decode (file damaged)";
    return LoadStatus::Rejected;
  }
  return LoadStatus::Hit;
}

void ArtifactStore::removeCheckpoint(const HashTriple &Root) const {
  Io->remove(pathFor(Root, ArtifactKind::Checkpoint));
}

bool ArtifactStore::saveQuarantine(const HashTriple &Root,
                                   uint64_t Fingerprint,
                                   const QuarantineRecord &Q,
                                   std::string &Error) const {
  ByteWriter W;
  encodeQuarantine(W, Q);
  return writeArtifact(Root, ArtifactKind::Quarantine, Fingerprint, W.bytes(),
                       Error);
}

LoadStatus ArtifactStore::loadQuarantine(const HashTriple &Root,
                                         uint64_t Fingerprint,
                                         QuarantineRecord &Q,
                                         std::string &Error) const {
  std::vector<uint8_t> Payload;
  LoadStatus S = readArtifact(Root, ArtifactKind::Quarantine, Fingerprint,
                              Payload, Error);
  if (S != LoadStatus::Hit)
    return S;
  ByteReader R(Payload);
  if (!decodeQuarantine(R, Q) || !R.atEnd()) {
    Error = "'" + pathFor(Root, ArtifactKind::Quarantine) +
            "' payload does not decode (file damaged)";
    return LoadStatus::Rejected;
  }
  return LoadStatus::Hit;
}

void ArtifactStore::removeQuarantine(const HashTriple &Root) const {
  Io->remove(pathFor(Root, ArtifactKind::Quarantine));
}

bool ArtifactStore::saveEquivalence(const HashTriple &Root,
                                    uint64_t Fingerprint,
                                    const sem::EquivRecord &E,
                                    std::string &Error) const {
  ByteWriter W;
  encodeEquivalence(W, E);
  return writeArtifact(Root, ArtifactKind::Equivalence, Fingerprint,
                       W.bytes(), Error);
}

LoadStatus ArtifactStore::loadEquivalence(const HashTriple &Root,
                                          uint64_t Fingerprint,
                                          sem::EquivRecord &E,
                                          std::string &Error) const {
  std::vector<uint8_t> Payload;
  LoadStatus S = readArtifact(Root, ArtifactKind::Equivalence, Fingerprint,
                              Payload, Error);
  if (S != LoadStatus::Hit)
    return S;
  ByteReader R(Payload);
  if (!decodeEquivalence(R, E) || !R.atEnd()) {
    Error = "'" + pathFor(Root, ArtifactKind::Equivalence) +
            "' payload does not decode (file damaged)";
    return LoadStatus::Rejected;
  }
  return LoadStatus::Hit;
}

void ArtifactStore::removeEquivalence(const HashTriple &Root) const {
  Io->remove(pathFor(Root, ArtifactKind::Equivalence));
}

} // namespace store
} // namespace pose
