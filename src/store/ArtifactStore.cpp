//===- ArtifactStore.cpp - Persistent enumeration artifact store ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/ArtifactStore.h"

#include "src/store/ByteIo.h"
#include "src/store/Serialize.h"
#include "src/support/Crc32.h"
#include "src/support/Fnv.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

/// Everything checkArtifact verifies except the payload decode: the file
/// reads, its frame is intact, and its header names \p Kind and \p Root.
/// The header's fingerprint goes to \p Fingerprint.
FrameVerdict readFrame(const std::string &Path, const HashTriple &Root,
                       ArtifactKind Kind, std::vector<uint8_t> &Bytes,
                       uint64_t &Fingerprint, std::string &Error) {
  if (!readFileBytes(Path, Bytes)) {
    Error = "cannot be read";
    return FrameVerdict::Missing;
  }
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
  const uint32_t Version = R.u32();
  if (Version != kFormatVersion) {
    Error = "has format version " + std::to_string(Version) +
            " (at offset " + std::to_string(kOffVersion) +
            "), this build reads version " + std::to_string(kFormatVersion);
    return FrameVerdict::Corrupt;
  }
  const uint32_t RawKind = R.u32();
  HashTriple Stored;
  Stored.InstCount = R.u32();
  Stored.ByteSum = R.u32();
  Stored.Crc = R.u32();
  Fingerprint = R.u64();
  const uint64_t PayloadSize = R.u64();
  const uint32_t PayloadCrc = R.u32();
  const uint32_t HeaderCrc = R.u32();
  const uint32_t ComputedHeaderCrc = crc32(Bytes.data(), kOffHeaderCrc);
  if (HeaderCrc != ComputedHeaderCrc) {
    Error = "header checksum mismatch at offset " +
            std::to_string(kOffHeaderCrc) + ": stored " + hex32(HeaderCrc) +
            ", computed " + hex32(ComputedHeaderCrc);
    return FrameVerdict::Corrupt;
  }
  const uint64_t Held = Bytes.size() - kFrameHeaderSize;
  if (PayloadSize != Held) {
    Error = "payload length mismatch at offset " +
            std::to_string(kOffPayloadSize) + ": header promises " +
            std::to_string(PayloadSize) + " payload bytes, file holds " +
            std::to_string(Held);
    return Held < PayloadSize ? FrameVerdict::Truncated
                              : FrameVerdict::Corrupt;
  }
  const uint32_t ComputedPayloadCrc =
      crc32(Bytes.data() + kFrameHeaderSize, Held);
  if (PayloadCrc != ComputedPayloadCrc) {
    Error = "payload checksum mismatch at offset " +
            std::to_string(kOffPayloadCrc) + ": stored " + hex32(PayloadCrc) +
            ", computed " + hex32(ComputedPayloadCrc);
    return FrameVerdict::Corrupt;
  }
  // The kind and key live in the file name too; a mismatch means the file
  // was renamed or copied over another key's path, and a lookup for the
  // named key would decode the wrong artifact.
  if (RawKind != static_cast<uint32_t>(Kind)) {
    Error = "holds a different artifact kind at offset " +
            std::to_string(kOffKind) + ": stored " +
            artifactKindName(static_cast<ArtifactKind>(RawKind)) + " (" +
            std::to_string(RawKind) + "), expected " +
            artifactKindName(Kind);
    return FrameVerdict::Corrupt;
  }
  if (Stored != Root) {
    Error = "is keyed to a different root function at offset " +
            std::to_string(kOffRoot) + ": stored " + tripleText(Stored) +
            ", expected " + tripleText(Root);
    return FrameVerdict::Corrupt;
  }
  return FrameVerdict::Ok;
}

/// The validity rule of every artifact kind: the payload of \p File
/// decodes completely as T, under T's codec rules.
template <class T> bool decodePayload(const std::vector<uint8_t> &File, T &X) {
  ByteReader R(File.data() + kFrameHeaderSize,
               File.size() - kFrameHeaderSize);
  return decode(R, X) && R.atEnd();
}

/// decodePayload as the type \p Kind stores.
bool payloadDecodes(ArtifactKind Kind, const std::vector<uint8_t> &File) {
  auto As = [&File](auto X) { return decodePayload(File, X); };
  switch (Kind) {
  case ArtifactKind::Result:
    return As(EnumerationResult());
  case ArtifactKind::Quarantine:
    return As(QuarantineRecord());
  case ArtifactKind::Equivalence:
    return As(sem::EquivRecord());
  }
  return false;
}

// The payload CRC already matched, so the bytes are what the writer
// wrote: the writer and this reader disagree about the encoding itself.
constexpr const char *kUndecodable =
    "payload passes its checksum but does not decode";

} // namespace

const char *artifactKindName(ArtifactKind K) {
  switch (K) {
  case ArtifactKind::Result:
    return "result";
  case ArtifactKind::Quarantine:
    return "quarantine";
  case ArtifactKind::Equivalence:
    return "equiv";
  }
  return "?";
}

uint64_t configFingerprint(const EnumeratorConfig &Config) {
  Fnv1a H;
  H.word(Config.MaxLevelSequences);
  H.word(Config.MaxTotalNodes);
  H.word(Config.RemapRegisters);
  H.word(Config.VerifyIr);
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
      H.word(static_cast<uint64_t>(F.Phase));
      H.word(F.Application);
      H.word(static_cast<uint64_t>(F.Kind));
    }
  return H.value();
}

uint64_t equivFingerprint(uint64_t ConfigFp, uint64_t VectorSeed,
                          uint64_t VectorCount) {
  return Fnv1a(ConfigFp).word(VectorSeed).word(VectorCount).value();
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
  return (fs::path(Dir) /
          (tripleText(Root) + "." + artifactKindName(Kind) + ".pose"))
      .string();
}

std::vector<std::string> ArtifactStore::reclaimTmp() const {
  std::vector<std::string> Removed;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Removed;
  struct Closer {
    DIR *D;
    ~Closer() { ::closedir(D); }
  } Close{D};
  constexpr std::string_view Suffix = ".pose.tmp";
  while (const dirent *E = ::readdir(D)) {
    // The name first: it rules out almost every entry without building a
    // path or asking the file system.
    const std::string_view Name = E->d_name;
    if (Name.size() <= Suffix.size() || !Name.ends_with(Suffix))
      continue;
    // Regular files only, following a symbolic link; stat only where the
    // entry's type does not settle it.
    bool Regular = E->d_type == DT_REG;
    if (E->d_type == DT_UNKNOWN || E->d_type == DT_LNK) {
      struct stat St;
      Regular = ::fstatat(::dirfd(D), E->d_name, &St, 0) == 0 &&
                S_ISREG(St.st_mode);
    }
    if (!Regular)
      continue;
    std::string Path = (fs::path(Dir) / Name).string();
    if (Io->remove(Path))
      Removed.push_back(std::move(Path));
  }
  std::sort(Removed.begin(), Removed.end());
  return Removed;
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Bytes) {
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct Closer {
    int Fd;
    ~Closer() { ::close(Fd); }
  } Close{Fd};
  // One buffer sized from fstat, then read to EOF: a file that grew since,
  // or one that reports st_size 0 (procfs), is still read whole. A
  // directory opens but fails its first read with EISDIR.
  struct stat St;
  const size_t Expected = ::fstat(Fd, &St) == 0 && St.st_size > 0
                              ? static_cast<size_t>(St.st_size)
                              : 0;
  Bytes.resize(Expected + 1); // The spare byte lets one read see EOF.
  size_t Len = 0;
  for (;;) {
    if (Len == Bytes.size())
      Bytes.resize(2 * Len);
    const ssize_t N = ::read(Fd, Bytes.data() + Len, Bytes.size() - Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Bytes.resize(Len);
      return N == 0;
    }
    Len += static_cast<size_t>(N);
  }
}

FrameVerdict checkArtifact(const std::string &Path, const HashTriple &Root,
                           ArtifactKind Kind, std::vector<uint8_t> &Bytes,
                           std::string &Error) {
  uint64_t Fingerprint = 0;
  const FrameVerdict V = readFrame(Path, Root, Kind, Bytes, Fingerprint, Error);
  if (V != FrameVerdict::Ok)
    return V;
  if (!payloadDecodes(Kind, Bytes)) {
    Error = kUndecodable;
    return FrameVerdict::Corrupt;
  }
  return FrameVerdict::Ok;
}

template <class T>
bool ArtifactStore::save(const HashTriple &Root, ArtifactKind Kind,
                         uint64_t Fingerprint, const T &X,
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
  ByteWriter Payload;
  encode(Payload, X);
  W.u64(Payload.bytes().size());
  W.u32(crc32(Payload.bytes()));
  W.u32(crc32(W.bytes())); // Header CRC over everything above.
  std::vector<uint8_t> File = W.take();
  File.insert(File.end(), Payload.bytes().begin(), Payload.bytes().end());

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

template <class T>
LoadStatus ArtifactStore::load(const HashTriple &Root, ArtifactKind Kind,
                               uint64_t Fingerprint, T &X,
                               std::string &Error) const {
  const std::string Path = pathFor(Root, Kind);
  std::vector<uint8_t> Bytes;
  uint64_t Stored = 0;
  std::string Why;
  const FrameVerdict V = readFrame(Path, Root, Kind, Bytes, Stored, Why);
  if (V == FrameVerdict::Missing)
    return LoadStatus::Miss;
  if (V == FrameVerdict::Ok) {
    if (Stored != Fingerprint)
      Why = "was produced under a different enumerator configuration "
            "(fingerprint at offset " +
            std::to_string(kOffFingerprint) + ": stored " + hex64(Stored) +
            ", expected " + hex64(Fingerprint) + ")";
    else if (!decodePayload(Bytes, X))
      Why = kUndecodable;
    else
      return LoadStatus::Hit;
  }
  Error = "'" + Path + "' " + Why;
  return LoadStatus::Rejected;
}

bool ArtifactStore::saveResult(const HashTriple &Root, uint64_t Fingerprint,
                               const EnumerationResult &Res,
                               std::string &Error) const {
  if (!save(Root, ArtifactKind::Result, Fingerprint, Res, Error))
    return false;
  // A job whose worker kept crashing may still leave partial progress;
  // only a final result settles it.
  if (!isResumableStop(Res.Stop))
    removeQuarantine(Root);
  // A fresh result invalidates any equivalence record: the behavior
  // digests are indexed by the DAG's node ids.
  removeEquivalence(Root);
  return true;
}

LoadStatus ArtifactStore::loadResult(const HashTriple &Root,
                                     uint64_t Fingerprint,
                                     EnumerationResult &Res,
                                     std::string &Error) const {
  return load(Root, ArtifactKind::Result, Fingerprint, Res, Error);
}

bool ArtifactStore::saveQuarantine(const HashTriple &Root,
                                   uint64_t Fingerprint,
                                   const QuarantineRecord &Q,
                                   std::string &Error) const {
  return save(Root, ArtifactKind::Quarantine, Fingerprint, Q, Error);
}

LoadStatus ArtifactStore::loadQuarantine(const HashTriple &Root,
                                         uint64_t Fingerprint,
                                         QuarantineRecord &Q,
                                         std::string &Error) const {
  return load(Root, ArtifactKind::Quarantine, Fingerprint, Q, Error);
}

void ArtifactStore::removeQuarantine(const HashTriple &Root) const {
  Io->remove(pathFor(Root, ArtifactKind::Quarantine));
}

bool ArtifactStore::saveEquivalence(const HashTriple &Root,
                                    uint64_t Fingerprint,
                                    const sem::EquivRecord &E,
                                    std::string &Error) const {
  return save(Root, ArtifactKind::Equivalence, Fingerprint, E, Error);
}

LoadStatus ArtifactStore::loadEquivalence(const HashTriple &Root,
                                          uint64_t Fingerprint,
                                          sem::EquivRecord &E,
                                          std::string &Error) const {
  return load(Root, ArtifactKind::Equivalence, Fingerprint, E, Error);
}

void ArtifactStore::removeEquivalence(const HashTriple &Root) const {
  Io->remove(pathFor(Root, ArtifactKind::Equivalence));
}

} // namespace store
} // namespace pose
