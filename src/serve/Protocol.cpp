//===- Protocol.cpp - posed wire protocol ---------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/serve/Protocol.h"

#include "src/store/ByteIo.h"
#include "src/support/Crc32.h"

#include <cstring>

using namespace pose;
using namespace pose::serve;

const char *pose::serve::servedFromName(ServedFrom S) {
  switch (S) {
  case ServedFrom::Computed:
    return "computed";
  case ServedFrom::Coalesced:
    return "coalesced";
  case ServedFrom::Cached:
    return "cached";
  }
  return "?";
}

const char *pose::serve::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::BadFrame:
    return "bad-frame";
  case ErrorCode::BadRequest:
    return "bad-request";
  case ErrorCode::DeniedArg:
    return "denied-arg";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::ShuttingDown:
    return "shutting-down";
  case ErrorCode::WorkerFailed:
    return "worker-failed";
  case ErrorCode::Deadline:
    return "deadline";
  case ErrorCode::ReloadRejected:
    return "reload-rejected";
  }
  return "?";
}

std::vector<uint8_t>
pose::serve::encodeFrame(MsgKind Kind, const std::vector<uint8_t> &Payload) {
  ByteWriter W;
  for (char C : kMagic)
    W.u8(static_cast<uint8_t>(C));
  W.u32(static_cast<uint32_t>(Kind));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(crc32(Payload.data(), Payload.size()));
  W.u32(crc32(W.bytes().data(), W.bytes().size())); // Header CRC.
  std::vector<uint8_t> Out = W.take();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

std::vector<uint8_t> pose::serve::encodePing() {
  return encodeFrame(MsgKind::Ping, {});
}
std::vector<uint8_t> pose::serve::encodePong() {
  return encodeFrame(MsgKind::Pong, {});
}
std::vector<uint8_t> pose::serve::encodeShutdown() {
  return encodeFrame(MsgKind::Shutdown, {});
}
std::vector<uint8_t> pose::serve::encodeStatsRequest() {
  return encodeFrame(MsgKind::Stats, {});
}
std::vector<uint8_t> pose::serve::encodeReload() {
  return encodeFrame(MsgKind::Reload, {});
}

namespace {

template <class Io> bool io(Io &S, RunRequest &R) {
  S.u64(R.Id);
  uint32_t N = static_cast<uint32_t>(R.Args.size());
  S.u32(N);
  S.check(N != 0 && N <= kMaxRunArgs, [&] {
    return "argument count " + std::to_string(N) + " outside 1.." +
           std::to_string(kMaxRunArgs);
  });
  S.items(R.Args, N, [&](std::string &A) {
    S.str(A);
    S.check(A.size() <= kMaxArgLen, [] {
      return "argument longer than " + std::to_string(kMaxArgLen) + " bytes";
    });
    // An embedded NUL would silently truncate at execv.
    S.check(A.find('\0') == std::string::npos,
            [] { return "argument contains a NUL byte"; });
  });
  return S.ok();
}

template <class Io> bool io(Io &S, RunResponse &R) {
  S.u64(R.Id);
  S.tag(R.Served, ServedFrom::Computed, ServedFrom::Cached,
        [] { return "unknown served-from value"; });
  S.i32(R.ExitCode);
  S.str(R.Stdout);
  S.str(R.Stderr);
  return S.ok();
}

template <class Io> bool io(Io &S, ErrorResponse &E) {
  S.u64(E.Id);
  S.tag(E.Code, ErrorCode::BadFrame, ErrorCode::ReloadRejected,
        [] { return "unknown error code"; });
  S.str(E.Message);
  S.u32(E.RetryAfterMs);
  return S.ok();
}

template <class Io> bool io(Io &S, StatsReport &R) {
  uint32_t Version = kStatsVersion;
  S.u32(Version);
  // An explicit refusal beats misreading shifted counters: a version-1
  // payload (or a future version-3 one) decodes to garbage, not to
  // plausibly-wrong numbers.
  S.check(Version == kStatsVersion, [&] {
    return "unsupported stats payload version " + std::to_string(Version) +
           " (this client speaks version " + std::to_string(kStatsVersion) +
           ")";
  });
  for (uint64_t *C :
       {&R.Requests, &R.Computed, &R.Coalesced, &R.CacheHits, &R.Errors,
        &R.Clients, &R.Running, &R.Queued, &R.Shed, &R.ReadTimeouts,
        &R.Restarts, &R.Reloads, &R.ReloadsRejected, &R.SockFaults})
    S.u64(*C);
  return S.ok();
}

template <class T>
std::vector<uint8_t> encodePayload(MsgKind Kind, const T &X) {
  ByteWriter W;
  io(W, const_cast<T &>(X));
  return encodeFrame(Kind, W.bytes());
}

/// Decodes all of \p Payload into \p X; \p Why names the first broken
/// rule, or says the \p What payload does not decode.
template <class T>
bool decodePayload(const std::vector<uint8_t> &Payload, T &X,
                   const char *What, std::string &Why) {
  ByteReader B(Payload);
  X = T();
  if (io(B, X) && B.atEnd())
    return true;
  Why = B.why().empty() ? std::string(What) + " payload does not decode"
                        : B.why();
  return false;
}

} // namespace

std::vector<uint8_t> pose::serve::encodeRunRequest(const RunRequest &R) {
  return encodePayload(MsgKind::Run, R);
}

bool pose::serve::decodeRunRequest(const std::vector<uint8_t> &Payload,
                                   RunRequest &R, std::string &Why) {
  return decodePayload(Payload, R, "run request", Why);
}

std::vector<uint8_t> pose::serve::encodeRunResponse(const RunResponse &R) {
  return encodePayload(MsgKind::RunResult, R);
}

bool pose::serve::decodeRunResponse(const std::vector<uint8_t> &Payload,
                                    RunResponse &R, std::string &Why) {
  return decodePayload(Payload, R, "run response", Why);
}

std::vector<uint8_t> pose::serve::encodeErrorResponse(const ErrorResponse &E) {
  return encodePayload(MsgKind::Error, E);
}

bool pose::serve::decodeErrorResponse(const std::vector<uint8_t> &Payload,
                                      ErrorResponse &E, std::string &Why) {
  return decodePayload(Payload, E, "error response", Why);
}

std::vector<uint8_t> pose::serve::encodeStatsReport(const StatsReport &S) {
  return encodePayload(MsgKind::StatsReport, S);
}

bool pose::serve::decodeStatsReport(const std::vector<uint8_t> &Payload,
                                    StatsReport &S, std::string &Why) {
  return decodePayload(Payload, S, "stats report", Why);
}

void FrameReader::feed(const uint8_t *Data, size_t N) {
  Buf.insert(Buf.end(), Data, Data + N);
}

FrameReader::Status FrameReader::next(MsgKind &Kind,
                                      std::vector<uint8_t> &Payload,
                                      std::string &Why) {
  if (Broken) {
    Why = "stream already malformed";
    return Status::Malformed;
  }
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  const size_t Avail = Buf.size() - Pos;
  if (Avail < kHeaderSize)
    return Status::NeedMore;

  const uint8_t *H = Buf.data() + Pos;
  if (std::memcmp(H, kMagic, sizeof(kMagic)) != 0) {
    Broken = true;
    Why = "bad frame magic";
    return Status::Malformed;
  }
  ByteReader B(H + sizeof(kMagic), kHeaderSize - sizeof(kMagic));
  const uint32_t RawKind = B.u32();
  const uint32_t Size = B.u32();
  const uint32_t PayloadCrc = B.u32();
  const uint32_t HeaderCrc = B.u32();
  if (crc32(H, kHeaderSize - 4) != HeaderCrc) {
    Broken = true;
    Why = "frame header CRC mismatch";
    return Status::Malformed;
  }
  if (Size > MaxPayload) {
    Broken = true;
    Why = "frame payload of " + std::to_string(Size) +
          " bytes exceeds the " + std::to_string(MaxPayload) + " byte cap";
    return Status::Malformed;
  }
  if (Avail < kHeaderSize + Size)
    return Status::NeedMore;
  Payload.assign(H + kHeaderSize, H + kHeaderSize + Size);
  if (crc32(Payload.data(), Payload.size()) != PayloadCrc) {
    Broken = true;
    Why = "frame payload CRC mismatch";
    return Status::Malformed;
  }
  Kind = static_cast<MsgKind>(RawKind);
  Pos += kHeaderSize + Size;
  return Status::Frame;
}
