//===- Protocol.h - posed wire protocol --------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed request/response protocol spoken over the posed
/// Unix-domain socket, in the same framing discipline as the store's
/// artifacts: a fixed magic, explicit payload length, and CRC32 over
/// both header and payload, so a truncated or damaged frame is detected
/// before a single payload byte is trusted. Each payload's
/// format is one io() field list (Protocol.cpp) over the store's
/// bounds-checked little-endian ByteWriter/ByteReader — a malicious
/// length can fail a decode, never allocate unbounded memory.
///
/// One frame carries one message. Requests: Ping (liveness), Run (a
/// posec command line to execute), Stats (scheduler counters), Shutdown
/// (begin a graceful drain), Reload (swap in the operator-staged store
/// after it passes fsck). Responses: Pong, RunResult (exit code +
/// captured stdout/stderr + how it was served), StatsReport, and Error
/// (a per-request or per-connection protocol failure). The full frame
/// layout and semantics are documented in docs/SERVICE.md.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SERVE_PROTOCOL_H
#define POSE_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace pose {
namespace serve {

/// First 8 bytes of every frame.
constexpr char kMagic[8] = {'P', 'O', 'S', 'E', 'S', 'R', 'V', '1'};

/// Fixed frame header size: magic(8) + kind(4) + payload size(4) +
/// payload CRC32(4) + header CRC32(4).
constexpr size_t kHeaderSize = 24;

/// Hard cap on a request payload accepted by the daemon. A Run request
/// is a command line — kilobytes, not megabytes; anything bigger is a
/// protocol violation or an attack, and is rejected before allocation.
constexpr size_t kMaxRequestPayload = 1u << 20;

/// Hard cap on a response payload accepted by a client (a response
/// carries a posec run's full stdout/stderr).
constexpr size_t kMaxResponsePayload = 64u << 20;

/// Caps on one Run request's argument vector.
constexpr size_t kMaxRunArgs = 64;
constexpr size_t kMaxArgLen = 4096;

/// Message kinds. Requests are < 64, responses >= 64, so a peer can
/// reject a frame traveling in the wrong direction.
enum class MsgKind : uint32_t {
  Ping = 1,     ///< Liveness probe; answered with Pong.
  Run = 2,      ///< Execute a posec command line; answered with
                ///< RunResult or Error.
  Stats = 3,    ///< Scheduler counters; answered with StatsReport.
  Shutdown = 4, ///< Begin a graceful drain; answered with Pong.
  Reload = 5,   ///< Swap in the operator-staged store after it passes
                ///< fsck; answered with Pong, or Error(ReloadRejected)
                ///< when the candidate is unfit. The frame carries no
                ///< path: clients cannot redirect the daemon's store.

  Pong = 65,        ///< Answer to Ping, Shutdown, and Reload.
  RunResult = 66,   ///< A completed Run request.
  StatsReport = 67, ///< Answer to Stats.
  Error = 68,       ///< A failed request or a protocol diagnostic.
};

/// True for kinds a client may send to the daemon.
inline bool isRequestKind(MsgKind K) {
  return K == MsgKind::Ping || K == MsgKind::Run || K == MsgKind::Stats ||
         K == MsgKind::Shutdown || K == MsgKind::Reload;
}

/// How a RunResult was produced.
enum class ServedFrom : uint32_t {
  Computed = 0,  ///< This request triggered the posec child.
  Coalesced = 1, ///< Attached to an identical in-flight computation.
  Cached = 2,    ///< Served from the completed-response cache.
};

/// Short lower-case name ("computed", "coalesced", "cached").
const char *servedFromName(ServedFrom S);

/// Why a request (or connection) was refused.
enum class ErrorCode : uint32_t {
  BadFrame = 1,     ///< Bad magic/CRC/length; the connection is dropped
                    ///< after this diagnostic is flushed.
  BadRequest = 2,   ///< The frame was intact but its payload did not
                    ///< decode, or the argument vector broke a cap.
  DeniedArg = 3,    ///< The command line used a flag the daemon refuses
                    ///< to serve (store/supervisor/fault plumbing, or a
                    ///< file write at a client-chosen path).
  Overloaded = 4,   ///< The per-client in-flight budget is exhausted;
                    ///< retry after a completion.
  ShuttingDown = 5, ///< The daemon is draining and admits no new work.
  WorkerFailed = 6, ///< The posec child died abnormally (signal, spawn
                    ///< failure, harness error) instead of exiting.
  Deadline = 7,     ///< The request exceeded its admission deadline
                    ///< before or while running.
  ReloadRejected = 8, ///< A Reload was refused: no staging store is
                      ///< configured, or the candidate failed fsck. The
                      ///< daemon keeps serving from the current store.
};

/// Short lower-case name ("bad-frame", "denied-arg", ...).
const char *errorCodeName(ErrorCode C);

/// A Run request: execute posec with these arguments.
struct RunRequest {
  uint64_t Id = 0; ///< Client-chosen; echoed in the response.
  std::vector<std::string> Args;
};

/// A completed Run.
struct RunResponse {
  uint64_t Id = 0;
  ServedFrom Served = ServedFrom::Computed;
  int32_t ExitCode = 0;
  std::string Stdout;
  std::string Stderr;
};

/// A refused or failed request. Id is 0 for connection-level
/// diagnostics (e.g. BadFrame) that answer no particular request.
struct ErrorResponse {
  uint64_t Id = 0;
  ErrorCode Code = ErrorCode::BadRequest;
  std::string Message;
  /// For Overloaded shed by the global queue cap: how long the client
  /// should wait before resending. 0 = no hint (retry after the next
  /// completion, per-client budget case).
  uint32_t RetryAfterMs = 0;
};

/// Version of the StatsReport payload. The counter set grows with the
/// daemon; an explicit leading version lets an old client fail with
/// "unsupported version" instead of misreading shifted fields. Bumped
/// to 2 when the self-healing counters (shed, read-timeouts, restarts,
/// reloads, reloads-rejected, sock-faults) were appended.
constexpr uint32_t kStatsVersion = 2;

/// Scheduler counters, for operators and for tests asserting dedup.
struct StatsReport {
  uint64_t Requests = 0;  ///< Run requests admitted.
  uint64_t Computed = 0;  ///< posec children spawned.
  uint64_t Coalesced = 0; ///< Requests attached to an in-flight twin.
  uint64_t CacheHits = 0; ///< Requests served from the response cache.
  uint64_t Errors = 0;    ///< Error responses sent.
  uint64_t Clients = 0;   ///< Connections currently open.
  uint64_t Running = 0;   ///< posec children currently live.
  uint64_t Queued = 0;    ///< Admitted requests waiting for a slot.
  uint64_t Shed = 0;      ///< Run requests refused by the global queue
                          ///< cap (Overloaded with a retry-after hint).
  uint64_t ReadTimeouts = 0; ///< Connections dropped by the read
                             ///< deadline (stalled or idle peers).
  uint64_t Restarts = 0;  ///< Watchdog restarts behind this daemon (0
                          ///< when not supervised or never crashed).
  uint64_t Reloads = 0;   ///< Store reloads accepted (fsck passed).
  uint64_t ReloadsRejected = 0; ///< Store reloads refused.
  uint64_t SockFaults = 0; ///< Injected --fault-sock operations fired.
};

/// Builds one complete frame (header + payload) around \p Payload.
std::vector<uint8_t> encodeFrame(MsgKind Kind,
                                 const std::vector<uint8_t> &Payload);

/// Payload-free frames.
std::vector<uint8_t> encodePing();
std::vector<uint8_t> encodePong();
std::vector<uint8_t> encodeShutdown();
std::vector<uint8_t> encodeStatsRequest();
std::vector<uint8_t> encodeReload();

/// Payload-carrying frames and their decoders. Every decoder returns
/// false (with \p Why set) on any overrun, cap violation, or trailing
/// garbage.
std::vector<uint8_t> encodeRunRequest(const RunRequest &R);
bool decodeRunRequest(const std::vector<uint8_t> &Payload, RunRequest &R,
                      std::string &Why);

std::vector<uint8_t> encodeRunResponse(const RunResponse &R);
bool decodeRunResponse(const std::vector<uint8_t> &Payload, RunResponse &R,
                       std::string &Why);

std::vector<uint8_t> encodeErrorResponse(const ErrorResponse &E);
bool decodeErrorResponse(const std::vector<uint8_t> &Payload,
                         ErrorResponse &E, std::string &Why);

std::vector<uint8_t> encodeStatsReport(const StatsReport &S);
bool decodeStatsReport(const std::vector<uint8_t> &Payload, StatsReport &S,
                       std::string &Why);

/// Incremental frame parser over a byte stream. feed() whatever arrived;
/// next() yields complete verified frames until the buffer runs dry
/// (NeedMore) or the stream is provably broken (Malformed — the caller
/// should drop the connection; there is no way to resynchronize a
/// length-prefixed stream after a bad header).
class FrameReader {
public:
  /// \p MaxPayload bounds the payload length this side will buffer
  /// (kMaxRequestPayload in the daemon, kMaxResponsePayload in clients).
  explicit FrameReader(size_t MaxPayload) : MaxPayload(MaxPayload) {}

  void feed(const uint8_t *Data, size_t N);

  enum class Status { NeedMore, Frame, Malformed };

  /// On Frame, \p Kind and \p Payload hold the decoded message; on
  /// Malformed, \p Why names the first violated invariant.
  Status next(MsgKind &Kind, std::vector<uint8_t> &Payload,
              std::string &Why);

  /// Bytes buffered but not yet consumed (diagnostics/tests).
  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  size_t MaxPayload;
  bool Broken = false;
};

} // namespace serve
} // namespace pose

#endif // POSE_SERVE_PROTOCOL_H
