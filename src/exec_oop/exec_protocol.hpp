// Wire + segment protocol shared by the fuzzer-side fork-server client
// (fork_server.hpp / oop_executor.hpp) and the target-side server loop
// (server_loop.hpp, run by the shim and by libicsfuzz-preload.so).
//
// Segment layout (one ShmSegment of kSegmentBytesV2):
//
//   [0, kMapSize)                  fork-per-exec coverage map
//                                  (cov::kMapSize bytes), written by the
//                                  instrumented child into the mapping
//   [kAuxOffset, kSegmentBytes)    fork-per-exec aux result block, written
//                                  by the child just before _exit
//   [kSlotsOffset, kCtlBlockOffset) kNumSlots persistent slots, each its
//                                  own map, aux block and test-case buffer
//   [kCtlBlockOffset, +64)         the persistent iteration's control block
//
// The aux block ships the observables a pipe could lose if the child died
// mid-write: the instrumentation event count (the deterministic hang
// budget), the soft-sanitizer fault reports, and the response bytes. The
// child stores the completion magic LAST (release fence); the parent reads
// it only after waitpid() has reaped the child, so a set magic implies a
// fully written block and a missing magic means the child never finished
// (killed, crashed, hung).
//
// Pipe protocol (classic AFL two-pipe handshake, enriched; this is
// protocol version kProtocolVersion):
//
//   spawn:    the server dup2s the control pipe onto fd kCtlFd and the
//             status pipe onto fd kStFd, then writes the hello on kStFd:
//             [u32 kHelloMagicV2][u32 caps], where caps advertises optional
//             features (kCapPersistent). Any other hello fails the
//             handshake.
//   per exec: request [u32 timeout_ms][u32 control][u32 packet_len]
//             [packet], where control == 0 forks one child for the packet
//             (fork-per-exec) and a persistent control word
//             (encode_control) routes the execution into the persistent
//             child over a shm test-case slot (packet_len is then 0 — the
//             packet travels through the segment, not the pipe).
//             The server runs the execution (fork per exec, or one
//             iteration of the persistent child's loop), SIGKILLing the
//             child when its timeout_ms interval timer fires first — the
//             server owns the pid, so the kill can never hit a recycled
//             pid — then replies on kStFd:
//             reply [i32 wstatus][u32 flags][u32 iteration], flags
//             carrying timed-out / ran-persistent / recycled (+ the
//             recycle reason), iteration saying which "N of K" of the
//             serving child this execution was.
//             The executor's own read deadline (timeout_ms plus a grace
//             margin) only guards against the server itself wedging,
//             which is reported as server-lost, not as a hang.
//   shutdown: executor closes the control pipe; the server's request read
//             sees EOF, reaps any stopped persistent child and exits
//             cleanly (exit 0 — an *orderly* shutdown the client tells
//             apart from a lost server).
//
// Persistent mode (kCapPersistent): the server forks one long-lived child
// that loops up to K executions (the request's budget). Between
// iterations the child raises SIGSTOP (AFL deferred/persistent-mode
// convention); the server observes the stop with a stop-reporting
// waitpid, which is the "iteration complete" signal, and SIGCONTs it when
// the next request arrives. The child _exit(0)s at iteration K (budget exhaustion) and the
// server re-forks on the next request — likewise after a crash or a
// deadline kill, so one bad execution never poisons the loop. Each
// iteration's observables land in that request's shm *slot* (its own map,
// aux block and test-case buffer), so the client can pipeline up to
// kNumSlots requests into the pipe without a round-trip stall per exec
// and adopt each slot's results as the in-order replies drain. A server
// that did not advertise the capability refuses a persistent request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/instrument.hpp"
#include "sanitizer/fault.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

/// Fixed descriptors the server inherits (AFL uses 198/199 for the same
/// purpose; keeping the convention makes the protocol self-describing).
inline constexpr int kCtlFd = 198;
inline constexpr int kStFd = 199;

/// The protocol this header describes (reported by icsfuzz-inject-check).
inline constexpr int kProtocolVersion = 2;

/// Hello magic ("ICS2"): followed by a u32 capability word.
inline constexpr std::uint32_t kHelloMagicV2 = 0x49435332;

/// Capability bits in the hello.
inline constexpr std::uint32_t kCapPersistent = 1u << 0;

/// TCP session-server hello magic ("ICST"), written by a shim started in
/// `--tcp` mode (session/tcp_server.hpp) instead of the fork-server hello
/// above, followed by [u32 port | caps]: the loopback port the session
/// server accepts connections on in the low 16 bits, capability bits in the
/// high 16. The segment then carries one extra sync block after the
/// fork-per-exec region (session/session_wire.hpp documents the geometry); session bytes
/// travel over the socket, never over the control pipe.
inline constexpr std::uint32_t kTcpHelloMagic = 0x49435354;

/// TCP hello capability: the server accepts ONE connection for its whole
/// lifetime and delimits sessions by a [u32 stream_len] header the client
/// writes on the control pipe before each session's bytes (EOF in place of
/// a header is the orderly shutdown). Without it, every session is its own
/// connection, ended by the client's half-close, and the control pipe's
/// only job is EOF-triggered shutdown.
inline constexpr std::uint32_t kTcpCapKeepConnection = 1u << 16;

/// Aux-block completion magic ("OOP!"), stored last by the child.
inline constexpr std::uint32_t kAuxCompleteMagic = 0x4F4F5021;

/// Fork-per-exec region: the coverage map followed by the aux result block.
inline constexpr std::size_t kAuxOffset = cov::kMapSize;
inline constexpr std::size_t kAuxBytes = std::size_t{1} << 16;
inline constexpr std::size_t kSegmentBytes = kAuxOffset + kAuxBytes;

/// Persistent slot region, appended after the fork-per-exec region:
/// kNumSlots independent execution slots, each with its own coverage map,
/// aux block and test-case buffer, so up to kNumSlots persistent-mode
/// requests can be in flight (pipelined into the pipe) with no shared
/// mutable state between them.
inline constexpr std::uint32_t kNumSlots = 4;
inline constexpr std::size_t kSlotAuxOffset = cov::kMapSize;
inline constexpr std::size_t kSlotTestCaseOffset = kSlotAuxOffset + kAuxBytes;
inline constexpr std::size_t kSlotTestCaseBytes = std::size_t{1} << 16;
inline constexpr std::size_t kSlotBytes =
    kSlotTestCaseOffset + kSlotTestCaseBytes;
inline constexpr std::size_t kSlotsOffset = kSegmentBytes;

/// Per-iteration control block the server writes before waking (or forking)
/// the persistent child: which slot this iteration serves, the loop budget
/// K, and the campaign-global execution index (fault-injection hooks key
/// off it, mirroring the fork-per-exec plan semantics).
inline constexpr std::size_t kCtlBlockOffset =
    kSlotsOffset + std::size_t{kNumSlots} * kSlotBytes;
inline constexpr std::size_t kCtlBlockBytes = 64;

/// Full segment size: the client creates this much, and a fork server
/// refuses to attach less.
inline constexpr std::size_t kSegmentBytesV2 = kCtlBlockOffset + kCtlBlockBytes;

/// Byte offset of persistent slot `slot` inside the segment.
[[nodiscard]] constexpr std::size_t slot_offset(std::uint32_t slot) {
  return kSlotsOffset + std::size_t{slot} * kSlotBytes;
}

// -- Request control word. -------------------------------------------------
//
// 0 = fork-per-exec (packet on the pipe, results in the fork-per-exec
// region). Otherwise: bits [0,4) the slot index, bit 4 the persistent
// marker, bits [8,32) the iteration budget K.
inline constexpr std::uint32_t kCtlPersistent = 1u << 4;
inline constexpr std::uint32_t kCtlSlotMask = 0xF;
inline constexpr std::uint32_t kCtlBudgetShift = 8;

[[nodiscard]] constexpr std::uint32_t encode_control(std::uint32_t slot,
                                                     std::uint32_t budget) {
  return kCtlPersistent | (slot & kCtlSlotMask) |
         (budget << kCtlBudgetShift);
}
[[nodiscard]] constexpr std::uint32_t control_slot(std::uint32_t control) {
  return control & kCtlSlotMask;
}
[[nodiscard]] constexpr std::uint32_t control_budget(std::uint32_t control) {
  return control >> kCtlBudgetShift;
}

// -- Reply flags. ----------------------------------------------------------
inline constexpr std::uint32_t kReplyTimedOut = 1u << 0;
/// The execution ran inside the persistent child (not a fresh fork).
inline constexpr std::uint32_t kReplyPersistent = 1u << 1;
/// The serving child is gone after this execution; the next request
/// re-forks. The recycle *reason* sits in bits [8,16).
inline constexpr std::uint32_t kReplyChildRecycled = 1u << 2;
inline constexpr std::uint32_t kReplyRecycleShift = 8;
enum class RecycleReason : std::uint8_t {
  kNone = 0,
  kBudget,  ///< orderly _exit(0) at iteration K
  kCrash,   ///< signal / abnormal exit mid-iteration
  kHang,    ///< deadline SIGKILL
};
[[nodiscard]] constexpr std::uint32_t encode_recycle(RecycleReason reason) {
  return kReplyChildRecycled |
         (static_cast<std::uint32_t>(reason) << kReplyRecycleShift);
}
[[nodiscard]] constexpr RecycleReason reply_recycle_reason(
    std::uint32_t flags) {
  return static_cast<RecycleReason>((flags >> kReplyRecycleShift) & 0xFF);
}

/// The per-iteration control block (kCtlBlockOffset).
struct CtlBlock {
  std::uint32_t slot = 0;
  std::uint32_t budget = 0;
  std::uint64_t exec_index = 0;
};

/// Publishes `ctl` into the segment (server side, before fork/SIGCONT) /
/// reads it back (child side, after resuming). The kernel round trip of
/// the wakeup orders the accesses; the fences make the pairing explicit.
void ctl_store(std::uint8_t* segment, const CtlBlock& ctl);
CtlBlock ctl_load(const std::uint8_t* segment);

/// Writes `packet` into slot `slot`'s test-case buffer as [u32 len][bytes]
/// (client side). False when the packet exceeds the buffer — the caller
/// must fall back to a fork-per-exec request over the pipe.
bool slot_store_packet(std::uint8_t* segment, std::uint32_t slot,
                       ByteSpan packet);

/// The packet span stored in slot `slot` (persistent-child side).
ByteSpan slot_load_packet(const std::uint8_t* segment, std::uint32_t slot);

/// Environment variables carrying the segment to the exec'd server.
inline constexpr const char* kShmNameEnv = "ICSFUZZ_OOP_SHM";
inline constexpr const char* kShmSizeEnv = "ICSFUZZ_OOP_SHM_SIZE";

/// What one out-of-process execution reported back through the aux block.
struct AuxResult {
  std::uint64_t events = 0;
  std::vector<san::FaultReport> faults;
  Bytes response;
  /// The response did not fit the aux block and was truncated (the map and
  /// every other observable are still exact).
  bool response_truncated = false;
  /// Whole fault reports were dropped (or a detail string clamped) because
  /// the aux block filled — the shipped fault list is incomplete. The
  /// executor surfaces this as a synthetic fault so crash accounting never
  /// silently under-reports.
  bool faults_truncated = false;
};

/// Serializes `result` into the aux block (child side; `aux` points at
/// kAuxOffset, `aux_size` bytes available). Stores the completion magic
/// last, behind a release fence.
void aux_store(std::uint8_t* aux, std::size_t aux_size,
               const AuxResult& result);

/// Reads the aux block (parent side, after waitpid). Returns false when the
/// completion magic is absent — the child never finished its execution.
bool aux_load(const std::uint8_t* aux, std::size_t aux_size, AuxResult& out);

// -- Pipe plumbing (EINTR-safe, deadline-aware). ---------------------------

/// Writes exactly `size` bytes; false on error/EPIPE (server gone).
bool write_full(int fd, const void* data, std::size_t size);

/// Sets SIGPIPE to ignored, once per process, so a dead server surfaces as
/// EPIPE on the client's next pipe write instead of killing the fuzzer —
/// the same disposition AFL-style frontends set up.
void ignore_sigpipe_once();

/// Reads exactly `size` bytes; false on error or EOF.
bool read_full(int fd, void* data, std::size_t size);

/// Deadline-aware exact read. Returns kOk, kTimeout (deadline expired with
/// the read incomplete) or kClosed (error/EOF). A negative `timeout_ms`
/// waits indefinitely (no deadline).
enum class ReadStatus : std::uint8_t { kOk, kTimeout, kClosed };
ReadStatus read_full_deadline(int fd, void* data, std::size_t size,
                              int timeout_ms);

/// Deadline-aware exact write for a non-blocking descriptor: polls for
/// writability, so a wedged peer that stops draining the pipe surfaces as
/// kTimeout instead of blocking the caller forever (a full-buffer write to
/// a stopped reader otherwise blocks with no deadline at all). Negative
/// `timeout_ms` waits indefinitely; kClosed covers EPIPE/errors.
ReadStatus write_full_deadline(int fd, const void* data, std::size_t size,
                               int timeout_ms);

// -- Requests and replies: each crosses its pipe in ONE write, so the peer
// wakes once per message instead of once per field. The bytes are exactly
// the formats described at the top of this file.

/// One request header.
struct Request {
  std::uint32_t timeout_ms = 0;
  std::uint32_t control = 0;
  std::uint32_t length = 0;  ///< bytes of packet that follow
};

/// Client side: sends the header for `packet` followed by the packet,
/// gathered into one writev on the non-blocking request pipe.
ReadStatus write_request(int fd, std::uint32_t timeout_ms,
                         std::uint32_t control, ByteSpan packet,
                         int io_timeout_ms);

/// Server side: reads one request header; false on EOF or error.
bool read_request(int fd, Request& request);

/// One reply.
struct Reply {
  std::int32_t wstatus = 0;
  std::uint32_t flags = 0;
  std::uint32_t iteration = 0;
};

/// Server side: sends `reply` with one write.
bool write_reply(int fd, const Reply& reply);

/// Client side: reads one whole reply; status as read_full_deadline.
ReadStatus read_reply(int fd, Reply& reply, int timeout_ms);

}  // namespace icsfuzz::oop
