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
//   [kSlotsOffset, kSyncBlockOffset) kNumSlots persistent slots, each its
//                                  own map, aux block and test-case buffer
//   [kSyncBlockOffset, +128)       the persistent handoff's sync block
//
// The aux block ships the observables a pipe could lose if the child died
// mid-write: the instrumentation event count (the deterministic hang
// budget), the soft-sanitizer fault reports, and the response bytes. The
// child stores the completion magic LAST (release fence); the parent reads
// it only after the child reported completion or was reaped, so a set
// magic implies a fully written block and a missing magic means the child
// never finished (killed, crashed, hung).
//
// Pipe protocol (classic AFL two-pipe handshake, enriched; this is
// protocol version kProtocolVersion):
//
//   spawn:    the server dup2s the control pipe onto fd kCtlFd and the
//             status pipe onto fd kStFd, then writes the hello on kStFd:
//             [u32 kHelloMagicV2][u32 caps], where caps advertises optional
//             features (kCapPersistent). Any other hello fails the
//             handshake.
//   request:  [u32 timeout_ms][u32 control][u32 packet_len][packet].
//             control == kCtlForkExec forks one child for the packet,
//             SIGKILLing it when its timeout_ms interval timer fires first
//             — the server owns the pid, so the kill can never hit a
//             recycled pid — and replies on kStFd with
//             [i32 wstatus][u32 flags] (flags: kReplyTimedOut). The
//             client numbers the executions of both kinds and stamps a
//             fork-per-exec request's index into the sync block first.
//             kCtlStart and kCtlKill drive the persistent child (below);
//             their packet_len is 0.
//             The executor's own read deadline (timeout_ms plus a grace
//             margin) only guards against the server itself wedging,
//             which is reported as server-lost, not as a hang.
//   shutdown: executor closes the control pipe; the server's request read
//             sees EOF, kills any persistent child and exits cleanly
//             (exit 0 — an *orderly* shutdown the client tells apart from
//             a lost server).
//
// Persistent mode (kCapPersistent): one long-lived child loops up to K
// executions (the budget), and the server is off the per-execution path.
// The client and the child hand each execution over directly through the
// sync block, one futex wake in each direction (futex_sync.hpp):
//
//   start:    the client writes the child's budget and the number of the
//             first request it will serve into the sync block, then sends
//             a kCtlStart request. The server kills any previous child,
//             forks the new one and acknowledges with a reply
//             [0][0]; a refusal (exit 5) or a dead server shows as EOF on
//             the acknowledgement at once. The start requests number the
//             children: the n-th start forks generation n. The child dies
//             with the server (PR_SET_PDEATHSIG), so none is left waiting.
//   execute:  requests are numbered from 0 for the server's lifetime.
//             Request r uses slot request_slot(r): the client stores the
//             packet and the request's execution index in that slot,
//             invalidates the slot's aux block, and publishes the
//             "requested" counter r + 1. The child futex-waits for it,
//             runs the packet, publishes "done" = r + 1 and bumps the
//             event word the client waits on. Up to kNumSlots requests may
//             be published ahead of the child.
//   end:      the server polls the control pipe and a pidfd of the child.
//             When the child ends it reaps it and publishes the end
//             record — [u32 generation][i32 wstatus][u32 flags] — then
//             bumps the event word. The generation tag keeps a late record
//             of a retired child from being read as the current child's.
//   deadline: the client waits for "done" until the request's deadline;
//             on expiry it sends kCtlKill, and the server SIGKILLs its own
//             child and publishes the end record with kEndKilled. A
//             completion that lands before the kill still counts as
//             completed.
//   recycle:  the child _exit(0)s after its K-th execution; the client,
//             which numbers the executions itself, books the budget
//             recycle and sends a start for the next one. After a crash
//             or a hang the client likewise starts a new child, so one bad
//             execution never poisons the loop.
//
// A server that did not advertise the capability refuses kCtlStart and
// kCtlKill with exit 5.
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
/// requests can be in flight (published ahead of the child) with no shared
/// mutable state between them.
inline constexpr std::uint32_t kNumSlots = 4;
inline constexpr std::size_t kSlotAuxOffset = cov::kMapSize;
inline constexpr std::size_t kSlotTestCaseOffset = kSlotAuxOffset + kAuxBytes;
inline constexpr std::size_t kSlotTestCaseBytes = std::size_t{1} << 16;
inline constexpr std::size_t kSlotBytes =
    kSlotTestCaseOffset + kSlotTestCaseBytes;
inline constexpr std::size_t kSlotsOffset = kSegmentBytes;

/// The persistent handoff's sync block, after the slots. Client-written
/// words sit on the first cache line, the words the child and the server
/// publish on the second.
inline constexpr std::size_t kSyncBlockOffset =
    kSlotsOffset + std::size_t{kNumSlots} * kSlotBytes;
inline constexpr std::size_t kSyncBlockBytes = 128;

/// Full segment size: the client creates this much, and a fork server
/// refuses to attach less.
inline constexpr std::size_t kSegmentBytesV2 =
    kSyncBlockOffset + kSyncBlockBytes;

// Sync block fields, as byte offsets inside the block.
/// u64, client: persistent requests published. The child waits on it.
inline constexpr std::size_t kSyncRequested = 0;
/// u64, client before a start: the first request the new child serves.
inline constexpr std::size_t kSyncFirstRequest = 8;
/// u32, client before a start: the new child's budget K.
inline constexpr std::size_t kSyncBudget = 16;
/// u64, client before a fork-per-exec request: its execution index.
inline constexpr std::size_t kSyncForkExecIndex = 24;
/// u64, child: persistent requests completed.
inline constexpr std::size_t kSyncDone = 64;
/// u64, child and server: bumped by every completion and every end
/// record. The client waits on it.
inline constexpr std::size_t kSyncEvent = 72;
/// The end record (server): u32 generation (stored last), i32 wstatus,
/// u32 flags.
inline constexpr std::size_t kSyncEndRecord = 80;
/// [96, 112) of the block carries the preload's info block
/// (inject/inject_protocol.hpp).

/// Address of sync-block field `field`.
[[nodiscard]] inline std::uint8_t* sync_field(std::uint8_t* segment,
                                              std::size_t field) {
  return segment + kSyncBlockOffset + field;
}

/// The slot persistent request `request` uses.
[[nodiscard]] constexpr std::uint32_t request_slot(std::uint64_t request) {
  return static_cast<std::uint32_t>(request % kNumSlots);
}

/// Byte offset of persistent slot `slot` inside the segment.
[[nodiscard]] constexpr std::size_t slot_offset(std::uint32_t slot) {
  return kSlotsOffset + std::size_t{slot} * kSlotBytes;
}

// -- Request control words. -----------------------------------------------
inline constexpr std::uint32_t kCtlForkExec = 0;
/// Fork the persistent child (killing any previous one); acknowledged.
inline constexpr std::uint32_t kCtlStart = 1;
/// SIGKILL the persistent child; answered by its end record.
inline constexpr std::uint32_t kCtlKill = 2;

/// Fork-per-exec reply flag: the deadline killed the child.
inline constexpr std::uint32_t kReplyTimedOut = 1u << 0;

/// Why a persistent child is gone after an execution.
enum class RecycleReason : std::uint8_t {
  kNone = 0,
  kBudget,  ///< orderly _exit(0) after execution K
  kCrash,   ///< signal / abnormal exit mid-execution
  kHang,    ///< deadline SIGKILL
};

// -- The persistent child's end record. -----------------------------------

/// End flag: the server killed the child on a kill request.
inline constexpr std::uint32_t kEndKilled = 1u << 0;
/// End flag: the server exits right after this record (a relayed fault
/// knob, shim_runner.hpp).
inline constexpr std::uint32_t kEndServerExit = 1u << 1;

struct EndRecord {
  std::uint32_t generation = 0;  ///< 0: no child has ended yet
  std::int32_t wstatus = 0;
  std::uint32_t flags = 0;
};

/// Server side: stores the record, the generation last (release), then
/// bumps the event word and wakes the client.
void end_record_publish(std::uint8_t* segment, const EndRecord& record);

/// Client side: the last published record. Read the fields only after
/// seeing the generation it waits for.
EndRecord end_record_load(std::uint8_t* segment);

/// Writes `packet` into slot `slot`'s test-case buffer, laid out as
/// [u32 len][u32 reserved][u64 exec_index][bytes] (client side). False when
/// the packet exceeds the buffer — the caller must fall back to a
/// fork-per-exec request over the pipe.
bool slot_store_packet(std::uint8_t* segment, std::uint32_t slot,
                       ByteSpan packet);

/// The packet span stored in slot `slot` (persistent-child side).
ByteSpan slot_load_packet(const std::uint8_t* segment, std::uint32_t slot);

/// Client side, before publishing a request on slot `slot`: stamps the
/// request's execution index beside the packet and invalidates the slot's
/// aux block, so a child that ends before serving the request leaves no
/// stale completion behind.
void slot_prepare_request(std::uint8_t* segment, std::uint32_t slot,
                          std::uint64_t exec_index);

/// The execution index stamped into slot `slot` (persistent-child side).
std::uint64_t slot_load_exec_index(const std::uint8_t* segment,
                                   std::uint32_t slot);

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

/// One reply: a fork-per-exec result, or a start acknowledgement.
struct Reply {
  std::int32_t wstatus = 0;
  std::uint32_t flags = 0;
};

/// Server side: sends `reply` with one write.
bool write_reply(int fd, const Reply& reply);

/// Client side: reads one whole reply; status as read_full_deadline.
ReadStatus read_reply(int fd, Reply& reply, int timeout_ms);

}  // namespace icsfuzz::oop
