// Target-side fork-server loop: the server half of exec_protocol.hpp,
// written once and shared by the in-tree shim (shim_runner.cpp) and the
// injection runtime (src/inject/preload_runtime.cpp).
//
// serve_fork_server() writes the hello and serves the control pipe. A
// fork-per-exec request forks one execution child, enforces the request's
// deadline on it, and replies with how it ended. A start request forks the
// long-lived persistent child; after that the server only watches it
// through a pidfd: it publishes the child's end record when it ends, and
// SIGKILLs it on a kill request. Healthy persistent executions never
// reach the server — the client and the child hand them over through the
// sync block. In the server serve_fork_server() returns only when the
// server is done; otherwise it returns inside a freshly forked child and
// says which kind it is. The caller then runs the execution: the shim
// calls its ProtocolTarget, the preload returns from its constructor so
// the loader reaches the target's main().
//
// persistent_child_await() / persistent_child_done() are the persistent
// child's side of the handoff, again shared by the shim's loop and the
// preload's __icsfuzz_persistent_loop.
//
// attach_segment() is the one checked attach of the segment the client
// names in the environment; every target-side server uses it (the shim,
// the TCP session server, the preload).
//
// server_loop.cpp is compiled into libicsfuzz and libicsfuzz-preload.so, so
// it depends only on exec_protocol.cpp and resource_jail.cpp, and keeps
// runtime_state.hpp's invariant: constant-initialized statics only.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

/// Ceiling on ICSFUZZ_OOP_SHM_SIZE and on one request's packet length:
/// both cross a process boundary, and no real segment or packet is within
/// three orders of magnitude of it.
inline constexpr std::uint64_t kMaxShmBytes = std::uint64_t{1} << 30;

/// A target-side mapping of the client's segment. Plain data: a server
/// keeps its mapping for its whole lifetime.
struct AttachedSegment {
  std::uint8_t* data = nullptr;
  std::size_t size = 0;
  const char* error = nullptr;  ///< why the attach failed; null on success

  [[nodiscard]] bool valid() const { return data != nullptr; }
};

/// Maps the shm object `name` with the size `size_text` announces. The size
/// must be plain decimal (no sign, no trailing bytes) in
/// [min_bytes, kMaxShmBytes], and the object must be at least that large.
AttachedSegment attach_segment(const char* name, const char* size_text,
                               std::size_t min_bytes);

/// attach_segment over the ICSFUZZ_OOP_SHM / ICSFUZZ_OOP_SHM_SIZE pair.
AttachedSegment attach_segment_from_env(std::size_t min_bytes);

/// How a fork-per-exec child comes to be when a plain fork() is not
/// enough: the preload hands the packet to the child on a stdin pipe and
/// captures its stdout as the response.
struct ExecForkHook {
  /// Forks the child for `packet`: its pid in the server, 0 in the child,
  /// negative when the server cannot go on. Sets `deadline_spent` after
  /// SIGKILLing a child that did not take its input within `timeout_ms`.
  pid_t (*fork_child)(ByteSpan packet, std::uint32_t timeout_ms,
                      bool& deadline_spent);
  /// Server side, after the reap and before the reply.
  void (*after_reap)();
};

struct ServerLoopConfig {
  /// The attached segment, at least kSegmentBytesV2 bytes.
  std::uint8_t* segment = nullptr;
  /// Advertise kCapPersistent and serve persistent requests. Without it a
  /// persistent request is a protocol violation (exit code 5).
  bool persistent = false;
  /// ShimFaultPlan::server_exit_at / server_retire_after (0 = off). The
  /// server checks them on fork-per-exec requests; the persistent child
  /// relays them through kRelayServerExitCode / kRelayRetireCode.
  std::uint64_t server_exit_at = 0;
  std::uint64_t server_retire_after = 0;
  /// Fork-per-exec hook; null forks directly.
  const ExecForkHook* exec_fork = nullptr;
};

/// Where serve_fork_server() returned.
struct LoopExit {
  enum class Role : std::uint8_t {
    kServer,           ///< the server is done: exit with `exit_code`
    kExecChild,        ///< a fork-per-exec child: run `packet`, _exit
    kPersistentChild,  ///< the persistent child: persistent_child_await
  };
  Role role = Role::kServer;
  /// kServer: 0 at EOF or retirement, 4 hello write failed, 5 fork failed
  /// or request refused, 6 reply write failed, 9 server_exit_at.
  int exit_code = 0;
  /// kExecChild: the execution index (the persistent child reads each
  /// request's from its slot).
  std::uint64_t exec_index = 0;
  /// kExecChild: the request's packet.
  Bytes packet;
};

/// Runs the fork server on kCtlFd / kStFd over `config.segment`. Each
/// forked child already carries the environment's resource jail; the
/// persistent child also dies with the server.
LoopExit serve_fork_server(const ServerLoopConfig& config);

/// Exit codes a persistent child uses to relay a server fault knob: the
/// server publishes the child's end with kEndServerExit and then exits 9
/// (server_exit_at) or 0 (server_retire_after). They carry this meaning
/// only while the matching knob is configured.
inline constexpr int kRelayServerExitCode = 90;
inline constexpr int kRelayRetireCode = 91;

/// The persistent child's place in the request stream. Plain data that
/// constant-initializes, so the preload can keep one in a static.
struct PersistentCursor {
  bool started = false;
  std::uint64_t next = 0;  ///< the request being (or next to be) served
  std::uint64_t last = 0;  ///< this child's final request (its budget)
};

/// Persistent child: waits, with no deadline, until the client publishes
/// the next request, and returns its slot. The first call reads this
/// child's first request and budget from the sync block.
std::uint32_t persistent_child_await(std::uint8_t* segment,
                                     PersistentCursor& cursor);

/// Persistent child: publishes the awaited request as done and wakes the
/// client. True when that was the budget's last request — the caller then
/// _exit(0)s.
bool persistent_child_done(std::uint8_t* segment, PersistentCursor& cursor);

}  // namespace icsfuzz::oop
