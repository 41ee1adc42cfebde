// ForkServer — fuzzer-side client of the classic AFL two-pipe fork-server
// protocol (exec_protocol.hpp).
//
// One spawn pays the exec + dynamic-link cost once; every execution after
// that is a single fork() inside the target — or, in persistent mode, one
// futex handoff straight to a long-lived child, with the server off the
// per-execution path — which is what makes out-of-process fuzzing of real
// binaries viable at tens of thousands of executions per second. The
// server process runs the target-side loop of server_loop.hpp (inside the
// shim, or inside a stock binary through libicsfuzz-preload.so); the
// per-execution child is its fork (or the persistent child's loop body).
//
// The hello carries a capability word: start() records what the server
// offered; callers that want persistent execution check
// persistent_capable() and stay on fork-per-exec when the server does not
// offer it (a preloaded target that does not cooperate).
//
// In persistent mode this client numbers the requests and the executions,
// starts a child when none serves, books the budget recycle itself, and
// enforces each request's deadline: it waits on the sync block until the
// deadline and then asks the server to kill the child.
//
// Failure surface (all reported, never thrown — the campaign must outlive
// a dying target):
//   * spawn/handshake failure  -> start() false, error() says why
//   * per-exec wall-clock hang -> the server SIGKILLs its own child at the
//                                 deadline (it owns the pid — no recycled
//                                 -pid hazard) and the run reports
//                                 kTimeout
//   * orderly server exit      -> EOF plus exit status 0 (the server
//                                 retired after its final execution);
//                                 reported kServerExited so telemetry
//                                 never books it as a lost server
//   * server death (EOF/EPIPE, -> the run reports kServerLost; the owner
//     or gone while waiting)      (OutOfProcessExecutor) respawns
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

class ForkServer {
 public:
  ForkServer() = default;
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  /// One execution's transport-level outcome (the semantic mapping onto
  /// crash/hang/ok lives in OutOfProcessExecutor, which also reads the
  /// segment's aux block).
  struct RunOutcome {
    enum class Kind : std::uint8_t {
      kExited,        ///< child exited (or completed); exit_code valid
      kSignaled,      ///< child died on a signal; term_signal valid
      kTimeout,       ///< deadline hit; child was SIGKILLed
      kServerExited,  ///< server exited 0 in an orderly way (respawn, but
                      ///< do not count a lost server)
      kServerLost,    ///< the fork server itself is gone mid-run
    };
    Kind kind = Kind::kServerLost;
    int exit_code = 0;
    int term_signal = 0;
    /// The execution ran inside the persistent child.
    bool persistent = false;
    /// 1-based iteration "N of K" within the serving child (persistent).
    std::uint32_t iteration = 0;
    /// The serving child is gone after this execution, and why.
    RecycleReason recycled = RecycleReason::kNone;
  };

  /// Spawns `argv` (argv[0] resolved through PATH) with `extra_env`
  /// appended to the inherited environment, performs the hello handshake.
  /// `segment` is the client's mapping of the segment the environment
  /// names; persistent requests and the fork-per-exec execution index
  /// travel through it. False on spawn or handshake failure (error()
  /// explains).
  bool start(const std::vector<std::string>& argv,
             const std::vector<std::string>& extra_env,
             int handshake_timeout_ms, std::uint8_t* segment = nullptr);

  /// Runs one packet fork-per-exec with a wall-clock deadline, enforced by
  /// the shim on its own child. `timeout_ms` <= 0 disables the deadline
  /// end to end (the client then waits indefinitely; only pipe EOF catches
  /// a wedged server). Requires running().
  RunOutcome run(ByteSpan packet, int timeout_ms);

  /// The slot the next persistent request uses: store its packet there
  /// (exec_protocol slot_store_packet) before submit().
  [[nodiscard]] std::uint32_t next_slot() const {
    return request_slot(requested_);
  }

  /// A persistent request may be published now: the serving child's
  /// budget still has room, or no child serves and nothing is in flight
  /// (a new child is started first).
  [[nodiscard]] bool can_submit() const {
    return child_alive_ ? requested_ <= child_last_ : in_flight() == 0;
  }

  /// Publishes the packet stored at next_slot() to the persistent child,
  /// starting a child with `budget` executions when none serves. Requires
  /// can_submit() and persistent_capable(). False when the server could
  /// not start a child — last_failure() says whether it exited in an
  /// orderly way or was lost.
  bool submit(std::uint32_t budget, int timeout_ms);

  /// Waits for the oldest in-flight request, with `timeout_ms` (<= 0: no
  /// deadline) as its deadline from now. When the outcome says the child
  /// is gone, every later in-flight request was dropped unserved: the
  /// caller publishes them again.
  RunOutcome await_reply(int timeout_ms);

  /// submit() + await_reply() for one request.
  RunOutcome run_persistent(std::uint32_t budget, int timeout_ms);

  /// Closes the pipes, kills the server's process group (SIGKILL) and
  /// reaps the server. A server with a persistent child first gets a
  /// moment to kill and reap that child itself at the pipe's EOF.
  /// Idempotent; start() may be called again afterwards.
  void stop();

  [[nodiscard]] bool running() const { return server_pid_ > 0; }
  [[nodiscard]] pid_t server_pid() const { return server_pid_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// The server advertised the persistent capability.
  [[nodiscard]] bool persistent_capable() const {
    return (caps_ & kCapPersistent) != 0;
  }
  /// How the last failed submit/run left the server (orderly vs lost).
  [[nodiscard]] RunOutcome::Kind last_failure() const { return last_failure_; }

 private:
  /// Writes one request ([timeout][control][len][packet]); classifies
  /// the server on failure.
  bool send_request(std::uint32_t control, ByteSpan packet, int timeout_ms,
                    int io_deadline_ms);

  /// Sends a start request and reads its acknowledgement.
  bool start_child(std::uint32_t budget, int timeout_ms);

  /// EOF/EPIPE on a pipe: decides kServerExited (reaped, exit status 0)
  /// vs kServerLost, updating last_failure_ and reaping an orderly exit.
  RunOutcome::Kind classify_server_gone();

  /// The server process has not exited (it is not reaped here).
  [[nodiscard]] bool server_alive() const;

  /// Persistent requests published whose outcome has not been awaited.
  [[nodiscard]] std::uint64_t in_flight() const {
    return requested_ - awaited_;
  }

  pid_t server_pid_ = -1;
  int ctl_fd_ = -1;  ///< write side: request stream
  int st_fd_ = -1;   ///< read side: hello / reply stream
  std::uint32_t caps_ = 0;
  RunOutcome::Kind last_failure_ = RunOutcome::Kind::kServerLost;
  std::string error_;

  std::uint8_t* segment_ = nullptr;
  /// Executions numbered for this server, both kinds (1-based).
  std::uint64_t exec_index_ = 0;
  /// Persistent requests published / awaited.
  std::uint64_t requested_ = 0;
  std::uint64_t awaited_ = 0;
  /// The serving persistent child: alive as far as this client knows, its
  /// generation (start requests acknowledged) and its request range.
  bool child_alive_ = false;
  std::uint32_t generation_ = 0;
  std::uint64_t child_first_ = 0;
  std::uint64_t child_last_ = 0;
};

}  // namespace icsfuzz::oop
