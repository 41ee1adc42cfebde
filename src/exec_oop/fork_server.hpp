// ForkServer — fuzzer-side client of the classic AFL two-pipe fork-server
// protocol (exec_protocol.hpp).
//
// One spawn pays the exec + dynamic-link cost once; every execution after
// that is a single fork() inside the target — or, in persistent mode, one
// SIGCONT/SIGSTOP round trip of a long-lived child — which is what makes
// out-of-process fuzzing of real binaries viable at tens of thousands of
// executions per second. The server process runs the target-side loop of
// server_loop.hpp (inside the shim, or inside a stock binary through
// libicsfuzz-preload.so); the per-execution child is its fork (or the
// persistent child's loop body).
//
// The hello carries a capability word: start() records what the server
// offered; callers that want persistent execution check
// persistent_capable() and stay on fork-per-exec when the server does not
// offer it (a preloaded target that does not cooperate).
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
//   * server death (EOF/EPIPE) -> the run reports kServerLost; the owner
//                                 (OutOfProcessExecutor) respawns
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
      kExited,        ///< child exited; exit_code valid
      kSignaled,      ///< child died on a signal; term_signal valid
      kTimeout,       ///< deadline hit; child was SIGKILLed
      kServerExited,  ///< server exited 0 in an orderly way (respawn, but
                      ///< do not count a lost server)
      kServerLost,    ///< the fork server itself is gone mid-run
    };
    Kind kind = Kind::kServerLost;
    int exit_code = 0;
    int term_signal = 0;
    /// The execution ran inside the persistent child (reply flag).
    bool persistent = false;
    /// 1-based iteration "N of K" within the serving child (persistent).
    std::uint32_t iteration = 0;
    /// The serving child was recycled after this execution, and why.
    RecycleReason recycled = RecycleReason::kNone;
  };

  /// Spawns `argv` (argv[0] resolved through PATH) with `extra_env`
  /// appended to the inherited environment, performs the hello handshake.
  /// False on spawn or handshake failure (error() explains).
  bool start(const std::vector<std::string>& argv,
             const std::vector<std::string>& extra_env,
             int handshake_timeout_ms);

  /// Runs one packet fork-per-exec with a wall-clock deadline, enforced by
  /// the shim on its own child. `timeout_ms` <= 0 disables the deadline
  /// end to end (the client then waits indefinitely; only pipe EOF catches
  /// a wedged server). Requires running().
  RunOutcome run(ByteSpan packet, int timeout_ms);

  /// Persistent-mode single execution: the packet must already sit in the
  /// control word's shm slot (exec_protocol slot_store_packet). Requires
  /// persistent_capable().
  RunOutcome run_persistent(std::uint32_t control, int timeout_ms);

  /// Pipelined dispatch, persistent mode: queues one request without
  /// waiting for its reply (up to kNumSlots may be in flight; replies
  /// drain strictly in submission order through await_reply). False when
  /// the request could not be written — last_failure() says whether the
  /// server exited in an orderly way or was lost.
  bool submit(std::uint32_t control, int timeout_ms);

  /// Reads the next in-flight reply. `io_deadline_ms` bounds the wait
  /// (give it headroom for every exec still queued ahead); <= 0 waits
  /// indefinitely.
  RunOutcome await_reply(int io_deadline_ms);

  /// Kills the server process (SIGKILL), reaps it, closes the pipes.
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

  /// EOF/EPIPE on a pipe: decides kServerExited (reaped, exit status 0)
  /// vs kServerLost, updating last_failure_ and reaping an orderly exit.
  RunOutcome::Kind classify_server_gone();

  pid_t server_pid_ = -1;
  int ctl_fd_ = -1;  ///< write side: request stream
  int st_fd_ = -1;   ///< read side: hello / reply stream
  std::uint32_t caps_ = 0;
  RunOutcome::Kind last_failure_ = RunOutcome::Kind::kServerLost;
  std::string error_;
};

}  // namespace icsfuzz::oop
