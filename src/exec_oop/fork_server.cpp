#include "exec_oop/fork_server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/futex_sync.hpp"

extern char** environ;

namespace icsfuzz::oop {

namespace {

/// Resolves a bare command name through PATH *before* fork: the post-fork
/// child is restricted to async-signal-safe calls, which rules out
/// execvp's PATH walk (it may allocate). Returns the command unchanged
/// when it contains a slash or nothing on PATH matches (execve will then
/// fail and the child exits 127, surfacing as a handshake failure).
std::string resolve_executable(const std::string& command) {
  if (command.find('/') != std::string::npos) return command;
  const char* path = std::getenv("PATH");
  if (path == nullptr) return command;
  const std::string entries = path;
  std::size_t begin = 0;
  while (begin <= entries.size()) {
    const std::size_t end = entries.find(':', begin);
    const std::string dir = entries.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!dir.empty()) {
      const std::string candidate = dir + "/" + command;
      if (::access(candidate.c_str(), X_OK) == 0) return candidate;
    }
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return command;
}

/// True when `entry` ("NAME=value") defines the same NAME as `other`.
bool same_env_name(const char* entry, const std::string& other) {
  const std::size_t eq = other.find('=');
  if (eq == std::string::npos) return false;
  return std::strncmp(entry, other.c_str(), eq + 1) == 0;
}

/// Grace on top of an exec budget before a silent server counts as lost.
constexpr int kIoGraceMs = 5000;

/// How long stop() gives a server with a persistent child to exit in an
/// orderly way before killing it.
constexpr int kOrderlyStopMs = 100;

/// How often a persistent wait with no news checks that the server still
/// lives, so a dead server surfaces well before the request's deadline.
constexpr std::uint64_t kLivenessSliceMs = 50;

/// Pipe-I/O deadline for one request/reply: the exec budget plus a grace
/// margin (the shim owns the real deadline; ours only catches a wedged
/// server). Negative for an unbounded exec budget.
int io_deadline_for(int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  return timeout_ms > std::numeric_limits<int>::max() - kIoGraceMs
             ? std::numeric_limits<int>::max()
             : timeout_ms + kIoGraceMs;
}

/// Maps a reaped child's wstatus onto a RunOutcome kind and fields.
void outcome_from_wstatus(int wstatus, ForkServer::RunOutcome& outcome) {
  if (WIFSIGNALED(wstatus)) {
    outcome.kind = ForkServer::RunOutcome::Kind::kSignaled;
    outcome.term_signal = WTERMSIG(wstatus);
  } else {
    outcome.kind = ForkServer::RunOutcome::Kind::kExited;
    outcome.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
  }
}

}  // namespace

ForkServer::~ForkServer() { stop(); }

bool ForkServer::start(const std::vector<std::string>& argv,
                       const std::vector<std::string>& extra_env,
                       int handshake_timeout_ms, std::uint8_t* segment) {
  stop();
  error_.clear();
  last_failure_ = RunOutcome::Kind::kServerLost;
  segment_ = segment;
  exec_index_ = 0;
  requested_ = 0;
  awaited_ = 0;
  child_alive_ = false;
  generation_ = 0;
  if (argv.empty()) {
    error_ = "empty target command";
    return false;
  }
  ignore_sigpipe_once();

  int ctl_pipe[2];
  int st_pipe[2];
  if (::pipe2(ctl_pipe, O_CLOEXEC) != 0) {
    error_ = std::string("pipe2(ctl): ") + std::strerror(errno);
    return false;
  }
  if (::pipe2(st_pipe, O_CLOEXEC) != 0) {
    error_ = std::string("pipe2(st): ") + std::strerror(errno);
    ::close(ctl_pipe[0]);
    ::close(ctl_pipe[1]);
    return false;
  }

  // Everything execve() needs is materialized BEFORE fork(): a worker
  // thread of a parallel campaign may fork while siblings hold allocator
  // locks, so the child must restrict itself to async-signal-safe calls
  // (setpgid/fcntl/dup2/execve/_exit). That includes the PATH walk —
  // resolved here, not via execvp in the child.
  const std::string executable = resolve_executable(argv[0]);
  std::vector<char*> child_argv;
  child_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    child_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  child_argv.push_back(nullptr);

  // extra_env must OVERRIDE inherited duplicates, not merely follow them:
  // getenv returns the first match, so an inherited ICSFUZZ_OOP_SHM (a
  // debugging leftover, a nested harness) would otherwise shadow the
  // fresh per-spawn segment name.
  std::vector<char*> child_env;
  for (char** env = environ; *env != nullptr; ++env) {
    bool overridden = false;
    for (const std::string& entry : extra_env) {
      overridden |= same_env_name(*env, entry);
    }
    if (!overridden) child_env.push_back(*env);
  }
  for (const std::string& entry : extra_env) {
    child_env.push_back(const_cast<char*>(entry.c_str()));
  }
  child_env.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    error_ = std::string("fork: ") + std::strerror(errno);
    ::close(ctl_pipe[0]);
    ::close(ctl_pipe[1]);
    ::close(st_pipe[0]);
    ::close(st_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: lead a fresh process group — the shim's per-exec forks stay
    // in it, so stop()'s group kill reaps a wedged server AND any
    // in-flight exec child instead of orphaning the grandchild.
    ::setpgid(0, 0);
    // Install the protocol descriptors and exec the shim. Two edge cases
    // under fd pressure: a pipe end may already BE 198/199 (dup2 would be
    // a no-op that leaves O_CLOEXEC set and the fd closes across exec),
    // and the ctl end could occupy the st end's slot (the second dup2
    // would clobber it) — so first move any end sitting inside the target
    // range above it, then dup2 (which clears CLOEXEC) or clear CLOEXEC
    // in place. fcntl/dup2 are async-signal-safe.
    int ctl = ctl_pipe[0];
    int st = st_pipe[1];
    if (ctl == kCtlFd || ctl == kStFd) {
      ctl = ::fcntl(ctl, F_DUPFD, kStFd + 1);
    }
    if (st == kCtlFd || st == kStFd) {
      st = ::fcntl(st, F_DUPFD, kStFd + 1);
    }
    if (ctl < 0 || st < 0 || ::dup2(ctl, kCtlFd) < 0 ||
        ::dup2(st, kStFd) < 0) {
      ::_exit(126);
    }
    ::execve(executable.c_str(), child_argv.data(), child_env.data());
    ::_exit(127);
  }

  // Parent. The control pipe goes non-blocking: run() writes through the
  // deadline-aware poll loop, so a wedged server that stops draining the
  // pipe surfaces as a timeout instead of blocking the fuzzer forever on
  // a larger-than-pipe-buffer packet.
  ::close(ctl_pipe[0]);
  ::close(st_pipe[1]);
  ctl_fd_ = ctl_pipe[1];
  st_fd_ = st_pipe[0];
  ::fcntl(ctl_fd_, F_SETFL, ::fcntl(ctl_fd_, F_GETFL) | O_NONBLOCK);
  server_pid_ = pid;

  // Hello: the magic, then the capability word. Any other magic (an old
  // bare-magic server, a program that does not speak the protocol) fails
  // the handshake without waiting for a capability word that never comes.
  caps_ = 0;
  std::uint32_t hello = 0;
  ReadStatus status =
      read_full_deadline(st_fd_, &hello, sizeof(hello), handshake_timeout_ms);
  if (status == ReadStatus::kOk && hello == kHelloMagicV2) {
    status = read_full_deadline(st_fd_, &caps_, sizeof(caps_),
                                handshake_timeout_ms);
    if (status == ReadStatus::kOk) return true;
  }
  error_ = status == ReadStatus::kTimeout
               ? "fork server handshake timed out"
               : (status == ReadStatus::kClosed
                      ? "fork server exited before handshake"
                      : "fork server sent a bad hello");
  stop();
  return false;
}

ForkServer::RunOutcome::Kind ForkServer::classify_server_gone() {
  // EOF can race the exit status by a hair (the pipe ends close inside
  // the exiting process before it turns waitable), so poll briefly. An
  // orderly exit (status 0 — the shim retired after its final execution,
  // or was asked to shut down) is reaped here and must NOT be booked as a
  // lost server; anything else keeps the kServerLost verdict and leaves
  // stop() to do the killing.
  for (int spin = 0; server_pid_ > 0 && spin < 500; ++spin) {
    int wstatus = 0;
    const pid_t reaped = ::waitpid(server_pid_, &wstatus, WNOHANG);
    if (reaped == server_pid_) {
      server_pid_ = -1;  // already reaped: stop() must not kill this pid
      if (ctl_fd_ >= 0) ::close(ctl_fd_);
      if (st_fd_ >= 0) ::close(st_fd_);
      ctl_fd_ = st_fd_ = -1;
      last_failure_ = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0
                          ? RunOutcome::Kind::kServerExited
                          : RunOutcome::Kind::kServerLost;
      return last_failure_;
    }
    if (reaped < 0 && errno == EINTR) continue;  // supervisor signal; re-poll
    if (reaped != 0) break;  // ECHILD or error: treat as lost
    ::usleep(1000);
  }
  last_failure_ = RunOutcome::Kind::kServerLost;
  return last_failure_;
}

bool ForkServer::send_request(std::uint32_t control, ByteSpan packet,
                              int timeout_ms, int io_deadline_ms) {
  if (!running()) {
    // Keep last_failure_ as classify_server_gone() left it: a caller that
    // races a just-retired server still sees kServerExited, not a loss.
    error_ = "fork server not running";
    return false;
  }
  // timeout_ms <= 0 disables the per-exec wall-clock deadline end to end:
  // the shim disarms its interval timer and this side waits indefinitely
  // — a wedged server is then caught only by pipe EOF (the caller opted
  // out of wall-clock limits).
  const std::uint32_t wire_timeout =
      timeout_ms <= 0 ? 0 : static_cast<std::uint32_t>(timeout_ms);
  const ReadStatus status = oop::write_request(
      ctl_fd_, wire_timeout, control, packet, io_deadline_ms);
  if (status != ReadStatus::kOk) {
    if (status == ReadStatus::kTimeout) {
      error_ = "fork server stopped draining the request pipe";
      last_failure_ = RunOutcome::Kind::kServerLost;
    } else {
      error_ = "fork server pipe write failed (server gone?)";
      classify_server_gone();
    }
    return false;
  }
  return true;
}

bool ForkServer::server_alive() const {
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(server_pid_), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    return errno == EINTR;  // ECHILD: already reaped, so gone
  }
  return info.si_pid == 0;
}

ForkServer::RunOutcome ForkServer::run(ByteSpan packet, int timeout_ms) {
  RunOutcome outcome;
  ++exec_index_;
  if (segment_ != nullptr) {
    futex::counter_ref(sync_field(segment_, kSyncForkExecIndex))
        .store(exec_index_, std::memory_order_relaxed);
  }
  const int io_deadline_ms = io_deadline_for(timeout_ms);
  if (!send_request(kCtlForkExec, packet, timeout_ms, io_deadline_ms)) {
    outcome.kind = last_failure_;
    return outcome;
  }

  // The shim owns the per-exec deadline (it SIGKILLs its own child when
  // the timer fires and reports timed_out) — our read deadline only has
  // to catch the server itself wedging, so it gets a generous grace
  // margin on top of the exec budget and expiry means server-gone, never
  // a hang verdict.
  Reply reply;
  const ReadStatus status = read_reply(st_fd_, reply, io_deadline_ms);
  if (status != ReadStatus::kOk) {
    error_ = "fork server died mid-execution";
    outcome.kind = status == ReadStatus::kClosed
                       ? classify_server_gone()
                       : RunOutcome::Kind::kServerLost;
    return outcome;
  }
  if ((reply.flags & kReplyTimedOut) != 0) {
    outcome.kind = RunOutcome::Kind::kTimeout;
    outcome.term_signal =
        WIFSIGNALED(reply.wstatus) ? WTERMSIG(reply.wstatus) : SIGKILL;
  } else {
    outcome_from_wstatus(reply.wstatus, outcome);
  }
  return outcome;
}

bool ForkServer::start_child(std::uint32_t budget, int timeout_ms) {
  // The new child serves from the next request on, whatever a previous
  // child left unserved (the caller publishes those again).
  futex::counter_ref(sync_field(segment_, kSyncFirstRequest))
      .store(requested_, std::memory_order_relaxed);
  std::memcpy(sync_field(segment_, kSyncBudget), &budget, sizeof(budget));
  const int io_deadline_ms = io_deadline_for(timeout_ms);
  if (!send_request(kCtlStart, {}, timeout_ms, io_deadline_ms)) return false;
  Reply ack;
  const ReadStatus status = read_reply(st_fd_, ack, io_deadline_ms);
  if (status != ReadStatus::kOk) {
    // A server that refuses the start (exit 5) or died shows here at once.
    error_ = "fork server did not start a persistent child";
    if (status == ReadStatus::kClosed) {
      classify_server_gone();
    } else {
      last_failure_ = RunOutcome::Kind::kServerLost;
    }
    return false;
  }
  ++generation_;
  child_alive_ = true;
  child_first_ = requested_;
  child_last_ = requested_ + (budget != 0 ? budget : 1) - 1;
  return true;
}

bool ForkServer::submit(std::uint32_t budget, int timeout_ms) {
  if (segment_ == nullptr) {
    error_ = "persistent requests need the client's segment mapping";
    last_failure_ = RunOutcome::Kind::kServerLost;
    return false;
  }
  if (!child_alive_ && !start_child(budget, timeout_ms)) return false;
  const std::uint64_t request = requested_++;
  slot_prepare_request(segment_, request_slot(request), ++exec_index_);
  futex::publish(sync_field(segment_, kSyncRequested), requested_);
  return true;
}

ForkServer::RunOutcome ForkServer::await_reply(int timeout_ms) {
  RunOutcome outcome;
  if (in_flight() == 0 || !running()) {
    outcome.kind = last_failure_;
    return outcome;
  }
  const std::uint64_t request = awaited_++;
  const std::uint32_t generation = generation_;
  outcome.persistent = true;
  outcome.iteration = static_cast<std::uint32_t>(request - child_first_ + 1);

  std::uint8_t* const event = sync_field(segment_, kSyncEvent);
  std::uint8_t* const done = sync_field(segment_, kSyncDone);
  const auto completed = [done, request] {
    return futex::load(done) > request;
  };
  const auto ready = [&] {
    return completed() ||
           end_record_load(segment_).generation == generation;
  };
  const auto server_gone = [&](RunOutcome::Kind kind) {
    child_alive_ = false;
    awaited_ = requested_;
    outcome.kind = kind;
    return outcome;
  };

  // Wait until the request's deadline, checking now and then that the
  // server still lives (nobody would publish an end record otherwise).
  const std::uint64_t deadline =
      timeout_ms > 0
          ? futex::monotonic_ms() + static_cast<std::uint64_t>(timeout_ms)
          : 0;
  bool killed = false;
  for (;;) {
    std::uint64_t slice = futex::monotonic_ms() + kLivenessSliceMs;
    if (deadline != 0) slice = std::min(slice, deadline);
    if (futex::wait_until(event, slice, ready)) break;
    if (deadline != 0 && futex::monotonic_ms() >= deadline) {
      // Deadline: the server kills its own child and publishes its end.
      if (!send_request(kCtlKill, {}, 0, kIoGraceMs)) {
        return server_gone(last_failure_);
      }
      killed = true;
      if (!futex::wait_until(event, deadline + kIoGraceMs, ready)) {
        error_ = "fork server did not answer a kill request";
        last_failure_ = RunOutcome::Kind::kServerLost;
        return server_gone(last_failure_);
      }
      break;
    }
    if (!server_alive()) {
      error_ = "fork server died mid-execution";
      return server_gone(classify_server_gone());
    }
  }

  if (completed() && !killed && request != child_last_) {
    outcome.kind = RunOutcome::Kind::kExited;
    return outcome;  // the child keeps serving
  }
  // The child is gone after this request, and it served nothing published
  // after it: the caller publishes those again.
  child_alive_ = false;
  awaited_ = requested_;
  if (completed()) {
    // A completion that landed before the kill still counts.
    outcome.kind = RunOutcome::Kind::kExited;
    outcome.recycled = killed ? RecycleReason::kHang : RecycleReason::kBudget;
    return outcome;
  }
  const EndRecord end = end_record_load(segment_);
  if ((end.flags & kEndServerExit) != 0) {
    error_ = "fork server exited after the persistent child";
    return server_gone(classify_server_gone());
  }
  if ((end.flags & kEndKilled) != 0) {
    outcome.kind = RunOutcome::Kind::kTimeout;
    outcome.term_signal = SIGKILL;
    outcome.recycled = RecycleReason::kHang;
  } else {
    outcome_from_wstatus(end.wstatus, outcome);
    outcome.recycled = RecycleReason::kCrash;
  }
  return outcome;
}

ForkServer::RunOutcome ForkServer::run_persistent(std::uint32_t budget,
                                                  int timeout_ms) {
  if (!submit(budget, timeout_ms)) {
    RunOutcome outcome;
    outcome.kind = last_failure_;
    return outcome;
  }
  return await_reply(timeout_ms);
}

void ForkServer::stop() {
  if (ctl_fd_ >= 0) {
    ::close(ctl_fd_);
    ctl_fd_ = -1;
    if (child_alive_ && st_fd_ >= 0) {
      // Orderly first: at EOF the server kills and reaps its persistent
      // child and exits, and the status pipe reports EOF once both are
      // gone. Their exits are then paid here, not by whatever this
      // process runs next. A server that does not go in time is killed
      // below.
      struct pollfd gone = {st_fd_, POLLIN, 0};
      (void)::poll(&gone, 1, kOrderlyStopMs);
    }
    child_alive_ = false;
  }
  if (st_fd_ >= 0) {
    ::close(st_fd_);
    st_fd_ = -1;
  }
  if (server_pid_ > 0) {
    // Group kill first: the server leads its own process group (set up
    // before exec), so this also reaps any in-flight per-exec child a
    // wedged or already-dead server left behind. The direct kill is the
    // fallback for a server that died before setpgid took effect.
    ::kill(-server_pid_, SIGKILL);
    ::kill(server_pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(server_pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    server_pid_ = -1;
  }
}

}  // namespace icsfuzz::oop
