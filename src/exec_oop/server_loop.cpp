#include "exec_oop/server_loop.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "supervise/resource_jail.hpp"

namespace icsfuzz::oop {

namespace {

/// Strict decimal u64 with overflow rejection: the size comes from
/// whatever spawned us, so it gets the distrust of network input.
bool parse_decimal(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

/// Set by the SIGALRM handler when the per-exec deadline fires. The
/// handler only flags: the kill happens in normal context inside the
/// waitpid loop, where the child is provably not yet reaped — so the
/// server can never SIGKILL a recycled pid.
volatile sig_atomic_t g_deadline_fired = 0;

void on_deadline(int) { g_deadline_fired = 1; }

/// Installs the SIGALRM disposition WITHOUT SA_RESTART, so the blocking
/// waitpid returns EINTR when the timer fires.
void install_deadline_handler() {
  struct sigaction action {};
  action.sa_handler = on_deadline;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGALRM, &action, nullptr);
}

/// Arms (or with 0 disarms) the per-exec interval timer. The timer
/// REPEATS at the same period: a one-shot could fire (and be consumed by
/// the handler) in the window between arming and waitpid() blocking —
/// e.g. the server descheduled on a loaded runner — after which a hung
/// child would block the server forever. With a repeating interval the
/// next tick delivers another EINTR and the kill still happens.
void arm_deadline(std::uint32_t timeout_ms) {
  struct itimerval timer {};
  timer.it_value.tv_sec = timeout_ms / 1000;
  timer.it_value.tv_usec =
      static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  timer.it_interval = timer.it_value;
  ::setitimer(ITIMER_REAL, &timer, nullptr);
}

/// Waits for `child` with the per-exec deadline armed; SIGKILLs it when
/// the timer fires first. With `wait_stops` the waitpid also returns for a
/// child that stopped itself (the persistent child's iteration-complete
/// SIGSTOP). Returns the raw wstatus; `timed_out` reports a deadline kill.
int await_child(pid_t child, std::uint32_t timeout_ms, bool wait_stops,
                bool& timed_out) {
  g_deadline_fired = 0;
  if (timeout_ms != 0) arm_deadline(timeout_ms);
  int wstatus = 0;
  timed_out = false;
  const int options = wait_stops ? WUNTRACED : 0;
  for (;;) {
    const pid_t reaped = ::waitpid(child, &wstatus, options);
    if (reaped == child) {
      // After a deadline SIGKILL, a stop that was already pending can be
      // reported first; keep waiting for the termination so the child is
      // actually reaped (no zombie) before the hang verdict goes out.
      if (timed_out && WIFSTOPPED(wstatus)) continue;
      break;
    }
    if (reaped < 0 && errno == EINTR) {
      if (g_deadline_fired && !timed_out) {
        timed_out = true;
        // SIGKILL terminates even a stopped child, so a deadline that
        // races the iteration-complete stop still converges: whichever
        // state change waitpid reports first wins, and a just-stopped
        // child is reported as stopped (completed), not as a hang.
        ::kill(child, SIGKILL);
      }
      continue;
    }
    break;  // unexpected waitpid failure; report whatever we have
  }
  arm_deadline(0);
  return wstatus;
}

/// Server-side bookkeeping for the persistent child.
struct PersistentChild {
  pid_t pid = -1;
  std::uint32_t iteration = 0;  ///< executions served by this child
  std::uint32_t budget = 0;

  [[nodiscard]] bool alive() const { return pid > 0; }
};

/// SIGKILLs and reaps a (possibly stopped) persistent child — shutdown
/// and server-retirement hygiene so no stopped process outlives the
/// server.
void kill_persistent_child(PersistentChild& child) {
  if (!child.alive()) return;
  ::kill(child.pid, SIGKILL);
  int wstatus = 0;
  while (::waitpid(child.pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
}

/// The reply for one persistent iteration, given how the child came back.
/// Forgets the child when it is gone after this execution.
Reply persistent_reply(PersistentChild& child, int wstatus, bool timed_out) {
  Reply reply{static_cast<std::int32_t>(wstatus), kReplyPersistent,
              child.iteration};
  if (timed_out) {
    reply.flags |= kReplyTimedOut | encode_recycle(RecycleReason::kHang);
    child.pid = -1;  // killed and reaped by await_child
  } else if (WIFSTOPPED(wstatus)) {
    reply.wstatus = 0;  // iteration complete, child healthy
  } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
             child.iteration >= child.budget) {
    // Orderly budget exhaustion: the execution completed (aux block
    // published) and the child retired itself.
    reply.wstatus = 0;
    reply.flags |= encode_recycle(RecycleReason::kBudget);
    child.pid = -1;
  } else {
    // Crash: signal, abnormal exit, or an exit-0 before the budget (the
    // target pulled the child down mid-loop).
    reply.flags |= encode_recycle(RecycleReason::kCrash);
    child.pid = -1;
  }
  return reply;
}

LoopExit server_exit(int code) {
  LoopExit done;
  done.exit_code = code;
  return done;
}

}  // namespace

AttachedSegment attach_segment(const char* name, const char* size_text,
                               std::size_t min_bytes) {
  AttachedSegment segment;
  std::uint64_t size = 0;
  if (name == nullptr || *name == '\0' || !parse_decimal(size_text, size) ||
      size < min_bytes || size > kMaxShmBytes) {
    segment.error = "invalid ICSFUZZ_OOP_SHM / ICSFUZZ_OOP_SHM_SIZE";
    return segment;
  }
  const int fd = ::shm_open(name, O_RDWR, 0);
  if (fd < 0) {
    segment.error = "shm_open failed";
    return segment;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::uint64_t>(st.st_size) < size) {
    segment.error = "shm object smaller than ICSFUZZ_OOP_SHM_SIZE";
    ::close(fd);
    return segment;
  }
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(size),
                        PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    segment.error = "mmap failed";
    return segment;
  }
  segment.data = static_cast<std::uint8_t*>(mapped);
  segment.size = static_cast<std::size_t>(size);
  return segment;
}

AttachedSegment attach_segment_from_env(std::size_t min_bytes) {
  return attach_segment(std::getenv(kShmNameEnv), std::getenv(kShmSizeEnv),
                        min_bytes);
}

LoopExit serve_fork_server(const ServerLoopConfig& config) {
  std::uint8_t* const segment = config.segment;
  install_deadline_handler();
  const std::uint32_t hello[2] = {kHelloMagicV2,
                                  config.persistent ? kCapPersistent : 0};
  if (!write_full(kStFd, hello, sizeof(hello))) return server_exit(4);

  // The jail travels from the fuzzing parent as environment variables and
  // is applied inside every forked execution child — never in the server,
  // which must stay alive across jail-killed children.
  const supervise::ResourceJail jail = supervise::jail_from_env();

  Bytes packet;
  PersistentChild persistent;
  std::uint64_t exec_index = 0;
  for (;;) {
    Request request;
    if (!read_request(kCtlFd, request)) {
      kill_persistent_child(persistent);
      return server_exit(0);  // EOF: clean shutdown
    }
    const bool wants_persistent = (request.control & kCtlPersistent) != 0;
    // Requests the client never sends: a length no segment or pipe
    // transfer could back, or a persistent request the hello did not
    // offer.
    if (request.length > kMaxShmBytes ||
        (wants_persistent && !config.persistent)) {
      return server_exit(5);
    }
    packet.resize(request.length);
    if (request.length != 0 &&
        !read_full(kCtlFd, packet.data(), request.length)) {
      return server_exit(0);
    }

    ++exec_index;
    if (config.server_exit_at != 0 && exec_index == config.server_exit_at) {
      return server_exit(9);  // simulated fork-server crash
    }

    Reply reply;
    bool timed_out = false;
    if (wants_persistent) {
      std::uint32_t budget = control_budget(request.control);
      if (budget == 0) budget = 1;
      const bool fresh = !persistent.alive();
      ctl_store(segment, CtlBlock{control_slot(request.control),
                                  fresh ? budget : persistent.budget,
                                  exec_index});
      if (fresh) {
        // The child zeroes each slot on its own first use: wiping all
        // slots here would destroy results the pipelined client has not
        // read yet.
        const pid_t child = ::fork();
        if (child < 0) return server_exit(5);
        if (child == 0) {
          supervise::apply_in_child(jail);
          LoopExit born;
          born.role = LoopExit::Role::kPersistentChild;
          return born;
        }
        persistent = PersistentChild{child, 1, budget};
      } else {
        ++persistent.iteration;
        ::kill(persistent.pid, SIGCONT);
      }
      const int wstatus = await_child(persistent.pid, request.timeout_ms,
                                      /*wait_stops=*/true, timed_out);
      reply = persistent_reply(persistent, wstatus, timed_out);
    } else {
      // Fork-per-exec: a pristine fork-per-exec region for the child (the
      // map invariant, all words zero, and a magic-less aux block). The
      // slot region keeps its own invariants (each persistent child
      // re-zeroes a slot on first use), so it is left alone.
      std::memset(segment, 0, kSegmentBytes);
      bool deadline_spent = false;
      const pid_t child =
          config.exec_fork != nullptr
              ? config.exec_fork->fork_child(packet, request.timeout_ms,
                                             deadline_spent)
              : ::fork();
      if (child < 0) return server_exit(5);
      if (child == 0) {
        supervise::apply_in_child(jail);
        LoopExit born;
        born.role = LoopExit::Role::kExecChild;
        born.exec_index = exec_index;
        born.packet = std::move(packet);
        return born;
      }
      // The server enforces the wall-clock deadline itself: it is the
      // child's parent, so until the reap the pid provably belongs to this
      // child. A child that finishes right at the boundary is reaped
      // normally and reported as completed, not as a hang.
      const int wstatus =
          await_child(child, deadline_spent ? 0 : request.timeout_ms,
                      /*wait_stops=*/false, timed_out);
      if (config.exec_fork != nullptr) config.exec_fork->after_reap();
      reply.wstatus = static_cast<std::int32_t>(wstatus);
      if (timed_out || deadline_spent) reply.flags |= kReplyTimedOut;
    }

    if (!write_reply(kStFd, reply)) return server_exit(6);

    if (config.server_retire_after != 0 &&
        exec_index >= config.server_retire_after) {
      // Orderly retirement: the reply above completed this execution, so
      // the client loses nothing — its next request sees EOF plus our
      // exit status 0 and respawns without charging a lost server.
      kill_persistent_child(persistent);
      return server_exit(0);
    }
  }
}

}  // namespace icsfuzz::oop
