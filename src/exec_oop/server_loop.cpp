#include "exec_oop/server_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "exec_oop/futex_sync.hpp"
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

/// Waits for the fork-per-exec `child` with the per-exec deadline armed;
/// SIGKILLs it when the timer fires first. Returns the raw wstatus;
/// `timed_out` reports a deadline kill.
int await_child(pid_t child, std::uint32_t timeout_ms, bool& timed_out) {
  g_deadline_fired = 0;
  if (timeout_ms != 0) arm_deadline(timeout_ms);
  int wstatus = 0;
  timed_out = false;
  for (;;) {
    const pid_t reaped = ::waitpid(child, &wstatus, 0);
    if (reaped == child) break;
    if (reaped < 0 && errno == EINTR) {
      if (g_deadline_fired && !timed_out) {
        timed_out = true;
        ::kill(child, SIGKILL);
      }
      continue;
    }
    break;  // unexpected waitpid failure; report whatever we have
  }
  arm_deadline(0);
  return wstatus;
}

/// Server-side handle on the persistent child. The server stays its
/// parent until the reap, so a kill through `pid` can never hit a
/// recycled pid.
struct PersistentChild {
  pid_t pid = -1;
  int pidfd = -1;               ///< readable once the child has ended
  std::uint32_t generation = 0;  ///< start requests served so far

  [[nodiscard]] bool alive() const { return pid > 0; }
};

/// Reaps the persistent child and forgets it. Returns its wstatus.
int reap_persistent_child(PersistentChild& child) {
  int wstatus = 0;
  while (::waitpid(child.pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  ::close(child.pidfd);
  child.pid = -1;
  child.pidfd = -1;
  return wstatus;
}

/// SIGKILLs and reaps the persistent child, publishing nothing: the
/// client has moved on from it (shutdown, retirement, a new start).
void kill_persistent_child(PersistentChild& child) {
  if (!child.alive()) return;
  ::kill(child.pid, SIGKILL);
  (void)reap_persistent_child(child);
}

/// The server exit code a persistent child's end relays (a shim fault knob
/// the server no longer sees per execution), or -1 for none. Only a
/// configured knob gives its code this meaning, so a target that happens
/// to exit with it cannot stop the server.
int relayed_exit(const ServerLoopConfig& config, int wstatus) {
  if (!WIFEXITED(wstatus)) return -1;
  const int code = WEXITSTATUS(wstatus);
  if (config.server_exit_at != 0 && code == kRelayServerExitCode) return 9;
  if (config.server_retire_after != 0 && code == kRelayRetireCode) return 0;
  return -1;
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
  const pid_t server_pid = ::getpid();

  Bytes packet;
  PersistentChild persistent;
  for (;;) {
    struct pollfd events[2] = {{kCtlFd, POLLIN, 0},
                               {persistent.pidfd, POLLIN, 0}};
    if (::poll(events, persistent.alive() ? 2 : 1, -1) < 0 &&
        errno == EINTR) {
      continue;
    }
    if (persistent.alive() && events[1].revents != 0) {
      // The persistent child ended on its own: budget, crash, or a relayed
      // knob. Publish its end for the client, tagged with its generation.
      const int wstatus = reap_persistent_child(persistent);
      const int relay = relayed_exit(config, wstatus);
      end_record_publish(segment,
                         EndRecord{persistent.generation, wstatus,
                                   relay >= 0 ? kEndServerExit : 0u});
      if (relay >= 0) return server_exit(relay);
      continue;
    }

    Request request;
    if (!read_request(kCtlFd, request)) {
      kill_persistent_child(persistent);
      return server_exit(0);  // EOF: clean shutdown
    }
    // Requests the client never sends: a length no segment or pipe
    // transfer could back, an unknown control word, or a persistent
    // request the hello did not offer.
    if (request.length > kMaxShmBytes || request.control > kCtlKill ||
        (request.control != kCtlForkExec && !config.persistent)) {
      return server_exit(5);
    }
    packet.resize(request.length);
    if (request.length != 0 &&
        !read_full(kCtlFd, packet.data(), request.length)) {
      return server_exit(0);
    }

    if (request.control == kCtlStart) {
      kill_persistent_child(persistent);
      const pid_t child = ::fork();
      if (child < 0) return server_exit(5);
      if (child == 0) {
        // The child waits on the client with no deadline of its own: it
        // must not outlive the server that would kill it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != server_pid) ::_exit(0);
        supervise::apply_in_child(jail);
        LoopExit born;
        born.role = LoopExit::Role::kPersistentChild;
        return born;
      }
      persistent.pid = child;
      persistent.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, child, 0));
      if (persistent.pidfd < 0) {
        ::kill(child, SIGKILL);
        return server_exit(5);
      }
      ++persistent.generation;
      if (!write_reply(kStFd, Reply{})) return server_exit(6);
      continue;
    }

    if (request.control == kCtlKill) {
      // The client's deadline for the current request expired. A child
      // that already ended has its record out; otherwise kill it here.
      if (persistent.alive()) {
        ::kill(persistent.pid, SIGKILL);
        const int wstatus = reap_persistent_child(persistent);
        end_record_publish(segment,
                           EndRecord{persistent.generation, wstatus,
                                     kEndKilled});
      }
      continue;
    }

    // Fork-per-exec. The client numbers the executions (persistent ones
    // never cross this loop) and stamps this one's index into the sync
    // block.
    const std::uint64_t exec_index = std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(
            sync_field(segment, kSyncForkExecIndex)))
        .load(std::memory_order_relaxed);
    if (config.server_exit_at != 0 && exec_index == config.server_exit_at) {
      kill_persistent_child(persistent);
      return server_exit(9);  // simulated fork-server crash
    }
    // A pristine fork-per-exec region for the child (the map invariant,
    // all words zero, and a magic-less aux block). The slot region keeps
    // its own invariants (each persistent child re-zeroes a slot on first
    // use), so it is left alone.
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
    bool timed_out = false;
    const int wstatus = await_child(
        child, deadline_spent ? 0 : request.timeout_ms, timed_out);
    if (config.exec_fork != nullptr) config.exec_fork->after_reap();
    Reply reply;
    reply.wstatus = static_cast<std::int32_t>(wstatus);
    if (timed_out || deadline_spent) reply.flags |= kReplyTimedOut;
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

std::uint32_t persistent_child_await(std::uint8_t* segment,
                                     PersistentCursor& cursor) {
  if (!cursor.started) {
    cursor.started = true;
    cursor.next = futex::load(sync_field(segment, kSyncFirstRequest));
    std::uint32_t budget = 0;
    std::memcpy(&budget, sync_field(segment, kSyncBudget), sizeof(budget));
    cursor.last = cursor.next + (budget != 0 ? budget : 1) - 1;
  }
  futex::wait_counter(sync_field(segment, kSyncRequested), cursor.next + 1,
                      0);
  return request_slot(cursor.next);
}

bool persistent_child_done(std::uint8_t* segment, PersistentCursor& cursor) {
  const std::uint64_t served = cursor.next++;
  futex::counter_ref(sync_field(segment, kSyncDone))
      .store(served + 1, std::memory_order_release);
  futex::bump(sync_field(segment, kSyncEvent));
  return served == cursor.last;
}

}  // namespace icsfuzz::oop
