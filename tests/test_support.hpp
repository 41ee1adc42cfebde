// Shared helpers for the icsfuzz test suite.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/dense_ref.hpp"
#include "coverage/instrument.hpp"
#include "protocols/protocol_target.hpp"
#include "sanitizer/fault.hpp"

namespace icsfuzz::test {

// -- Process/environment helpers shared by the fork-server suites. --------

#ifdef ICSFUZZ_SHIM_PATH
/// argv for the fork-server shim serving `project` (CMake injects the
/// built binary's path into shim-linked suites).
inline std::vector<std::string> shim_cmd(
    const std::string& project = "libmodbus") {
  return {ICSFUZZ_SHIM_PATH, "--project", project};
}

/// argv for the loopback TCP *session* server over the same stacks.
inline std::vector<std::string> shim_tcp_cmd(const std::string& project) {
  return {ICSFUZZ_SHIM_PATH, "--project", project, "--tcp"};
}
#endif

/// Scoped environment knob: set for the executor spawned inside the test,
/// guaranteed cleared on exit so suites stay independent.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// -- Socket helpers shared by the session/TCP suites. ---------------------

/// Binds + listens on an ephemeral 127.0.0.1 port. Returns the listening
/// fd (or -1) and fills `port` with the kernel-assigned port number.
inline int bind_ephemeral_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 8) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// Deadline-guarded loopback connect: nonblocking connect + poll, then the
/// socket is returned in blocking mode. -1 on refusal or deadline.
inline int connect_loopback_deadline(std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    struct pollfd pfd {fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t errlen = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &errlen);
    if (soerr != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

/// RAII server thread: runs `body` on a fresh thread, joins on scope exit
/// (destruction blocks until the body returns — pair it with a shutdown
/// signal the body observes, e.g. closing the socket it serves).
class ServerThread {
 public:
  explicit ServerThread(std::function<void()> body)
      : thread_(std::move(body)) {}
  ~ServerThread() {
    if (thread_.joinable()) thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  std::thread thread_;
};

/// TCP states as /proc/net/tcp prints them (include/net/tcp_states.h).
inline constexpr unsigned kTcpEstablished = 0x01;
inline constexpr unsigned kTcpTimeWait = 0x06;

/// One IPv4 row of /proc/net/tcp.
struct TcpSocketRow {
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  unsigned state = 0;
  unsigned long inode = 0;  ///< 0 for sockets no descriptor holds (TIME_WAIT)
};

inline std::vector<TcpSocketRow> proc_net_tcp() {
  std::vector<TcpSocketRow> rows;
  std::FILE* file = std::fopen("/proc/net/tcp", "r");
  if (file == nullptr) return rows;
  char line[512];
  (void)std::fgets(line, sizeof line, file);  // column header
  while (std::fgets(line, sizeof line, file) != nullptr) {
    TcpSocketRow row;
    unsigned local_port = 0;
    unsigned remote_port = 0;
    if (std::sscanf(line,
                    " %*u: %*x:%x %*x:%x %x %*x:%*x %*x:%*x %*x %*u %*d %lu",
                    &local_port, &remote_port, &row.state, &row.inode) == 4) {
      row.local_port = static_cast<std::uint16_t>(local_port);
      row.remote_port = static_cast<std::uint16_t>(remote_port);
      rows.push_back(row);
    }
  }
  std::fclose(file);
  return rows;
}

/// One process as /proc/<pid>/stat describes it.
struct ProcStat {
  pid_t pid = 0;
  char state = '?';
  pid_t ppid = 0;
  pid_t pgrp = 0;
};

/// Every process /proc lists right now.
inline std::vector<ProcStat> proc_stats() {
  std::vector<ProcStat> stats;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return stats;
  while (const dirent* entry = ::readdir(proc)) {
    const std::string pid = entry->d_name;
    if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::FILE* stat = std::fopen(("/proc/" + pid + "/stat").c_str(), "r");
    if (stat == nullptr) continue;
    char buf[1024] = {};
    const std::size_t got = std::fread(buf, 1, sizeof buf - 1, stat);
    std::fclose(stat);
    // The state, parent pid and process group follow the ")" that closes
    // the command name (which may itself contain spaces or parentheses).
    const char* close_paren = std::strrchr(buf, ')');
    ProcStat row;
    if (got == 0 || close_paren == nullptr ||
        std::sscanf(close_paren + 1, " %c %d %d", &row.state, &row.ppid,
                    &row.pgrp) != 3) {
      continue;
    }
    row.pid = static_cast<pid_t>(std::stoi(pid));
    stats.push_back(row);
  }
  ::closedir(proc);
  return stats;
}

/// Pids of the processes whose parent is `parent`.
inline std::vector<pid_t> child_pids(pid_t parent) {
  std::vector<pid_t> children;
  for (const ProcStat& row : proc_stats()) {
    if (row.ppid == parent) children.push_back(row.pid);
  }
  return children;
}

/// Local ports of the TCP sockets that this process's children hold open:
/// the ports of the session servers an executor spawned. Lets a test look
/// at its own server's sockets while other suites run in parallel.
inline std::set<std::uint16_t> child_tcp_ports() {
  std::set<unsigned long> inodes;
  for (const pid_t child : child_pids(::getpid())) {
    const std::string fd_dir = "/proc/" + std::to_string(child) + "/fd";
    DIR* fds = ::opendir(fd_dir.c_str());
    if (fds == nullptr) continue;
    while (const dirent* fd = ::readdir(fds)) {
      char target[64] = {};
      const std::string link = fd_dir + "/" + fd->d_name;
      if (::readlink(link.c_str(), target, sizeof target - 1) > 0) {
        unsigned long inode = 0;
        if (std::sscanf(target, "socket:[%lu]", &inode) == 1) {
          inodes.insert(inode);
        }
      }
    }
    ::closedir(fds);
  }
  std::set<std::uint16_t> ports;
  for (const TcpSocketRow& row : proc_net_tcp()) {
    if (row.inode != 0 && inodes.count(row.inode) != 0) {
      ports.insert(row.local_port);
    }
  }
  return ports;
}

/// Sockets in `state` whose local or remote end is `port`.
inline std::size_t count_tcp_sockets(std::uint16_t port, unsigned state) {
  std::size_t count = 0;
  for (const TcpSocketRow& row : proc_net_tcp()) {
    if (row.state == state &&
        (row.local_port == port || row.remote_port == port)) {
      ++count;
    }
  }
  return count;
}

/// Pins the calling thread to the first CPU it may run on, for the scope.
/// A target process spawned meanwhile inherits the mask, so both ends of a
/// futex handoff share the CPU and every wake is a real context switch —
/// where a lost wakeup shows, as a deadline hang.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// -- Coverage-trace helpers shared by the sparse/SIMD/OOP suites. ---------

/// Bumps exactly the trace cell `cell` while tracing is armed, by solving
/// the instrumentation update rule for the needed block id:
/// hit(cell ^ prev) touches index (cell ^ prev) ^ prev == cell.
inline void emit_cell(std::uint32_t cell) {
  cov::hit(cell ^ cov::tls_prev_location);
}

/// One synthetic execution: the (cell, raw-count) multiset to emit.
using CellPattern = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Emits every (cell, count) of `pattern` through the armed trace.
inline void emit_pattern(const CellPattern& pattern) {
  for (const auto& [cell, count] : pattern) {
    for (std::uint32_t i = 0; i < count; ++i) emit_cell(cell);
  }
}

/// Every kernel this build + CPU can actually dispatch to (scalar first).
inline std::vector<cov::simd::Kernel> runnable_kernels() {
  std::vector<cov::simd::Kernel> kernels = {cov::simd::Kernel::kScalar};
  for (const cov::simd::Kernel kind :
       {cov::simd::Kernel::kSSE2, cov::simd::Kernel::kAVX2}) {
    if (cov::simd::ops_for(kind) != nullptr) kernels.push_back(kind);
  }
  return kernels;
}

/// Checks the map's trace dirty list is complete and duplicate-free
/// (every nonzero trace word listed exactly once). Returns an empty
/// string on success, a diagnostic otherwise — assert with
/// ASSERT_EQ(dirty_list_defect(map), "").
inline std::string dirty_list_defect(const cov::CoverageMap& map) {
  std::vector<bool> listed(cov::kMapWords, false);
  for (std::uint32_t i = 0; i < map.dirty_word_count(); ++i) {
    const std::uint16_t w = map.dirty_words()[i];
    if (listed[w]) return "word " + std::to_string(w) + " listed twice";
    listed[w] = true;
  }
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    const bool nonzero = cov::dense::load_word(map.trace(), w) != 0;
    if (nonzero != listed[w]) {
      return "word " + std::to_string(w) +
             (nonzero ? " nonzero but unlisted" : " listed but zero");
    }
  }
  return {};
}

struct ArmedRun {
  Bytes response;
  std::vector<san::FaultReport> faults;

  [[nodiscard]] bool crashed() const { return !faults.empty(); }
  [[nodiscard]] bool crashed_with(san::FaultKind kind) const {
    for (const san::FaultReport& fault : faults) {
      if (fault.kind == kind) return true;
    }
    return false;
  }
};

/// Runs one packet against a target with the fault sink armed (coverage
/// not traced), the way the executor would, and returns the observables.
inline ArmedRun run_armed(ProtocolTarget& target, const Bytes& packet) {
  target.reset();
  san::FaultSink::arm();
  ArmedRun run;
  run.response = target.process(ByteSpan(packet.data(), packet.size()));
  run.faults = san::FaultSink::disarm();
  return run;
}

/// Runs a packet with no expectation of faults; asserts cleanliness at the
/// call site via the returned flag.
inline Bytes run_clean(ProtocolTarget& target, const Bytes& packet,
                       bool* fault_free = nullptr) {
  ArmedRun run = run_armed(target, packet);
  if (fault_free != nullptr) *fault_free = !run.crashed();
  return run.response;
}

}  // namespace icsfuzz::test
