#include "session/tcp_backend.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shm_segment.hpp"
#include "inject/inject_protocol.hpp"
#include "session/framing.hpp"
#include "session/session_state.hpp"
#include "session/session_wire.hpp"

extern char** environ;

namespace icsfuzz::session {

namespace {

std::uint64_t monotonic_ms() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

class TcpSessionBackend final : public fuzz::ExecBackend {
 public:
  TcpSessionBackend(const fuzz::ExecBackendConfig& config,
                    bool dense_reference, telem::Sink telemetry)
      : options_(config.session),
        target_cmd_(config.target_cmd),
        preload_(config.preload),
        exec_timeout_ms_(config.exec_timeout_ms),
        handshake_timeout_ms_(config.handshake_timeout_ms),
        dense_(dense_reference),
        telemetry_(telemetry) {
    segment_ = oop::ShmSegment::create(kTcpSegmentBytes);
  }

  ~TcpSessionBackend() override { stop_server(/*orderly=*/true); }

  [[nodiscard]] fuzz::BackendKind kind() const override {
    return fuzz::BackendKind::kTcp;
  }

  [[nodiscard]] const SessionTraffic* traffic() const override {
    return options_.record_traffic ? &traffic_ : nullptr;
  }

  cov::TraceSummary execute(ProtocolTarget& /*target*/, ByteSpan packet,
                            cov::CoverageMap& map,
                            fuzz::ExecResult& result) override {
    const std::size_t residue_index =
        split_stream(options_.framing, packet, ranges_);
    lengths_.resize(ranges_.size());
    if (options_.record_traffic) traffic_.clear();

    if (!ensure_server()) {
      return fail(map, result, san::FaultKind::Segv, "tcp-server-lost",
                  "tcp session server unreachable: " + last_error_);
    }

    // One wall-clock deadline spans the whole session (the out-of-process
    // analogue treats a session as one execution, and so does the hang
    // accounting here).
    const std::uint64_t deadline =
        exec_timeout_ms_ > 0
            ? monotonic_ms() + static_cast<std::uint64_t>(exec_timeout_ms_)
            : 0;

    if (conn_ < 0) {
      conn_ = connect_deadline(deadline);
      if (conn_ < 0) {
        stop_server(/*orderly=*/false);
        return fail(map, result, san::FaultKind::Segv, "tcp-server-lost",
                    "tcp session connect failed: " + last_error_);
      }
    }
    // Every response of the session, back to back; lengths_ delimits them.
    result.response.clear();
    const bool served =
        keep_connection_
            ? run_batch(packet, deadline, result.response)
            : run_lockstep(packet, residue_index, deadline, result.response);
    if (!served) {
      stop_server(/*orderly=*/false);
      return fail(map, result, failure_kind_, failure_site_,
                  std::move(failure_detail_));
    }

    oop::AuxResult aux;
    if (!oop::aux_load(segment_.data() + oop::kAuxOffset, oop::kAuxBytes,
                       aux)) {
      stop_server(/*orderly=*/false);
      return fail(map, result, san::FaultKind::Segv, "tcp-server-lost",
                  "tcp session server published no aux block");
    }

    // Adopt the server's trace, inject the client-computed session-state
    // cells, then run the exact in-process analysis.
    map.adopt_external(reinterpret_cast<const std::uint64_t*>(
        segment_.data()));
    result.session_states.clear();
    std::uint32_t state = kInitialSessionState;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      const ByteSpan response(result.response.data() + offset, lengths_[i]);
      offset += lengths_[i];
      state = next_session_state(
          state, classify_response(options_.framing, response), i);
      result.session_states.push_back(state);
      if (options_.record_traffic) {
        const std::uint8_t* data = packet.data() + ranges_[i].offset;
        traffic_.requests.emplace_back(data, data + ranges_[i].length);
        traffic_.responses.emplace_back(response.begin(), response.end());
      }
    }
    if (options_.state_coverage) {
      for (const std::uint32_t s : result.session_states) {
        map.bump_trace_cell(session_state_cell(s));
      }
    }
    result.session_messages = static_cast<std::uint32_t>(ranges_.size());

    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();
    result.events = aux.events;
    result.faults.assign(aux.faults.begin(), aux.faults.end());
    result.response_truncated = false;
    if (aux.faults_truncated) {
      result.faults.push_back(san::FaultReport{
          san::FaultKind::Segv, san::site_id("oop-aux-faults-truncated"),
          "fault reports overflowed the shared-memory aux block"});
    }
    return summary;
  }

  [[nodiscard]] std::uint64_t server_restarts() const { return restarts_; }

 private:
  /// A kept-connection session (the batch contract of session_wire.hpp):
  /// announce the stream, send it at once, wait once for sessions-done,
  /// check the response table and read exactly its total. False, with
  /// failure_* set, on any failure.
  bool run_batch(ByteSpan packet, std::uint64_t deadline, Bytes& responses) {
    // The header announces the bytes this session will send: the end of
    // the last range, because bytes past kMaxSessionStreamBytes never are.
    const auto stream_len = static_cast<std::uint32_t>(
        ranges_.empty() ? 0 : ranges_.back().offset + ranges_.back().length);
    if (!oop::write_full(ctl_write_, &stream_len, sizeof stream_len)) {
      return lost("tcp session header write failed");
    }
    if (!send_deadline(packet.data(), stream_len, deadline)) return false;
    if (!sync_wait_sessions_done(segment_.data(), sessions_seen_ + 1,
                                 deadline)) {
      return hang("session exceeded the " + std::to_string(exec_timeout_ms_) +
                  " ms tcp deadline");
    }
    ++sessions_seen_;
    std::uint64_t total = 0;
    if (const char* failed = load_response_table(
            segment_.data(), ranges_.size(), lengths_.data(), total)) {
      return lost(std::string("tcp session server published a bad response "
                              "table: ") +
                  failed);
    }
    responses.resize(total);
    return recv_deadline(responses.data(), responses.size(), deadline);
  }

  /// A per-connection session (the lockstep contract of session_wire.hpp):
  /// each message is sent and its response read before the next, and the
  /// client's half-close ends the session. False, with failure_* set, on
  /// any failure.
  bool run_lockstep(ByteSpan packet, std::size_t residue_index,
                    std::uint64_t deadline, Bytes& responses) {
    const std::uint64_t base_served = served_seen_;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      if (!send_deadline(packet.data() + ranges_[i].offset, ranges_[i].length,
                         deadline)) {
        return false;
      }
      if (i == residue_index) {
        // The server can only complete the residue at EOF — half-close
        // BEFORE waiting for its ack or the session deadlocks.
        ::shutdown(conn_, SHUT_WR);
      }
      if (!sync_wait_served(segment_.data(), base_served + i + 1, deadline)) {
        return hang("session exceeded the " +
                    std::to_string(exec_timeout_ms_) + " ms tcp deadline");
      }
      if (const char* failed =
              load_response_len(segment_.data(), lengths_[i], total)) {
        return lost(std::string("tcp session server published a bad "
                                "response length: ") +
                    failed);
      }
      const std::size_t at = responses.size();
      responses.resize(at + lengths_[i]);
      if (!recv_deadline(responses.data() + at, lengths_[i], deadline)) {
        return false;
      }
    }
    if (residue_index == ranges_.size()) ::shutdown(conn_, SHUT_WR);
    if (!sync_wait_sessions_done(segment_.data(), sessions_seen_ + 1,
                                 deadline)) {
      return hang("session completion missed the tcp deadline");
    }
    ++sessions_seen_;
    served_seen_ = base_served + ranges_.size();
    close_abortive(conn_);
    conn_ = -1;
    return true;
  }

  /// Sends exactly `size` bytes before the session deadline. MSG_NOSIGNAL:
  /// a server that closed its end must surface as a failed send, never as
  /// a process-killing SIGPIPE.
  bool send_deadline(const std::uint8_t* data, std::size_t size,
                     std::uint64_t deadline) {
    while (size != 0) {
      const ssize_t sent =
          ::send(conn_, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (sent >= 0) {
        data += sent;
        size -= static_cast<std::size_t>(sent);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return lost("tcp session send failed");
      }
      if (!poll_deadline(POLLOUT, deadline)) {
        return hang("session send missed the tcp deadline");
      }
    }
    return true;
  }

  /// Reads exactly `size` bytes before the session deadline. In the common
  /// case they are already queued and one recv takes them all.
  bool recv_deadline(std::uint8_t* data, std::size_t size,
                     std::uint64_t deadline) {
    while (size != 0) {
      const ssize_t got = ::recv(conn_, data, size, MSG_DONTWAIT);
      if (got > 0) {
        data += got;
        size -= static_cast<std::size_t>(got);
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      const bool would_block =
          got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      if (!would_block || !poll_deadline(POLLIN, deadline)) {
        return hang("session response read missed the tcp deadline");
      }
    }
    return true;
  }

  /// Waits for `events` on the connection; false once the deadline passes.
  [[nodiscard]] bool poll_deadline(short events,
                                   std::uint64_t deadline) const {
    for (;;) {
      struct pollfd pfd {conn_, events, 0};
      const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
      if (ready > 0) return true;
      if (ready == 0 || errno != EINTR) return false;
    }
  }

  bool lost(std::string detail) {
    return record_failure(san::FaultKind::Segv, "tcp-server-lost",
                          std::move(detail));
  }

  bool hang(std::string detail) {
    return record_failure(san::FaultKind::Hang, "tcp-session-deadline",
                          std::move(detail));
  }

  bool record_failure(san::FaultKind kind, const char* site,
                      std::string detail) {
    failure_kind_ = kind;
    failure_site_ = site;
    failure_detail_ = std::move(detail);
    return false;
  }

  /// Transport failure: the map still runs one (empty) trace cycle so the
  /// campaign-lifetime analysis stays uniform, and the failure surfaces as
  /// a synthetic fault exactly like the fork-server transport's.
  cov::TraceSummary fail(cov::CoverageMap& map, fuzz::ExecResult& result,
                         san::FaultKind kind, const char* site,
                         std::string detail) {
    if (telemetry_.enabled()) {
      telemetry_.add(kind == san::FaultKind::Hang
                         ? telem::Counter::kOopHangs
                         : telem::Counter::kOopServerLost);
    }
    map.adopt_external(nullptr);
    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();
    result.events = 0;
    result.faults.clear();
    result.faults.push_back(
        san::FaultReport{kind, san::site_id(site), std::move(detail)});
    result.response.clear();
    result.response_truncated = false;
    result.session_states.clear();
    result.session_messages = 0;
    return summary;
  }

  [[nodiscard]] int remaining_ms(std::uint64_t deadline) const {
    if (deadline == 0) return -1;
    const std::uint64_t now = monotonic_ms();
    return now >= deadline ? 0 : static_cast<int>(deadline - now);
  }

  bool ensure_server() {
    if (server_pid_ > 0) return true;
    if (!segment_.valid()) {
      last_error_ = "shm segment: " + segment_.error();
      return false;
    }
    if (!segment_.named()) {
      last_error_ =
          "tcp session server needs a named shm segment (anonymous "
          "fallback cannot cross exec)";
      return false;
    }
    if (target_cmd_.empty()) {
      last_error_ = "no target_cmd configured";
      return false;
    }
    oop::ignore_sigpipe_once();  // the session header crosses a pipe
    // Fresh server, fresh wire state: the sync counters restart at zero
    // with the new process, so the client's expectations must too.
    std::memset(segment_.data(), 0, kTcpSegmentBytes);
    served_seen_ = 0;
    sessions_seen_ = 0;

    int ctl_pipe[2];
    int st_pipe[2];
    if (::pipe2(ctl_pipe, O_CLOEXEC) != 0) {
      last_error_ = std::string("pipe2: ") + std::strerror(errno);
      return false;
    }
    if (::pipe2(st_pipe, O_CLOEXEC) != 0) {
      last_error_ = std::string("pipe2: ") + std::strerror(errno);
      ::close(ctl_pipe[0]);
      ::close(ctl_pipe[1]);
      return false;
    }

    // Materialize argv/envp before fork (same discipline as the fork
    // server: nothing between fork and exec may allocate).
    std::vector<std::string> env_store;
    for (char** env = environ; *env != nullptr; ++env) {
      const std::string_view entry(*env);
      if (entry.rfind("ICSFUZZ_OOP_SHM", 0) == 0) continue;
      // When spawning under the injection runtime, append_preload_env
      // provides these two itself (folding the inherited LD_PRELOAD in).
      if (!preload_.empty() && (entry.rfind("LD_PRELOAD=", 0) == 0 ||
                                entry.rfind("ICSFUZZ_INJECT_MODE=", 0) == 0)) {
        continue;
      }
      env_store.emplace_back(entry);
    }
    env_store.push_back(std::string(oop::kShmNameEnv) + "=" +
                        segment_.name());
    env_store.push_back(std::string(oop::kShmSizeEnv) + "=" +
                        std::to_string(segment_.size()));
    inject::append_preload_env(preload_, inject::kInjectModeTcp, env_store);
    std::vector<char*> envp;
    envp.reserve(env_store.size() + 1);
    for (std::string& entry : env_store) envp.push_back(entry.data());
    envp.push_back(nullptr);
    std::vector<char*> argv;
    argv.reserve(target_cmd_.size() + 1);
    for (std::string& arg : target_cmd_) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      last_error_ = std::string("fork: ") + std::strerror(errno);
      ::close(ctl_pipe[0]);
      ::close(ctl_pipe[1]);
      ::close(st_pipe[0]);
      ::close(st_pipe[1]);
      return false;
    }
    if (pid == 0) {
      ::setpgid(0, 0);
      // Move the child-side ends clear of the protocol fd range before
      // landing them on kCtlFd/kStFd (an end could already occupy one).
      int ctl = ctl_pipe[0];
      int st = st_pipe[1];
      if (ctl < oop::kStFd + 1) ctl = ::fcntl(ctl, F_DUPFD, oop::kStFd + 1);
      if (st < oop::kStFd + 1) st = ::fcntl(st, F_DUPFD, oop::kStFd + 1);
      if (ctl < 0 || st < 0 || ::dup2(ctl, oop::kCtlFd) < 0 ||
          ::dup2(st, oop::kStFd) < 0) {
        ::_exit(127);
      }
      ::execvpe(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }

    ::close(ctl_pipe[0]);
    ::close(st_pipe[1]);
    ctl_write_ = ctl_pipe[1];
    st_read_ = st_pipe[0];
    server_pid_ = pid;
    ++restarts_;
    if (telemetry_.enabled() && restarts_ > 1) {
      telemetry_.add(telem::Counter::kOopRestarts);
    }

    std::uint32_t hello[2] = {0, 0};
    if (oop::read_full_deadline(st_read_, hello, sizeof hello,
                                handshake_timeout_ms_) !=
            oop::ReadStatus::kOk ||
        hello[0] != oop::kTcpHelloMagic || (hello[1] & 0xFFFF) == 0) {
      last_error_ = "tcp session hello failed";
      stop_server(/*orderly=*/false);
      return false;
    }
    port_ = static_cast<std::uint16_t>(hello[1] & 0xFFFF);
    keep_connection_ = (hello[1] & oop::kTcpCapKeepConnection) != 0;
    return true;
  }

  int connect_deadline(std::uint64_t deadline) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      last_error_ = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    const int flags = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (errno != EINPROGRESS) {
        last_error_ = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
      }
      struct pollfd pfd {fd, POLLOUT, 0};
      if (::poll(&pfd, 1, remaining_ms(deadline)) <= 0) {
        last_error_ = "connect deadline";
        ::close(fd);
        return -1;
      }
      int soerr = 0;
      socklen_t len = sizeof soerr;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        last_error_ = std::string("connect: ") + std::strerror(soerr);
        ::close(fd);
        return -1;
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for the send path
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    return fd;
  }

  /// RST close (SO_LINGER 0): this side's own close never enters
  /// TIME_WAIT. On the per-connection path the client half-closes first,
  /// so a FIN from the server would still move this socket to TIME_WAIT
  /// before the close runs; the injection runtime's close() resets the
  /// stock server's end instead (docs/INJECTION.md).
  static void close_abortive(int fd) {
    struct linger lg {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd);
  }

  void stop_server(bool orderly) {
    if (conn_ >= 0) {
      close_abortive(conn_);
      conn_ = -1;
    }
    if (ctl_write_ >= 0) {
      ::close(ctl_write_);  // EOF: the server exits 0
      ctl_write_ = -1;
    }
    if (st_read_ >= 0) {
      ::close(st_read_);
      st_read_ = -1;
    }
    if (server_pid_ > 0) {
      if (orderly) {
        // Grace window for the EOF-triggered exit before the SIGKILL.
        for (int i = 0; i < 50; ++i) {
          if (::waitpid(server_pid_, nullptr, WNOHANG) == server_pid_) {
            server_pid_ = -1;
            return;
          }
          ::usleep(2000);
        }
      }
      ::kill(server_pid_, SIGKILL);
      while (::waitpid(server_pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
      server_pid_ = -1;
    }
  }

  SessionOptions options_;
  std::vector<std::string> target_cmd_;
  std::string preload_;
  int exec_timeout_ms_;
  int handshake_timeout_ms_;
  bool dense_;
  telem::Sink telemetry_;

  oop::ShmSegment segment_;
  pid_t server_pid_ = -1;
  int ctl_write_ = -1;
  int st_read_ = -1;
  std::uint16_t port_ = 0;
  /// The hello's kTcpCapKeepConnection: one connection for the server's
  /// lifetime, sessions delimited by control-pipe headers.
  bool keep_connection_ = false;
  int conn_ = -1;
  std::uint64_t served_seen_ = 0;
  std::uint64_t sessions_seen_ = 0;
  std::uint64_t restarts_ = 0;
  std::string last_error_;

  std::vector<MessageRange> ranges_;
  /// Each message's response length, delimiting ExecResult::response.
  std::vector<std::uint32_t> lengths_;
  SessionTraffic traffic_;
  /// The failed session's fault, set by lost()/hang().
  san::FaultKind failure_kind_ = san::FaultKind::Segv;
  const char* failure_site_ = "";
  std::string failure_detail_;
};

}  // namespace

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, bool dense_reference,
    telem::Sink telemetry) {
  return std::make_unique<TcpSessionBackend>(config, dense_reference,
                                             telemetry);
}

}  // namespace icsfuzz::session
