#include "session/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/server_loop.hpp"
#include "sanitizer/fault.hpp"
#include "session/reassembler.hpp"
#include "session/session_wire.hpp"

namespace icsfuzz::session {

namespace {

/// MSG_NOSIGNAL exact send: a client that closed its read side must surface
/// as a short write, never as a process-killing SIGPIPE.
bool send_full(int fd, const std::uint8_t* data, std::size_t size) {
  while (size != 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reused across sessions: every response of the session, and the one
/// being produced.
struct SessionBuffers {
  Bytes responses;
  Bytes response;
};

/// One session: exactly the `stream_len` bytes its control-pipe header
/// announced. Reassembles them and serves each message into the reused
/// session buffer, recording each response's length in the sync block's
/// table; the reassembler sees those bytes and nothing more, so a torn
/// frame at the end of one session is that session's residue and can never
/// bleed into the next. Then publishes sessions-done and sends every
/// response at once — in that order, so a response total larger than the
/// socket buffers cannot deadlock (session_wire.hpp). False when the
/// connection drops first: the client only tears it down on a failure,
/// after which it respawns the server.
bool serve_session(ProtocolTarget& target, Framing framing, int conn,
                   std::size_t stream_len, std::uint8_t* segment,
                   cov::DirtyWordList& dirty, SessionBuffers& buffers,
                   std::uint64_t& sessions) {
  // Pristine per-session map state: sparse-clear the previous session's
  // dirty words, invalidate the aux magic so a torn-down session is never
  // mistaken for a completed one.
  auto* words = reinterpret_cast<std::uint64_t*>(segment);
  for (std::uint32_t i = 0; i < dirty.count; ++i) words[dirty.indices[i]] = 0;
  dirty.count = 0;
  std::memset(segment + oop::kAuxOffset, 0, 4);

  // Same arming order as every other backend (reset, fault sink, trace) —
  // the differential oracle depends on the symmetry.
  target.reset();
  san::FaultSink::arm();
  cov::begin_trace(segment, &dirty);

  Bytes& responses = buffers.responses;
  Bytes& response = buffers.response;
  responses.clear();
  std::uint32_t served = 0;
  const auto serve_message = [&](ByteSpan message) {
    response.clear();
    // A tripped sink models the server process having died on its first
    // fault: later messages of the session go unanswered. The in-process
    // session backend applies the identical guard.
    if (!san::FaultSink::tripped()) target.process_into(message, response);
    append(responses, ByteSpan(response));
    sync_store_response_len(segment, served++,
                            static_cast<std::uint32_t>(response.size()));
  };

  StreamReassembler reassembler(framing, serve_message);
  std::uint8_t chunk[4096];
  while (stream_len != 0) {
    const ssize_t got = ::read(conn, chunk, std::min(sizeof chunk, stream_len));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    reassembler.feed(ByteSpan(chunk, static_cast<std::size_t>(got)));
    stream_len -= static_cast<std::size_t>(got);
  }

  // End of the announced stream: the residue — an incomplete tail, a
  // malformed-header rest, or the post-cap raw tail — is the session's
  // final message.
  const ByteSpan residue = reassembler.finish();
  if (!residue.empty()) serve_message(residue);

  oop::AuxResult result;
  result.events = cov::tls_event_count;
  cov::end_trace();
  san::FaultSink::disarm_into(result.faults);
  oop::aux_store(segment + oop::kAuxOffset, oop::kAuxBytes, result);
  sync_publish_session_done(segment, ++sessions, served);
  return send_full(conn, responses.data(), responses.size());
}

/// Waits for the client's one connection. A header already on the control
/// pipe means the client has connected (it writes the header after its
/// connect completes), so the connection is in the backlog; a bare hangup
/// is the shutdown of a client that never ran a session. Returns the
/// connection, -1 on that shutdown, or -2 on a socket error.
int accept_client(int listen_fd) {
  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {oop::kCtlFd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return -2;
    }
    if ((fds[0].revents & POLLIN) == 0 && (fds[1].revents & POLLIN) == 0) {
      if ((fds[1].revents & (POLLHUP | POLLERR)) != 0) return -1;
      continue;
    }
    const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn >= 0) return conn;
    if (errno != EINTR && errno != ECONNABORTED) return -2;
  }
}

}  // namespace

int run_tcp_session_server(ProtocolTarget& target, Framing framing) {
  const oop::AttachedSegment segment =
      oop::attach_segment_from_env(kTcpSegmentBytes);
  if (!segment.valid()) return 3;

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return 8;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the kernel picks, the hello announces
  socklen_t addr_len = sizeof addr;
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd, 16) != 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(listen_fd);
    return 8;
  }

  const std::uint32_t hello[2] = {
      oop::kTcpHelloMagic,
      static_cast<std::uint32_t>(ntohs(addr.sin_port)) |
          oop::kTcpCapKeepConnection};
  if (!oop::write_full(oop::kStFd, hello, sizeof hello)) {
    ::close(listen_fd);
    return 4;
  }

  const int conn = accept_client(listen_fd);
  ::close(listen_fd);  // one connection per server lifetime
  if (conn < 0) return conn == -1 ? 0 : 8;
  const int nodelay = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);

  // The whole-map memset runs once; later sessions sparse-clear through
  // the dirty list (the begin_execution analogue).
  std::memset(segment.data, 0, cov::kMapSize);
  static cov::DirtyWordList dirty;
  dirty.count = 0;
  SessionBuffers buffers;
  std::uint64_t sessions = 0;

  int status = 0;
  for (;;) {
    std::uint32_t stream_len = 0;
    // EOF in place of a header: orderly shutdown.
    if (!oop::read_full(oop::kCtlFd, &stream_len, sizeof stream_len)) break;
    // The header crosses a process boundary, so it gets the same distrust
    // as the shm-size env: the client never announces more than the bytes
    // either side will ever consider.
    if (stream_len > kMaxSessionStreamBytes) {
      status = 9;
      break;
    }
    if (!serve_session(target, framing, conn, stream_len, segment.data,
                       dirty, buffers, sessions)) {
      status = 8;
      break;
    }
  }
  ::close(conn);
  return status;
}

}  // namespace icsfuzz::session
