// Loopback TCP session server — the `icsfuzz-shim-target --tcp` mode.
//
// The in-tree hermetic stand-in for a real networked ICS server: binds an
// ephemeral 127.0.0.1 port, announces it through the session hello on the
// inherited status descriptor (exec_protocol.hpp::kTcpHelloMagic, with the
// kTcpCapKeepConnection bit set), accepts ONE connection for its whole
// lifetime and serves every *session* over it. Before each session the
// client writes a [u32 stream_len] header on the control descriptor; the
// server reads exactly that many bytes from the connection, reassembles
// them with the per-protocol framing (reassembler.hpp) and feeds each
// complete message (and, at the announced length, the residue if any) to
// the wrapped ProtocolTarget. Coverage for the whole session lands in the
// shared-memory map as ONE trace. Each message's response length goes to
// the session_wire.hpp table; once the session is published (one wake),
// all the raw response bytes follow in one send. Socket traffic stays
// pure protocol bytes.
//
// Shutdown mirrors the fork server: EOF on the inherited control
// descriptor (the client closing its pipe end) in place of a header ends
// the server with exit status 0.
#pragma once

#include "protocols/protocol_target.hpp"
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// Serves sessions until control-pipe EOF. Exit codes match
/// oop::run_shim_server's conventions: 0 orderly shutdown, 3 segment
/// attach failure, 4 hello write failure, 8 socket setup failure or a
/// connection lost mid-session, 9 a session header above
/// kMaxSessionStreamBytes.
int run_tcp_session_server(ProtocolTarget& target, Framing framing);

}  // namespace icsfuzz::session
