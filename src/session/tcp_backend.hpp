// TCP session transport backend (BackendKind::kTcp) — drives an external
// `icsfuzz-shim-target --tcp` session server over a real loopback socket.
//
// Per execution: the session stream is split into its canonical message
// list (framing.hpp — the same split the server's reassembler will
// reproduce from the segmented TCP stream). A server whose hello carries
// kTcpCapKeepConnection (the in-tree shim) keeps one connection for its
// lifetime and takes each session as one batch: a length header on the
// control pipe, the whole stream in one send, one wait for sessions-done,
// and every response in one receive, split by the server's length table.
// Against any other server (a preloaded stock binary) one connection is
// one session, each message is sent and its response read back in
// lockstep, and the client's half-close ends it. session_wire.hpp holds
// both contracts.
// The server traces the whole session into the shared-memory map; the
// client adopts it (CoverageMap::adopt_external), injects the
// client-computed session-state cells, and runs the exact in-process
// analysis — which is what makes in-process vs over-TCP execution a
// differential oracle (tests/test_session.cpp).
#pragma once

#include <memory>

#include "fuzzer/exec_backend.hpp"

namespace icsfuzz::session {

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, bool dense_reference,
    telem::Sink telemetry);

}  // namespace icsfuzz::session
