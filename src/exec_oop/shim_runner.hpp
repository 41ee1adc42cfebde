// Target-side half of the fork-server protocol for the shim binary
// (tools/icsfuzz_shim_target.cpp): what runs around an instrumented
// ProtocolTarget.
//
// The request loop itself — hello, requests, forks, deadlines, replies — is
// server_loop.hpp's, shared with the injection runtime; this file supplies
// the execution children. A fork-per-exec child (control == 0) runs one
// packet and _exits; the persistent child runs K executions through an
// ICSFUZZ_LOOP-style loop, futex-waiting between iterations for the
// client's next request (persistent_child_await). The shim always
// advertises the persistent capability.
//
// Kept in the library so future real-target harnesses can reuse it by
// linking against their own ProtocolTarget.
#pragma once

#include "protocols/protocol_target.hpp"

namespace icsfuzz::oop {

/// Deterministic fault-injection knobs, parsed from the environment by the
/// shim binary (tests drive the fork-server failure surface with these;
/// all default to "off"). Execution indices are 1-based.
struct ShimFaultPlan {
  /// Exit (code 7) before writing the hello — a target that never
  /// handshakes.
  bool no_handshake = false;
  /// On execution #N the (forked or persistent) child SIGKILLs itself
  /// mid-execution.
  std::uint64_t kill_child_at = 0;
  /// On execution #N the child raises SIGSEGV — a genuine memory-fault
  /// signal, so differential tests can compare the shim's crash
  /// classification bit-for-bit against a real segfaulting binary
  /// (kill_child_at's SIGKILL is indistinguishable from a deadline kill).
  std::uint64_t segv_at = 0;
  /// On execution #N the child hangs forever (the executor's wall-clock
  /// deadline must reap it).
  std::uint64_t hang_at = 0;
  /// On execution #N the child allocates until the resource jail's
  /// new_handler fires — the kOom classification path (pair with an
  /// ICSFUZZ_JAIL_AS_MB cap; an unjailed child exits through the marker
  /// code after a bounded number of untouched allocations).
  std::uint64_t oom_at = 0;
  /// Before serving execution #N the server process itself exits (code 9)
  /// — a crashed fork server the executor must respawn. A persistent
  /// child relays it to the server through its exit code.
  std::uint64_t server_exit_at = 0;
  /// After serving N executions the server exits 0 — an ORDERLY
  /// retirement (periodic server recycling) the client must distinguish
  /// from a lost server. Relayed like server_exit_at. 0 disables.
  std::uint64_t server_retire_after = 0;
};

/// Reads the ICSFUZZ_SHIM_* fault-injection variables.
ShimFaultPlan shim_fault_plan_from_env();

/// Attaches the shm segment named by the environment (exec_protocol.hpp)
/// and serves run requests on the protocol descriptors through
/// serve_fork_server until the control pipe closes. Returns the process
/// exit code (3: no usable segment, 7: no_handshake, otherwise the
/// loop's).
int run_shim_server(ProtocolTarget& target, const ShimFaultPlan& plan);

}  // namespace icsfuzz::oop
