#include "exec_oop/shim_runner.hpp"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/server_loop.hpp"
#include "sanitizer/fault.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::oop {

namespace {

std::uint64_t env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::strtoull(value, nullptr, 10);
}

/// Fault-plan OOM hook: allocates address space until the resource jail's
/// new_handler fires (_exit through supervise::kOomExitCode). Chunks are
/// never touched, so an unjailed run consumes address space only, and
/// after a bounded number of allocations the child leaves through the
/// marker code anyway — the hook exists to drive the jail's kOom
/// classification path, not to actually exhaust the host.
[[noreturn]] void exhaust_memory() {
  constexpr std::size_t kChunkBytes = 64u << 20;  // 64 MiB per allocation
  for (int i = 0; i < (1 << 14); ++i) {           // <= 1 TiB of VA
    (void)new std::uint8_t[kChunkBytes];
  }
  ::_exit(supervise::kOomExitCode);
}

/// The plan's child-side faults, keyed off the campaign-global execution
/// index — same semantics in a fork-per-exec child and a persistent
/// iteration.
void inject_child_faults(const ShimFaultPlan& plan, std::uint64_t exec_index) {
  if (plan.kill_child_at != 0 && exec_index == plan.kill_child_at) {
    ::raise(SIGKILL);
  }
  if (plan.segv_at != 0 && exec_index == plan.segv_at) ::raise(SIGSEGV);
  if (plan.hang_at != 0 && exec_index == plan.hang_at) {
    for (;;) ::pause();
  }
  if (plan.oom_at != 0 && exec_index == plan.oom_at) exhaust_memory();
}

/// One fork-per-exec execution, inside the forked child: trace into the
/// fork-per-exec region of the shm segment, run the target, publish the
/// aux block, _exit. Never returns.
[[noreturn]] void run_child(ProtocolTarget& target, std::uint8_t* segment,
                            ByteSpan packet) {
  // Same arming order as the in-process Executor::run_into — reset,
  // fault sink, then tracing — so an instrumented reset() contributes to
  // neither the map nor the event count in either mode (the differential
  // oracle depends on this symmetry, not on reset() happening to be
  // uninstrumented).
  target.reset();
  san::FaultSink::arm();
  // The child's trace must satisfy the dirty-list invariant "every word not
  // listed is zero": the server memset the fork-per-exec region before
  // forking, and this list starts empty.
  static cov::DirtyWordList dirty;
  dirty.count = 0;
  cov::begin_trace(segment, &dirty);

  AuxResult result;
  target.process_into(packet, result.response);
  result.events = cov::tls_event_count;
  cov::end_trace();
  san::FaultSink::disarm_into(result.faults);

  aux_store(segment + kAuxOffset, kAuxBytes, result);
  // _exit (not exit): no atexit handlers, no stdio flush, and — under
  // AddressSanitizer — no leak check in the short-lived child; the parent
  // process is the one leak detection watches.
  ::_exit(0);
}

/// The persistent child's ICSFUZZ_LOOP: up to its budget of executions in
/// one process, one per request the client publishes. Each iteration
/// restores its slot's map invariant with a sparse clear (its own per-slot
/// dirty list — nobody else writes a slot's map while this child serves
/// it), runs the target, publishes the slot's aux block and then the
/// request's completion. After the budget's last request it _exit(0)s —
/// the recycle the client books itself. The server's fault knobs, which
/// the server no longer sees per execution, are relayed through the
/// child's exit code. Never returns.
[[noreturn]] void run_persistent_child(ProtocolTarget& target,
                                       std::uint8_t* segment,
                                       const ShimFaultPlan& plan) {
  // Per-slot dirty lists, paired with first-use flags: a slot is fully
  // zeroed the first time THIS child serves it (establishing "empty list
  // == all-zero map" whatever an earlier child left behind), and
  // sparse-cleared on every later iteration. Clearing lazily — instead of
  // the server wiping all slots at fork — matters with pipelining: at a
  // recycle boundary the client may not yet have read the previous
  // child's final slots, and the window protocol only guarantees a slot's
  // result has been consumed before a NEW request lands on that slot.
  static cov::DirtyWordList dirty[kNumSlots];
  static bool slot_used[kNumSlots];
  for (cov::DirtyWordList& list : dirty) list.count = 0;
  for (bool& used : slot_used) used = false;
  AuxResult result;
  PersistentCursor cursor;

  for (;;) {
    const std::uint32_t slot = persistent_child_await(segment, cursor);
    std::uint8_t* slot_base = segment + slot_offset(slot);
    const std::uint64_t exec_index = slot_load_exec_index(segment, slot);

    if (plan.server_exit_at != 0 && exec_index == plan.server_exit_at) {
      ::_exit(kRelayServerExitCode);  // the server dies before serving it
    }
    inject_child_faults(plan, exec_index);

    // Pristine slot state: full memset on this child's first use of the
    // slot, sparse-clear of the previous iteration's dirty words after
    // that (the in-process begin_execution analogue). The client already
    // invalidated the slot's aux magic when it published the request.
    cov::DirtyWordList& slot_dirty = dirty[slot];
    if (!slot_used[slot]) {
      std::memset(slot_base, 0, cov::kMapSize + kAuxBytes);
      slot_used[slot] = true;
      slot_dirty.count = 0;
    } else {
      auto* words = reinterpret_cast<std::uint64_t*>(slot_base);
      for (std::uint32_t i = 0; i < slot_dirty.count; ++i) {
        words[slot_dirty.indices[i]] = 0;
      }
      slot_dirty.count = 0;
    }

    target.reset();
    san::FaultSink::arm();
    cov::begin_trace(slot_base, &slot_dirty);

    result.response.clear();
    target.process_into(slot_load_packet(segment, slot), result.response);
    result.events = cov::tls_event_count;
    cov::end_trace();
    san::FaultSink::disarm_into(result.faults);

    aux_store(slot_base + kSlotAuxOffset, kAuxBytes, result);
    const bool budget_spent = persistent_child_done(segment, cursor);
    if (plan.server_retire_after != 0 &&
        exec_index >= plan.server_retire_after) {
      ::_exit(kRelayRetireCode);  // the server retires after this one
    }
    if (budget_spent) ::_exit(0);
  }
}

}  // namespace

ShimFaultPlan shim_fault_plan_from_env() {
  ShimFaultPlan plan;
  plan.no_handshake = env_u64("ICSFUZZ_SHIM_NO_HANDSHAKE") != 0;
  plan.kill_child_at = env_u64("ICSFUZZ_SHIM_KILL_CHILD_AT");
  plan.segv_at = env_u64("ICSFUZZ_SHIM_SEGV_AT");
  plan.hang_at = env_u64("ICSFUZZ_SHIM_HANG_AT");
  plan.oom_at = env_u64("ICSFUZZ_SHIM_OOM_AT");
  plan.server_exit_at = env_u64("ICSFUZZ_SHIM_SERVER_EXIT_AT");
  plan.server_retire_after = env_u64("ICSFUZZ_SHIM_SERVER_RETIRE_AFTER");
  return plan;
}

int run_shim_server(ProtocolTarget& target, const ShimFaultPlan& plan) {
  // Without a usable segment (not spawned by a fork server, or a malformed
  // size) the shim exits before the hello; the client reports a handshake
  // failure with this code visible in ps/logs.
  const AttachedSegment segment = attach_segment_from_env(kSegmentBytesV2);
  if (!segment.valid()) return 3;
  if (plan.no_handshake) return 7;

  ServerLoopConfig config;
  config.segment = segment.data;
  config.persistent = true;
  config.server_exit_at = plan.server_exit_at;
  config.server_retire_after = plan.server_retire_after;
  const LoopExit served = serve_fork_server(config);
  if (served.role == LoopExit::Role::kExecChild) {
    inject_child_faults(plan, served.exec_index);
    run_child(target, segment.data, served.packet);
  }
  if (served.role == LoopExit::Role::kPersistentChild) {
    run_persistent_child(target, segment.data, plan);
  }
  return served.exit_code;
}

}  // namespace icsfuzz::oop
