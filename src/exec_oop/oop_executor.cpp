#include "exec_oop/oop_executor.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "inject/inject_protocol.hpp"

namespace icsfuzz::oop {
namespace {

/// splitmix64 finalizer — the deterministic jitter hash (no RNG stream).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Backoff delay before the `consecutive`-th consecutive respawn
/// (1-based): initial * 2^(consecutive-1), capped, plus jitter.
std::uint32_t backoff_delay_ms(const RetryPolicy& policy,
                               std::uint32_t consecutive,
                               std::uint64_t jitter_key) {
  if (policy.backoff_initial_ms == 0 || consecutive == 0) return 0;
  std::uint64_t delay = policy.backoff_initial_ms;
  for (std::uint32_t i = 1; i < consecutive && delay < policy.backoff_max_ms;
       ++i) {
    delay *= 2;
  }
  delay = std::min<std::uint64_t>(delay, policy.backoff_max_ms);
  if (policy.jitter_pct != 0) {
    const std::uint64_t span = delay * policy.jitter_pct / 100;
    if (span != 0) delay += mix64(jitter_key) % (span + 1);
  }
  return static_cast<std::uint32_t>(delay);
}

}  // namespace

std::string to_string(ExecStatus status) {
  switch (status) {
    case ExecStatus::kOk: return "ok";
    case ExecStatus::kCrash: return "crash";
    case ExecStatus::kHang: return "hang";
    case ExecStatus::kOom: return "oom";
    case ExecStatus::kServerLost: return "server-lost";
  }
  return "?";
}

OutOfProcessExecutor::OutOfProcessExecutor(OopExecutorConfig config)
    : config_(std::move(config)) {}

OutOfProcessExecutor::~OutOfProcessExecutor() { shutdown(); }

void OutOfProcessExecutor::shutdown() {
  server_.stop();
  segment_ = ShmSegment();
  map_offset_ = 0;
}

bool OutOfProcessExecutor::spawn() {
  server_.stop();
  // A fresh segment per spawn: restart never races a peer's shm_unlink of
  // the previous name, and a crashed child can leave no stale bytes behind.
  // Always the full size: fork servers refuse to attach less.
  segment_ = ShmSegment::create(kSegmentBytesV2);
  if (!segment_.valid()) {
    error_ = "shm segment creation failed: " + segment_.error();
    return false;
  }
  if (!segment_.named()) {
    error_ =
        "fork-server execution needs a named shm segment "
        "(anonymous fallback cannot cross exec): " +
        segment_.error();
    return false;
  }
  std::memset(segment_.data(), 0, segment_.size());
  map_offset_ = 0;

  std::vector<std::string> extra_env = {
      std::string(kShmNameEnv) + "=" + segment_.name(),
      std::string(kShmSizeEnv) + "=" + std::to_string(segment_.size()),
  };
  supervise::append_jail_env(config_.jail, extra_env);
  inject::append_preload_env(config_.preload, inject::kInjectModeFork,
                             extra_env);
  if (!server_.start(config_.target_cmd, extra_env,
                     config_.handshake_timeout_ms, segment_.data())) {
    error_ = server_.error();
    return false;
  }
  return true;
}

bool OutOfProcessExecutor::ensure_started() {
  if (server_.running()) return true;
  const RetryPolicy& policy = config_.retry;
  if (ever_started_) {
    // Crash-loop breaker: a server that keeps dying stops being respawned
    // once the lifetime budget is spent — campaigns then report
    // kServerLost per packet instead of forking a doomed target forever.
    if (policy.max_respawns >= 0 &&
        restarts_ >= static_cast<std::uint64_t>(policy.max_respawns)) {
      error_ = "crash-loop budget exhausted (" +
               std::to_string(policy.max_respawns) + " respawns)";
      return false;
    }
    // Exponential backoff (with deterministic jitter) before consecutive
    // respawns, so a crash-looping target does not busy-spin fork+exec.
    const std::uint32_t delay = backoff_delay_ms(
        policy, consecutive_respawns_ + 1, restarts_ + 1);
    if (delay != 0) ::usleep(delay * 1000u);
  }
  if (!spawn()) return false;
  // Count only successful respawns of a server that had previously come
  // up: a target that can never start keeps the counter at zero (that is
  // "server never started", not "server keeps dying" — the distinction
  // the fault-injection suite and the bench gate read).
  if (ever_started_) {
    ++restarts_;
    ++consecutive_respawns_;
  } else {
    ever_started_ = true;
  }
  return true;
}

void OutOfProcessExecutor::note_server_gone(ForkServer::RunOutcome::Kind kind) {
  if (kind == ForkServer::RunOutcome::Kind::kServerExited) {
    ++orderly_exits_;
  } else {
    error_ = server_.error();
  }
  server_.stop();
}

void OutOfProcessExecutor::classify(const ForkServer::RunOutcome& raw,
                                    std::size_t map_offset,
                                    std::size_t aux_offset, Outcome& out) {
  out.status = ExecStatus::kServerLost;
  out.term_signal = 0;
  out.exit_code = 0;
  out.persistent = raw.persistent;
  out.iteration = raw.iteration;
  out.child_recycled = raw.recycled != RecycleReason::kNone;
  if (out.child_recycled) ++child_recycles_;
  map_offset_ = map_offset;
  // Any classified outcome means the server answered — the crash loop (if
  // there was one) is over.
  consecutive_respawns_ = 0;

  const bool aux_complete =
      aux_load(segment_.data() + aux_offset, kAuxBytes, out.aux);
  switch (raw.kind) {
    case ForkServer::RunOutcome::Kind::kTimeout:
      out.status = ExecStatus::kHang;
      out.term_signal = raw.term_signal;
      break;
    case ForkServer::RunOutcome::Kind::kSignaled:
      out.status = ExecStatus::kCrash;
      out.term_signal = raw.term_signal;
      break;
    case ForkServer::RunOutcome::Kind::kExited:
      if (raw.exit_code == 0 && aux_complete) {
        out.status = ExecStatus::kOk;
      } else if (raw.exit_code == supervise::kOomExitCode) {
        // The resource jail's new_handler fired: allocation failure under
        // RLIMIT_AS, not a memory-safety crash.
        out.status = ExecStatus::kOom;
        out.exit_code = raw.exit_code;
        ++oom_kills_;
      } else {
        // A nonzero exit — or a clean exit that never finished the aux
        // block — is an abnormal termination mid-execution.
        out.status = ExecStatus::kCrash;
        out.exit_code = raw.exit_code;
      }
      break;
    case ForkServer::RunOutcome::Kind::kServerExited:
    case ForkServer::RunOutcome::Kind::kServerLost:
      break;  // callers handle server-gone before classify()
  }
}

void OutOfProcessExecutor::fail_outcome(Outcome& out) {
  // Both attempts failed: kServerLost with error_ describing why, and a
  // zeroed coverage window (the caller adopts an empty trace).
  if (segment_.valid()) {
    std::memset(segment_.data(), 0, segment_.size());
  }
  out.status = ExecStatus::kServerLost;
  out.term_signal = 0;
  out.exit_code = 0;
  out.persistent = false;
  out.iteration = 0;
  out.child_recycled = false;
  out.aux.events = 0;
  out.aux.faults.clear();
  out.aux.response.clear();
  out.aux.response_truncated = false;
  out.aux.faults_truncated = false;
  map_offset_ = 0;
}

const OutOfProcessExecutor::Outcome& OutOfProcessExecutor::run(
    ByteSpan packet) {
  Outcome& outcome = outcome_;
  for (int attempt = 0; attempt <= config_.retry.max_retries; ++attempt) {
    if (attempt == 1) ++retries_;
    if (!ensure_started()) continue;  // next attempt retries the spawn

    ForkServer::RunOutcome raw;
    std::size_t map_offset = 0;
    std::size_t aux_offset = kAuxOffset;
    // Persistent single-exec path: packet through the next request's
    // slot; oversized packets (rare — > kSlotTestCaseBytes) fall back to a
    // fork-per-exec pipe request for this one execution.
    const std::uint32_t slot = server_.next_slot();
    if (persistent_active() &&
        slot_store_packet(segment_.data(), slot, packet)) {
      raw = server_.run_persistent(config_.persistent_budget,
                                   config_.exec_timeout_ms);
      map_offset = slot_offset(slot);
      aux_offset = slot_offset(slot) + kSlotAuxOffset;
    } else {
      raw = server_.run(packet, config_.exec_timeout_ms);
    }

    if (raw.kind == ForkServer::RunOutcome::Kind::kServerExited ||
        raw.kind == ForkServer::RunOutcome::Kind::kServerLost) {
      note_server_gone(raw.kind);
      continue;  // respawn + retry once
    }
    classify(raw, map_offset, aux_offset, outcome);
    return outcome;
  }
  fail_outcome(outcome);
  return outcome;
}

std::size_t OutOfProcessExecutor::run_batch(
    const std::vector<Bytes>& packets,
    const std::function<void(std::size_t, const Outcome&)>& on_outcome) {
  std::size_t next_submit = 0;   // next packet to publish
  std::size_t next_deliver = 0;  // next packet whose outcome we owe
  std::uint32_t slot_of[kNumSlots] = {};  // in-flight packet -> its slot

  while (next_deliver < packets.size()) {
    if (!persistent_active() || !ensure_started()) {
      // No pipelining available (fork-per-exec, a server without the
      // persistent capability, or the server is down): drain the remainder through the sequential path, which
      // owns the respawn/retry policy.
      for (; next_deliver < packets.size(); ++next_deliver) {
        on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      }
      break;
    }

    // Fill the window: up to kNumSlots requests published ahead of the
    // child, within its budget. Outcomes drain strictly in request order,
    // so a slot is never reused before its result has been consumed.
    bool submit_failed = false;
    while (next_submit < packets.size() &&
           next_submit - next_deliver < kNumSlots && server_.can_submit()) {
      const std::uint32_t slot = server_.next_slot();
      if (!slot_store_packet(segment_.data(), slot,
                             ByteSpan(packets[next_submit]))) {
        break;  // oversized: drain in-flight first, then run() it inline
      }
      if (!server_.submit(config_.persistent_budget,
                          config_.exec_timeout_ms)) {
        submit_failed = true;
        break;
      }
      slot_of[next_submit % kNumSlots] = slot;
      ++next_submit;
    }

    if (next_submit == next_deliver) {
      // Nothing in flight: the head packet is oversized, or the server
      // could not start a child. Run it through the sequential path, which
      // owns the respawn/retry policy.
      if (submit_failed) note_server_gone(server_.last_failure());
      on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      ++next_deliver;
      next_submit = next_deliver;
      continue;
    }

    const ForkServer::RunOutcome raw =
        server_.await_reply(config_.exec_timeout_ms);
    if (raw.kind == ForkServer::RunOutcome::Kind::kServerExited ||
        raw.kind == ForkServer::RunOutcome::Kind::kServerLost) {
      // Every in-flight request is gone with the server. Re-run the whole
      // window sequentially (run() respawns and retries).
      note_server_gone(raw.kind);
      for (; next_deliver < next_submit; ++next_deliver) {
        on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      }
      next_submit = next_deliver;
      continue;
    }
    const std::uint32_t slot = slot_of[next_deliver % kNumSlots];
    classify(raw, slot_offset(slot), slot_offset(slot) + kSlotAuxOffset,
             outcome_);
    on_outcome(next_deliver, outcome_);
    ++next_deliver;
    // A child that is gone served nothing after this request: publish the
    // rest of the window again, in order, to the next child.
    if (raw.recycled != RecycleReason::kNone) next_submit = next_deliver;
  }
  return packets.size();
}

}  // namespace icsfuzz::oop
