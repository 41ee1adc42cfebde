// Shared-memory wire state of the TCP session transport.
//
// Segment geometry (one ShmSegment of kTcpSegmentBytes, created by the
// client backend and attached by the `icsfuzz-shim-target --tcp` server
// through the usual ICSFUZZ_OOP_SHM environment pair):
//
//   [0, cov::kMapSize)   raw edge-hit map — the server traces every
//                        session into it (one trace per session)
//   [kAuxOffset, ...)    oop::AuxResult block, published at session end
//                        (events + faults; the response bytes travel over
//                        the socket, so the aux response stays empty)
//   [kSyncOffset, +64)   the sync block below
//
// The sync block solves the one thing a raw protocol socket cannot: the
// client must know when message i's response is COMPLETE (these protocols
// answer with zero, one or several frames — "no more bytes yet" and "no
// response" are indistinguishable on the wire). The server publishes a
// monotonic served-message counter and the byte length of the last
// response; the client sends message i, waits for served == i+1, then
// reads exactly last_response_len bytes. Socket traffic therefore stays
// pure protocol bytes in both directions — nothing about the transport
// leaks into the fuzzed stream. Counters are campaign-monotonic (never
// reset per session) so a stale read from a previous session can never be
// mistaken for this one's progress.
//
// Waiting is event-driven, not polled: both publishers issue a shared
// FUTEX_WAKE on the counter they just advanced, and the client blocks in
// FUTEX_WAIT on that counter's low 32-bit half until it reaches the value
// it expects or the session deadline passes. The publish order (release
// store, then wake) and the waiter's re-check of the full 64-bit counter
// before every wait make a lost wakeup impossible: a store that lands
// between the check and the wait changes the futex word, so the kernel
// refuses to sleep. Every target runtime publishes only through the
// helpers below, so none of them carries wake code of its own.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <climits>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"

namespace icsfuzz::session {

inline constexpr std::size_t kSyncOffset = oop::kSegmentBytes;
inline constexpr std::size_t kSyncBytes = 64;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

namespace wire_detail {
inline std::uint8_t* served_addr(std::uint8_t* segment) {
  return segment + kSyncOffset;
}
inline std::uint8_t* sessions_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 8;
}
inline std::uint8_t* response_len_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 16;
}

// The futex word of a counter is its low 32-bit half, which sits at the
// counter's own address only on a little-endian machine.
static_assert(std::endian::native == std::endian::little,
              "the sync-block futex word is the counter's low half");

inline std::uint64_t load_counter(std::uint8_t* counter) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(counter))
      .load(std::memory_order_acquire);
}

/// Release-stores the counter, then wakes every waiter on it. Shared (not
/// FUTEX_PRIVATE_FLAG) because the waiter is another process mapping the
/// same segment.
inline void publish_counter(std::uint8_t* counter, std::uint64_t value) {
  std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(counter))
      .store(value, std::memory_order_release);
  ::syscall(SYS_futex, counter, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

/// Blocks until the counter reaches `expected` or the CLOCK_MONOTONIC
/// millisecond `deadline_ms` passes (0 = no deadline). True when reached.
inline bool wait_counter(std::uint8_t* counter, std::uint64_t expected,
                         std::uint64_t deadline_ms) {
  struct timespec deadline {};
  deadline.tv_sec = static_cast<time_t>(deadline_ms / 1000);
  deadline.tv_nsec = static_cast<long>(deadline_ms % 1000) * 1000000;
  for (;;) {
    const std::uint64_t seen = load_counter(counter);
    if (seen >= expected) return true;
    // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline, so
    // spurious returns (EINTR, EAGAIN, a wake for an earlier value) loop
    // without stretching the session's time budget.
    if (::syscall(SYS_futex, counter, FUTEX_WAIT_BITSET,
                  static_cast<std::uint32_t>(seen),
                  deadline_ms != 0 ? &deadline : nullptr, nullptr,
                  FUTEX_BITSET_MATCH_ANY) != 0 &&
        errno == ETIMEDOUT) {
      return load_counter(counter) >= expected;
    }
  }
}
}  // namespace wire_detail

/// Server side: publishes "message done" — the response length first, the
/// served count last (release, then wake), so a client that observes the
/// new count also observes the matching length.
inline void sync_publish_served(std::uint8_t* segment, std::uint64_t served,
                                std::uint32_t response_len) {
  std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(wire_detail::response_len_addr(segment)))
      .store(response_len, std::memory_order_relaxed);
  wire_detail::publish_counter(wire_detail::served_addr(segment), served);
}

/// Client side: waits for served >= `expected` (see wire_detail::wait_counter).
inline bool sync_wait_served(std::uint8_t* segment, std::uint64_t expected,
                             std::uint64_t deadline_ms) {
  return wire_detail::wait_counter(wire_detail::served_addr(segment),
                                   expected, deadline_ms);
}

inline std::uint32_t sync_load_response_len(std::uint8_t* segment) {
  return std::atomic_ref<std::uint32_t>(
             *reinterpret_cast<std::uint32_t*>(
                 wire_detail::response_len_addr(segment)))
      .load(std::memory_order_relaxed);
}

/// Server side: publishes "session done" (map + aux block fully written).
inline void sync_publish_session_done(std::uint8_t* segment,
                                      std::uint64_t sessions) {
  wire_detail::publish_counter(wire_detail::sessions_addr(segment), sessions);
}

/// Client side: waits for sessions-done >= `expected`.
inline bool sync_wait_sessions_done(std::uint8_t* segment,
                                    std::uint64_t expected,
                                    std::uint64_t deadline_ms) {
  return wire_detail::wait_counter(wire_detail::sessions_addr(segment),
                                   expected, deadline_ms);
}

}  // namespace icsfuzz::session
