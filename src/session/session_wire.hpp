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
// Waiting is event-driven, not polled: both publishers advance their
// counter through oop::futex::publish (release store, then a shared
// futex wake), and the client blocks in oop::futex::wait_counter until the
// counter reaches the value it expects or the session deadline passes.
// exec_oop/futex_sync.hpp explains why no wakeup can be lost. Every target
// runtime publishes only through the helpers below, so none of them
// carries wake code of its own.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/futex_sync.hpp"

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
}  // namespace wire_detail

/// Server side: publishes "message done" — the response length first, the
/// served count last (release, then wake), so a client that observes the
/// new count also observes the matching length.
inline void sync_publish_served(std::uint8_t* segment, std::uint64_t served,
                                std::uint32_t response_len) {
  std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(wire_detail::response_len_addr(segment)))
      .store(response_len, std::memory_order_relaxed);
  oop::futex::publish(wire_detail::served_addr(segment), served);
}

/// Client side: waits for served >= `expected` (see oop::futex::wait_counter).
inline bool sync_wait_served(std::uint8_t* segment, std::uint64_t expected,
                             std::uint64_t deadline_ms) {
  return oop::futex::wait_counter(wire_detail::served_addr(segment), expected,
                                  deadline_ms);
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
  oop::futex::publish(wire_detail::sessions_addr(segment), sessions);
}

/// Client side: waits for sessions-done >= `expected`.
inline bool sync_wait_sessions_done(std::uint8_t* segment,
                                    std::uint64_t expected,
                                    std::uint64_t deadline_ms) {
  return oop::futex::wait_counter(wire_detail::sessions_addr(segment),
                                  expected, deadline_ms);
}

}  // namespace icsfuzz::session
