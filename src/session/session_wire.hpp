// Shared-memory wire state of the TCP session transport.
//
// Segment geometry (one ShmSegment of kTcpSegmentBytes, created by the
// client backend and attached by the session server through the usual
// ICSFUZZ_OOP_SHM environment pair):
//
//   [0, cov::kMapSize)   raw edge-hit map — the server traces every
//                        session into it (one trace per session)
//   [kAuxOffset, ...)    oop::AuxResult block, published at session end
//                        (events + faults; the response bytes travel over
//                        the socket, so the aux response stays empty)
//   [kSyncOffset, ...)   the sync block below
//
// The sync block solves the one thing a raw protocol socket cannot: the
// client must know where each message's response ENDS (these protocols
// answer with zero, one or several frames — "no more bytes yet" and "no
// response" are indistinguishable on the wire). Socket traffic therefore
// stays pure protocol bytes in both directions; nothing about the
// transport leaks into the fuzzed stream. Counters are campaign-monotonic
// (never reset per session), so a stale read from a previous session can
// never be mistaken for this one's progress.
//
//   +0   u64  served         lockstep: messages answered so far
//   +8   u64  sessions       sessions done so far
//   +16  u32  response_len   lockstep: length of the last response
//   +20  u32  table_count    batch: entries in the table below
//   +24  u32  table[kMaxResponseTableEntries]
//                            batch: each message's response length
//
// Two contracts share the block, chosen by the server's hello.
//
// Batch (servers that set oop::kTcpCapKeepConnection — the shim's `--tcp`
// mode, tcp_server.cpp). One connection lives as long as the server; the
// client announces each session's length on the control pipe and sends
// the whole stream at once. The server:
//   1. serves every message, the residue included, appending each
//      response to one session buffer and its length to the table;
//   2. ends the trace and stores the aux block;
//   3. publishes sessions-done (one futex wake);
//   4. sends the session buffer, all responses in one send.
// The client waits once, for sessions-done, checks the table
// (load_response_table) and reads exactly the table's total from the
// socket. Neither direction can deadlock on socket buffers, whatever the
// sizes: the server reads the whole announced stream before it writes
// anything, so the client's send always drains; and the server writes
// only after it has published, while the client reads only after it has
// seen that publish, so the client is reading whenever the server blocks
// on a full buffer.
//
// Lockstep (every other server — a stock binary under the preload
// interposer, inject/preload_runtime.cpp, whose read pattern is its own).
// One connection is one session, ended by the client's half-close. The
// client sends message i and waits for served == i+1; the server's
// interposed write() publishes the length of what it wrote, then the
// served count; the client reads exactly that many bytes.
//
// Both lengths come from the target process, so the client accepts them
// only through load_response_table / load_response_len, which bound every
// length and the session's total by kMaxSessionResponseBytes.
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
#include "session/session_types.hpp"

namespace icsfuzz::session {

/// Table entries: the most messages split_stream can return — every
/// complete frame up to the cap, plus the residue (framing.hpp).
inline constexpr std::size_t kMaxResponseTableEntries = kMaxSessionMessages + 1;

/// Bound on one response and on a session's response total. The in-tree
/// targets stay far below it; it only keeps a garbage length from a
/// foreign process from sizing a client allocation.
inline constexpr std::size_t kMaxSessionResponseBytes = std::size_t{16} << 20;

inline constexpr std::size_t kSyncOffset = oop::kSegmentBytes;
inline constexpr std::size_t kSyncTableOffset = 24;
inline constexpr std::size_t kSyncBytes =
    (kSyncTableOffset + 4 * kMaxResponseTableEntries + 63) / 64 * 64;
inline constexpr std::size_t kTcpSegmentBytes = kSyncOffset + kSyncBytes;

namespace wire_detail {
inline std::uint8_t* served_addr(std::uint8_t* segment) {
  return segment + kSyncOffset;
}
inline std::uint8_t* sessions_addr(std::uint8_t* segment) {
  return segment + kSyncOffset + 8;
}
inline std::atomic_ref<std::uint32_t> u32_at(std::uint8_t* segment,
                                             std::size_t offset) {
  return std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(segment + kSyncOffset + offset));
}
inline std::atomic_ref<std::uint32_t> response_len(std::uint8_t* segment) {
  return u32_at(segment, 16);
}
inline std::atomic_ref<std::uint32_t> table_count(std::uint8_t* segment) {
  return u32_at(segment, 20);
}
inline std::atomic_ref<std::uint32_t> table_entry(std::uint8_t* segment,
                                                  std::size_t index) {
  return u32_at(segment, kSyncTableOffset + 4 * index);
}

/// Adds `length` to `total`; the failed check's name when either breaks
/// kMaxSessionResponseBytes.
inline const char* add_response_length(std::uint64_t length,
                                       std::uint64_t& total) {
  if (length > kMaxSessionResponseBytes) return "response length over bound";
  total += length;
  if (total > kMaxSessionResponseBytes) return "response total over bound";
  return nullptr;
}
}  // namespace wire_detail

// -- Batch contract (kTcpCapKeepConnection). -------------------------------

/// Server side: records message `index`'s response length. Entries past
/// the table are dropped; the count still grows, so the client's count
/// check rejects the session.
inline void sync_store_response_len(std::uint8_t* segment, std::size_t index,
                                    std::uint32_t length) {
  if (index < kMaxResponseTableEntries) {
    wire_detail::table_entry(segment, index).store(length,
                                                   std::memory_order_relaxed);
  }
}

/// Server side: publishes "session done" — map, aux block and, on the
/// batch path, the table (`count` entries) are fully written; the release
/// store orders them before the new count.
inline void sync_publish_session_done(std::uint8_t* segment,
                                      std::uint64_t sessions,
                                      std::uint32_t count = 0) {
  wire_detail::table_count(segment).store(count, std::memory_order_relaxed);
  oop::futex::publish(wire_detail::sessions_addr(segment), sessions);
}

/// Client side: waits for sessions-done >= `expected`.
inline bool sync_wait_sessions_done(std::uint8_t* segment,
                                    std::uint64_t expected,
                                    std::uint64_t deadline_ms) {
  return oop::futex::wait_counter(wire_detail::sessions_addr(segment),
                                  expected, deadline_ms);
}

/// Client side, after sessions-done: copies the table into `lengths` and
/// sums it into `total`. Accepts it only when it has exactly `expected`
/// entries (the messages the client sent) and every length and the total
/// are within kMaxSessionResponseBytes. Returns nullptr when accepted,
/// else the name of the failed check.
inline const char* load_response_table(std::uint8_t* segment,
                                       std::size_t expected,
                                       std::uint32_t* lengths,
                                       std::uint64_t& total) {
  total = 0;
  if (wire_detail::table_count(segment).load(std::memory_order_relaxed) !=
      expected) {
    return "response table entry count";
  }
  for (std::size_t i = 0; i < expected; ++i) {
    lengths[i] =
        wire_detail::table_entry(segment, i).load(std::memory_order_relaxed);
    if (const char* failed = wire_detail::add_response_length(lengths[i], total)) {
      return failed;
    }
  }
  return nullptr;
}

// -- Lockstep contract (no kTcpCapKeepConnection). --------------------------

/// Server side: publishes "message done" — the response length first, the
/// served count last (release, then wake), so a client that observes the
/// new count also observes the matching length.
inline void sync_publish_served(std::uint8_t* segment, std::uint64_t served,
                                std::uint32_t response_len) {
  wire_detail::response_len(segment).store(response_len,
                                           std::memory_order_relaxed);
  oop::futex::publish(wire_detail::served_addr(segment), served);
}

/// Client side: waits for served >= `expected` (see oop::futex::wait_counter).
inline bool sync_wait_served(std::uint8_t* segment, std::uint64_t expected,
                             std::uint64_t deadline_ms) {
  return oop::futex::wait_counter(wire_detail::served_addr(segment), expected,
                                  deadline_ms);
}

/// Client side, after served advanced: loads the last response's length
/// and adds it to the session's running `total`, with load_response_table's
/// bounds. Returns nullptr when accepted, else the name of the failed check.
inline const char* load_response_len(std::uint8_t* segment,
                                     std::uint32_t& length,
                                     std::uint64_t& total) {
  length = wire_detail::response_len(segment).load(std::memory_order_relaxed);
  return wire_detail::add_response_length(length, total);
}

}  // namespace icsfuzz::session
