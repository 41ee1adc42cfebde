// Cross-process futex publish/wait pair over shared-memory counters: the
// one place that issues FUTEX_WAIT / FUTEX_WAKE. Both sync blocks wait
// through it — the persistent handoff of exec_protocol.hpp and the TCP
// session wire of session/session_wire.hpp.
//
// A counter is a u64 in a shared mapping; its futex word is the low
// 32-bit half. A publisher release-stores (or increments) the counter and
// then wakes every waiter. A waiter snapshots the counter, checks its
// condition, and sleeps only while the futex word still equals the
// snapshot. A publish that lands between the check and the sleep changes
// the word, so the kernel refuses to sleep: a lost wakeup is impossible.
// The wakes are shared (not FUTEX_PRIVATE_FLAG) because the waiter is
// another process mapping the same segment.
//
// Everything here is an inline syscall with no static state, so the
// preload runtime can use it and keep runtime_state.hpp's invariant
// (constant-initialized statics only).
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

namespace icsfuzz::oop::futex {

// The futex word of a counter is its low 32-bit half, which sits at the
// counter's own address only on a little-endian machine.
static_assert(std::endian::native == std::endian::little,
              "the futex word is the counter's low half");

inline std::atomic_ref<std::uint64_t> counter_ref(std::uint8_t* counter) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(counter));
}

inline std::uint64_t load(std::uint8_t* counter) {
  return counter_ref(counter).load(std::memory_order_acquire);
}

inline void wake_all(std::uint8_t* counter) {
  ::syscall(SYS_futex, counter, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

/// Release-stores `value` into the counter, then wakes its waiters.
inline void publish(std::uint8_t* counter, std::uint64_t value) {
  counter_ref(counter).store(value, std::memory_order_release);
  wake_all(counter);
}

/// Increments the counter (release), then wakes its waiters — for a word
/// that more than one process advances.
inline void bump(std::uint8_t* counter) {
  counter_ref(counter).fetch_add(1, std::memory_order_acq_rel);
  wake_all(counter);
}

/// Milliseconds on CLOCK_MONOTONIC, the clock the wait deadlines use.
inline std::uint64_t monotonic_ms() {
  struct timespec now {};
  ::clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::uint64_t>(now.tv_sec) * 1000 +
         static_cast<std::uint64_t>(now.tv_nsec) / 1000000;
}

/// Blocks until `ready()` holds or the CLOCK_MONOTONIC millisecond
/// `deadline_ms` passes (0 = no deadline). `ready` must only turn true
/// after a publish/bump of `counter`. True when ready.
template <typename Ready>
bool wait_until(std::uint8_t* counter, std::uint64_t deadline_ms,
                Ready ready) {
  struct timespec deadline {};
  deadline.tv_sec = static_cast<time_t>(deadline_ms / 1000);
  deadline.tv_nsec = static_cast<long>(deadline_ms % 1000) * 1000000;
  for (;;) {
    const std::uint64_t seen = load(counter);
    if (ready()) return true;
    // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline, so
    // spurious returns (EINTR, EAGAIN, a wake for an earlier value) loop
    // without stretching the caller's time budget.
    if (::syscall(SYS_futex, counter, FUTEX_WAIT_BITSET,
                  static_cast<std::uint32_t>(seen),
                  deadline_ms != 0 ? &deadline : nullptr, nullptr,
                  FUTEX_BITSET_MATCH_ANY) != 0 &&
        errno == ETIMEDOUT) {
      return ready();
    }
  }
}

/// Blocks until the counter reaches `expected` or `deadline_ms` passes
/// (see wait_until). True when reached.
inline bool wait_counter(std::uint8_t* counter, std::uint64_t expected,
                         std::uint64_t deadline_ms) {
  return wait_until(counter, deadline_ms,
                    [counter, expected] { return load(counter) >= expected; });
}

}  // namespace icsfuzz::oop::futex
