// GenerationalDedup — bounded-memory executed-packet dedup.
//
// The fuzzer rules out "meaningless repetitions of path exploration"
// (paper §I) by hashing every executed packet. An unbounded set would grow
// without limit over a long campaign; the naive fix — wipe the whole set at
// a threshold — discards ALL dedup state at once, so the iterations right
// after the wipe happily re-execute the most recently seen packets.
//
// This class keeps two generations instead: inserts go to `current_`, and
// when `current_` reaches half the capacity it rotates into `previous_`
// (dropping the generation before it). Membership checks consult both, so
// at any moment at least the most recent capacity/2 distinct hashes are
// still deduplicated. Each generation is a cov::PathTracker, the
// open-addressing u64 set: an insert allocates nothing until its table
// doubles, and a rotation swaps the tables and clears the dropped one in
// place, so the steady state never allocates.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coverage/path_tracker.hpp"

namespace icsfuzz::fuzz {

class GenerationalDedup {
 public:
  /// `capacity` bounds the total retained hashes across both generations.
  explicit GenerationalDedup(std::size_t capacity = 1ULL << 21)
      : capacity_(capacity < 2 ? 2 : capacity) {}

  /// Records `hash`; returns true when it was NOT seen in the two retained
  /// generations (i.e. the packet should execute).
  bool insert(std::uint64_t hash) {
    if (previous_.contains(hash) || !current_.record(hash)) return false;
    if (current_.path_count() >= capacity_ / 2) {
      // Rotate: the oldest generation is dropped (its table is kept for
      // the next one), the newest half of the history is retained verbatim.
      std::swap(previous_, current_);
      current_.clear();
    }
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t hash) const {
    return current_.contains(hash) || previous_.contains(hash);
  }

  /// Hashes currently retained (both generations).
  [[nodiscard]] std::size_t size() const {
    return current_.path_count() + previous_.path_count();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Checkpoint access: the two generations, separately. Which set is
  /// `current_` matters — rotation fires off current_'s size — so resume
  /// must restore them as distinct sets, not a merged union.
  [[nodiscard]] const cov::PathTracker& current_generation() const {
    return current_;
  }
  [[nodiscard]] const cov::PathTracker& previous_generation() const {
    return previous_;
  }
  void restore_generations(const std::vector<std::uint64_t>& current,
                           const std::vector<std::uint64_t>& previous) {
    current_.clear();
    previous_.clear();
    for (const std::uint64_t hash : current) current_.record(hash);
    for (const std::uint64_t hash : previous) previous_.record(hash);
  }

 private:
  std::size_t capacity_;
  cov::PathTracker current_;
  cov::PathTracker previous_;
};

}  // namespace icsfuzz::fuzz
