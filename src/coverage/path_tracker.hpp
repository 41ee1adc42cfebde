// Path-coverage accounting: the paper's primary metric ("number of paths
// covered") counts distinct whole-execution traces, identified here by the
// order-insensitive hash of the classified edge set.
//
// The store is a linear-probing open-addressing table rather than
// std::unordered_set (the ROADMAP's "batched path-tracker probing"
// follow-on): record() runs once per execution, and with the map ops gone
// sparse the node-based set's pointer chase and per-insert allocation were
// a visible slice of the executor. A key's home slot is the top bits of
// its Fibonacci product, so keys whose low bits are weak (the FNV-1a
// packet hashes of fuzz::GenerationalDedup, which keeps one tracker per
// generation) spread as well as finalized trace hashes; probes touch one
// contiguous cache line in the common case, inserts never allocate until
// the table doubles, and the semantics (set of uint64) are observably
// identical — asserted against an unordered_set oracle in
// tests/test_path_tracker.cpp and gated for throughput in bench_hotpath.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace icsfuzz::cov {

class PathTracker {
 public:
  /// Registers one execution's trace hash; returns true if this path is new.
  bool record(std::uint64_t trace_hash);

  /// Distinct paths observed so far.
  [[nodiscard]] std::size_t path_count() const {
    return filled_ + (has_zero_ ? 1 : 0);
  }

  /// True when `trace_hash` has been seen.
  [[nodiscard]] bool contains(std::uint64_t trace_hash) const;

  /// Folds `other`'s path set into this one (idempotent, commutative).
  /// Returns the number of paths that were new to this tracker.
  std::size_t merge(const PathTracker& other);

  /// Copies the path set (order unspecified). The seed exchange merges live
  /// trackers directly (merge()); the snapshot form is for detached copies
  /// — serialization, cross-process shipping, tests.
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const;

  /// Empties the set and keeps its table, so refilling it to the same
  /// size allocates nothing.
  void clear();

 private:
  /// Replaces the table with `slots` (a power of two) empty slots.
  void allocate(std::size_t slots);

  /// Doubles the table and re-inserts every key (no tombstones: the
  /// tracker never erases individual paths).
  void grow();

  /// Slot index `trace_hash` lives in or would be inserted at.
  [[nodiscard]] std::size_t probe(std::uint64_t trace_hash) const;

  /// Slot array; 0 marks an empty slot, so the (rare but legal) zero hash
  /// is tracked by the side flag instead. Sized to a power of two, grown
  /// at 50% load — probe chains stay short and the memory cost is ~16
  /// bytes per path at worst.
  std::vector<std::uint64_t> slots_;
  /// 64 - log2(slots_.size()): the Fibonacci product's top bits index.
  unsigned shift_ = 64;
  std::size_t filled_ = 0;
  bool has_zero_ = false;
};

}  // namespace icsfuzz::cov
