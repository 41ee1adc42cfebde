#include "coverage/path_tracker.hpp"

#include <algorithm>
#include <bit>

namespace icsfuzz::cov {

namespace {
/// First allocation on first insert; small enough to be free, large enough
/// that short campaigns never rehash.
constexpr std::size_t kInitialSlots = 1024;
}  // namespace

void PathTracker::allocate(std::size_t slots) {
  slots_.assign(slots, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

std::size_t PathTracker::probe(std::uint64_t trace_hash) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot =
      static_cast<std::size_t>((trace_hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[slot] != 0 && slots_[slot] != trace_hash) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool PathTracker::record(std::uint64_t trace_hash) {
  if (trace_hash == 0) {
    const bool fresh = !has_zero_;
    has_zero_ = true;
    return fresh;
  }
  if (slots_.empty()) allocate(kInitialSlots);
  const std::size_t slot = probe(trace_hash);
  if (slots_[slot] == trace_hash) return false;
  slots_[slot] = trace_hash;
  ++filled_;
  if (filled_ * 2 >= slots_.size()) grow();
  return true;
}

bool PathTracker::contains(std::uint64_t trace_hash) const {
  if (trace_hash == 0) return has_zero_;
  if (slots_.empty()) return false;
  return slots_[probe(trace_hash)] == trace_hash;
}

void PathTracker::grow() {
  const std::vector<std::uint64_t> old = std::move(slots_);
  allocate(old.size() * 2);
  for (const std::uint64_t key : old) {
    if (key != 0) slots_[probe(key)] = key;
  }
}

std::size_t PathTracker::merge(const PathTracker& other) {
  std::size_t added = 0;
  if (other.has_zero_ && !has_zero_) {
    has_zero_ = true;
    ++added;
  }
  for (const std::uint64_t key : other.slots_) {
    if (key != 0) added += record(key) ? 1 : 0;
  }
  return added;
}

std::vector<std::uint64_t> PathTracker::snapshot() const {
  std::vector<std::uint64_t> paths;
  paths.reserve(path_count());
  if (has_zero_) paths.push_back(0);
  for (const std::uint64_t key : slots_) {
    if (key != 0) paths.push_back(key);
  }
  return paths;
}

void PathTracker::clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  filled_ = 0;
  has_zero_ = false;
}

}  // namespace icsfuzz::cov
