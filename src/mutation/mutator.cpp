#include "mutation/mutator.hpp"

#include <algorithm>
#include <array>

namespace icsfuzz::mutation {
namespace {

using model::BlobSpec;
using model::Chunk;
using model::ChunkKind;
using model::NumberSpec;
using model::StringSpec;

/// Classic boundary values, masked to the field width by the caller.
constexpr std::array<std::uint64_t, 10> kBoundaryValues = {
    0ULL, 1ULL, 2ULL, 0x7FULL, 0x80ULL, 0xFFULL, 0x7FFFULL, 0x8000ULL,
    0xFFFFULL, 0xFFFFFFFFULL};

/// Characters favoured by the string generator: printable structure-breaking
/// punctuation plus format-string and path traversal fragments.
constexpr std::string_view kSpicyFragments[] = {
    "%s%s%s", "%n", "../", "\\x00", "AAAA", "0x41", "';--", "<>&\"",
};

std::uint64_t width_mask(std::size_t width) {
  return width >= 8 ? ~0ULL : ((1ULL << (width * 8)) - 1);
}

}  // namespace

std::uint64_t MutatorSuite::generate_number_value(const NumberSpec& spec,
                                                  Rng& rng) const {
  const std::uint64_t mask = width_mask(spec.width);
  const unsigned roll = static_cast<unsigned>(rng.below(100));

  unsigned threshold = config_.default_value_pct;
  if (roll < threshold) return spec.default_value & mask;

  threshold += config_.legal_value_pct;
  if (roll < threshold && !spec.legal_values.empty()) {
    return rng.pick(spec.legal_values) & mask;
  }

  threshold += config_.boundary_pct;
  if (roll < threshold) {
    std::uint64_t value = kBoundaryValues[rng.index(kBoundaryValues.size())];
    // Width-specific extremes replace the generic table half the time.
    if (rng.chance(1, 2)) {
      value = rng.chance(1, 2) ? mask : (mask >> 1);
    }
    return value & mask;
  }

  // Fully random, but honour an explicit min/max hint when provided: these
  // model legal engineering ranges (e.g. plausible register addresses).
  if (spec.min_value && spec.max_value && *spec.min_value <= *spec.max_value &&
      rng.chance(1, 2)) {
    return rng.between(*spec.min_value, *spec.max_value) & mask;
  }
  return rng.next_u64() & mask;
}

void MutatorSuite::generate_string(const StringSpec& spec, Rng& rng,
                                   Bytes& out) const {
  std::size_t length;
  if (spec.length) {
    length = *spec.length;
  } else {
    length = static_cast<std::size_t>(rng.below(spec.max_generated + 1));
  }
  const std::size_t start = out.size();
  const unsigned roll = static_cast<unsigned>(rng.below(100));
  if (roll < config_.default_value_pct) {
    out.insert(out.end(), spec.default_value.begin(), spec.default_value.end());
  } else if (roll < config_.default_value_pct + 30 && length > 0) {
    // Compose from spicy fragments.
    while (out.size() - start < length) {
      const std::string_view fragment =
          kSpicyFragments[rng.index(std::size(kSpicyFragments))];
      out.insert(out.end(), fragment.begin(), fragment.end());
    }
  } else {
    for (std::size_t i = 0; i < length; ++i) {
      out.push_back(static_cast<std::uint8_t>(rng.between('!', '~')));
    }
  }
  if (spec.length) {
    out.resize(start + *spec.length, ' ');
  } else if (out.size() - start > spec.max_generated) {
    out.resize(start + spec.max_generated);
  }
  if (spec.null_terminated) out.push_back(0);
}

void MutatorSuite::generate_blob(const BlobSpec& spec, Rng& rng,
                                 Bytes& out) const {
  std::size_t length;
  if (spec.length) {
    length = *spec.length;
  } else {
    // Variable blobs: favour short payloads but occasionally stretch to the
    // cap; align to the element unit so CountOf relations stay integral.
    length = static_cast<std::size_t>(rng.below(spec.max_generated + 1));
    if (spec.unit > 1) length -= length % spec.unit;
  }
  const unsigned roll = static_cast<unsigned>(rng.below(100));
  if (roll < config_.default_value_pct && !spec.default_value.empty()) {
    const std::size_t start = out.size();
    out.insert(out.end(), spec.default_value.begin(), spec.default_value.end());
    if (spec.length) out.resize(start + *spec.length, 0);
    return;
  }
  if (roll < config_.default_value_pct + 20) {
    // Repeating single byte — exercises run-length and loop paths.
    out.insert(out.end(), length, rng.byte());
    return;
  }
  for (std::size_t i = 0; i < length; ++i) out.push_back(rng.byte());
}

void MutatorSuite::generate_leaf_into(const Chunk& chunk, Rng& rng,
                                      Bytes& out) const {
  const std::size_t start = out.size();
  switch (chunk.kind()) {
    case ChunkKind::Number: {
      const NumberSpec& spec = chunk.number_spec();
      // Tokens and derived fields keep their defaults; relations/fixups are
      // rewritten later by File Fixup anyway.
      const std::uint64_t value =
          spec.is_token ? spec.default_value : generate_number_value(spec, rng);
      out.resize(start + spec.width);
      store_uint(out.data() + start, value, spec.width, spec.endian);
      break;
    }
    case ChunkKind::String:
      generate_string(chunk.string_spec(), rng, out);
      break;
    case ChunkKind::Blob:
      generate_blob(chunk.blob_spec(), rng, out);
      break;
    case ChunkKind::Block:
    case ChunkKind::Choice:
      // Composites are generated by the engines, not the leaf factory.
      break;
  }
  // Optional second-stage mutation on the produced bytes (never for tokens:
  // a broken token would fail model-side framing immediately, which is the
  // validity-verification time sink the paper attributes to mutation-based
  // fuzzers).
  const bool is_token =
      chunk.kind() == ChunkKind::Number && chunk.number_spec().is_token;
  const bool fixed_length = chunk.kind() == ChunkKind::Number ||
                            (chunk.kind() == ChunkKind::String &&
                             chunk.string_spec().length.has_value()) ||
                            (chunk.kind() == ChunkKind::Blob &&
                             chunk.blob_spec().length.has_value());
  const std::size_t produced = out.size() - start;
  if (!is_token && produced != 0 &&
      rng.chance(config_.post_mutate_pct, 100)) {
    mutate_tail(out, start, rng);
    // Fixed-width fields must stay fixed-width.
    if (fixed_length) out.resize(start + produced, 0);
  }
}

Bytes MutatorSuite::generate_leaf(const Chunk& chunk, Rng& rng) const {
  Bytes out;
  generate_leaf_into(chunk, rng, out);
  return out;
}

Bytes MutatorSuite::mutate_bytes(ByteSpan input, Rng& rng) const {
  Bytes out;
  mutate_bytes_into(input, out, rng);
  return out;
}

void MutatorSuite::mutate_bytes_into(ByteSpan input, Bytes& out,
                                     Rng& rng) const {
  out.assign(input.begin(), input.end());
  mutate_tail(out, 0, rng);
}

void MutatorSuite::mutate_tail(Bytes& buffer, std::size_t begin,
                               Rng& rng) const {
  const std::size_t size = buffer.size() - begin;
  const auto at = [&](std::size_t i) {
    return buffer.begin() + static_cast<std::ptrdiff_t>(begin + i);
  };
  const std::uint64_t op = rng.below(6);
  switch (op) {
    case 0: {  // bit flip
      if (size == 0) break;
      const std::size_t index = rng.index(size);
      buffer[begin + index] ^= static_cast<std::uint8_t>(1U << rng.below(8));
      break;
    }
    case 1: {  // byte replace
      if (size == 0) break;
      buffer[begin + rng.index(size)] = rng.byte();
      break;
    }
    case 2: {  // byte arithmetic +-1..16
      if (size == 0) break;
      const std::size_t index = rng.index(size);
      const std::int64_t delta = static_cast<std::int64_t>(rng.between(1, 16));
      buffer[begin + index] = static_cast<std::uint8_t>(
          static_cast<std::int64_t>(buffer[begin + index]) +
          (rng.chance(1, 2) ? delta : -delta));
      break;
    }
    case 3: {  // block duplicate (splice a run of self)
      if (size == 0) break;
      const std::size_t start = rng.index(size);
      const std::size_t length =
          std::min<std::size_t>(size - start,
                                static_cast<std::size_t>(rng.between(1, 8)));
      // Shift the tail right by `length`; the run then appears twice.
      buffer.resize(buffer.size() + length);
      std::copy_backward(at(start), buffer.end() - static_cast<std::ptrdiff_t>(length),
                         buffer.end());
      break;
    }
    case 4: {  // block remove
      if (size < 2) break;
      const std::size_t start = rng.index(size - 1);
      const std::size_t length =
          std::min<std::size_t>(size - start - 1,
                                static_cast<std::size_t>(rng.between(1, 8)));
      buffer.erase(at(start), at(start + length));
      break;
    }
    default: {  // byte insert
      const std::size_t index = size == 0 ? 0 : rng.index(size + 1);
      buffer.insert(at(index), rng.byte());
      break;
    }
  }
}

}  // namespace icsfuzz::mutation
