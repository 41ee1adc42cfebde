#include "fuzzer/semantic_gen.hpp"

#include <algorithm>

namespace icsfuzz::fuzz {

// Donation happens at *leaf* granularity: the paper's linear model ML
// (Figure 2a) is the flat sequence of chunk construction rules, and a
// donated leaf splices into freshly generated siblings. Only free leaves
// (PlanNode::free_leaf: no token, relation or fixup) take donors. Composite
// puzzles stay in the corpus (Definition 2) but are not replayed wholesale —
// replaying whole packets would collapse exploration into repetition.

unsigned SemanticGenerator::roll_donor_intensity(Rng& rng) const {
  switch (rng.below(3)) {
    case 0: return config_.donor_use_pct;       // heavy: pass learned gates
    case 1: return config_.donor_use_pct / 2;   // medium blend
    default: return config_.explore_pct;        // light: explore values
  }
}

const std::vector<Bytes>* SemanticGenerator::donors(
    const model::PlanNode& leaf, const PuzzleCorpus& corpus, Rng& rng) const {
  const std::vector<Bytes>* pool = corpus.exact_candidates(leaf.rule_key);
  if (pool == nullptr && rng.chance(config_.similar_tier_pct, 100)) {
    pool = corpus.similar_candidates(leaf.shape_key);
  }
  return pool;
}

void SemanticGenerator::emit_with_donors(std::uint32_t node,
                                         const PuzzleCorpus& corpus, Rng& rng,
                                         unsigned donor_pct) const {
  const model::ModelPlan& plan = instance_.plan();
  const model::PlanNode& rule = plan[node];
  if (rule.free_leaf && rng.chance(donor_pct, 100)) {
    if (const std::vector<Bytes>* pool = donors(rule, corpus, rng)) {
      const Bytes& donor = rng.pick(*pool);
      const std::uint32_t record = instance_.open(node);
      Bytes& bytes = instance_.pool();
      const std::size_t start = bytes.size();
      bytes.insert(bytes.end(), donor.begin(), donor.end());
      // "Mutation on existing chunks": occasionally perturb the donated
      // bytes so learned values seed neighbourhood exploration.
      if (rng.chance(config_.mutate_donor_pct, 100)) {
        mutators_.mutate_tail(bytes, start, rng);
        if (rule.fixed_width) bytes.resize(start + donor.size(), 0);
      }
      instance_.close(record);
      return;
    }
  }

  const std::uint32_t record = instance_.open(node);
  switch (rule.kind) {
    case model::ChunkKind::Number:
    case model::ChunkKind::String:
    case model::ChunkKind::Blob:
      mutators_.generate_leaf_into(*rule.chunk, rng, instance_.pool());
      break;
    case model::ChunkKind::Block:
      for (std::uint32_t child = node + 1; child < rule.end;
           child = plan[child].end) {
        emit_with_donors(child, corpus, rng, donor_pct);
      }
      break;
    case model::ChunkKind::Choice:
      emit_with_donors(plan.child(node, rng.index(plan.child_count(node))),
                       corpus, rng, donor_pct);
      break;
  }
  instance_.close(record);
}

Bytes SemanticGenerator::generate(const model::DataModel& model,
                                  const PuzzleCorpus& corpus, Rng& rng) const {
  Bytes out;
  generate_into(model, corpus, rng, out);
  return out;
}

void SemanticGenerator::generate_into(const model::DataModel& model,
                                      const PuzzleCorpus& corpus, Rng& rng,
                                      Bytes& out) const {
  instance_.reset(model);
  if (rng.chance(60, 100)) {
    // Donor-recombination profile: the structural counterpart of Peach's
    // sequential mutation. Every free field takes either a donated puzzle
    // or its default, then 0-2 fields go aberrant. This is what reaches
    // multi-field non-default combinations — each learned separately from
    // different valuable seeds — that single-field mutation cannot.
    instance_.emit_defaults(0, &rng);
    const std::vector<std::uint32_t>& leaves = instance_.free_leaves();
    Bytes& bytes = instance_.pool();
    const unsigned donor_pct = roll_donor_intensity(rng);
    for (const std::uint32_t leaf : leaves) {
      if (!rng.chance(donor_pct, 100)) continue;
      if (const std::vector<Bytes>* pool =
              donors(instance_.node_of(leaf), corpus, rng)) {
        const Bytes& donor = rng.pick(*pool);
        const std::size_t start = bytes.size();
        bytes.insert(bytes.end(), donor.begin(), donor.end());
        instance_.replace_content(leaf, start);
      }
    }
    if (!leaves.empty() && rng.chance(2, 3)) {
      const std::size_t perturbations =
          rng.chance(1, 3) && leaves.size() > 1 ? 2 : 1;
      for (std::size_t i = 0; i < perturbations; ++i) {
        const std::uint32_t leaf = rng.pick(leaves);
        const model::PlanNode& rule = instance_.node_of(leaf);
        std::size_t start = bytes.size();
        if (rng.chance(config_.mutate_donor_pct, 100) &&
            !instance_.content(leaf).empty()) {
          const std::size_t original_size = instance_.content(leaf).size();
          start = instance_.append_content(leaf);
          mutators_.mutate_tail(bytes, start, rng);
          if (rule.fixed_width) bytes.resize(start + original_size, 0);
        } else {
          mutators_.generate_leaf_into(*rule.chunk, rng, bytes);
        }
        instance_.replace_content(leaf, start);
      }
    }
  } else {
    const unsigned donor_pct = roll_donor_intensity(rng);
    emit_with_donors(0, corpus, rng, donor_pct);
  }
  instance_.finish(out, config_.apply_file_fixup);  // File Fixup
}

void SemanticGenerator::emit_pinned(std::uint32_t node,
                                    const PuzzleCorpus& corpus, Rng& rng,
                                    std::span<const Pin> pins) const {
  for (const Pin& pin : pins) {
    if (pin.node != node) continue;
    const std::uint32_t record = instance_.open(node);
    instance_.pool().insert(instance_.pool().end(), pin.bytes->begin(),
                            pin.bytes->end());
    instance_.close(record);
    return;
  }
  const model::ModelPlan& plan = instance_.plan();
  const model::PlanNode& rule = plan[node];
  if (rule.leaf) {
    emit_with_donors(node, corpus, rng, config_.donor_use_pct / 2);
    return;
  }
  const std::uint32_t record = instance_.open(node);
  if (rule.kind == model::ChunkKind::Choice) {
    // Prefer an alternative that contains a pinned leaf (the last such
    // alternative wins); random otherwise.
    std::size_t pick = rng.index(plan.child_count(node));
    std::size_t k = 0;
    for (std::uint32_t alt = node + 1; alt < rule.end;
         alt = plan[alt].end, ++k) {
      for (const Pin& pin : pins) {
        if (pin.node >= alt && pin.node < plan[alt].end) {
          pick = k;
          break;
        }
      }
    }
    emit_pinned(plan.child(node, pick), corpus, rng, pins);
  } else {
    for (std::uint32_t child = node + 1; child < rule.end;
         child = plan[child].end) {
      emit_pinned(child, corpus, rng, pins);
    }
  }
  instance_.close(record);
}

std::vector<Bytes> SemanticGenerator::generate_batch(
    const model::DataModel& model, const PuzzleCorpus& corpus,
    Rng& rng) const {
  std::vector<Bytes> out;

  // The linear model: every free leaf that actually has exact-tier
  // candidates becomes an enumeration position (GETDONOR non-empty); all
  // other chunks fall back to the inherent rule (Algorithm 3 lines 14-15).
  struct Position {
    std::uint32_t node = 0;
    const std::vector<Bytes>* candidates = nullptr;
  };
  const model::ModelPlan& plan = model.plan();
  std::vector<Position> positions;
  for (std::uint32_t node = 0; node < plan.size(); ++node) {
    if (!plan[node].free_leaf) continue;
    if (const std::vector<Bytes>* candidates =
            corpus.exact_candidates(plan[node].rule_key)) {
      positions.push_back({node, candidates});
    }
  }
  if (positions.empty()) return out;

  // Bound the product: shuffle, keep a handful of positions, and sample at
  // most candidates_per_position donors per position.
  rng.shuffle(positions);
  constexpr std::size_t kMaxPositions = 3;
  if (positions.size() > kMaxPositions) positions.resize(kMaxPositions);

  std::vector<std::vector<const Bytes*>> choices(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::vector<std::size_t> order(positions[i].candidates->size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    rng.shuffle(order);
    const std::size_t take =
        std::min(order.size(), config_.candidates_per_position);
    for (std::size_t j = 0; j < take; ++j) {
      choices[i].push_back(&(*positions[i].candidates)[order[j]]);
    }
  }

  // Depth-first product over the selected positions; each complete pin set
  // becomes one seed.
  std::vector<Pin> pins(positions.size());
  const auto construct = [&](const auto& self, std::size_t pos) -> void {
    if (out.size() >= config_.max_batch) return;
    if (pos == positions.size()) {
      instance_.reset(model);
      emit_pinned(0, corpus, rng, pins);
      Bytes packet;
      instance_.finish(packet, config_.apply_file_fixup);  // File Fixup
      out.push_back(std::move(packet));
      return;
    }
    for (const Bytes* candidate : choices[pos]) {
      pins[pos] = Pin{positions[pos].node, candidate};
      self(self, pos + 1);
      if (out.size() >= config_.max_batch) break;
    }
  };
  construct(construct, 0);
  return out;
}

}  // namespace icsfuzz::fuzz
