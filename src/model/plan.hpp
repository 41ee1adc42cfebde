// ModelPlan — a data model compiled once into the flat form every generator
// walks (Peach's model instantiation, the paper's Algorithm 1, and Peach*'s
// semantic-aware generation, Algorithm 3).
//
// The Chunk tree says what a packet is; the plan says how to build one
// without allocating. DataModel compiles it in its constructor:
//   * a pre-order node array — each node holds its chunk, the index one
//     past its subtree, its depth, its default bytes, a "free leaf" flag
//     and, for free leaves, the cached rule/shape keys the puzzle corpus
//     is keyed on;
//   * every relation target and fixup ref resolved to a node index (the
//     first chunk of that name in pre-order, which is the only one in a
//     model that passes DataModel::validate());
//   * the File Fixup order: deepest ref first, pre-order among equal
//     depths, so an outer checksum covers the final bytes of an inner one.
//
// Generators fill an Instance (instantiation.hpp) by node index; no name
// lookup, recursion through std::function or sort happens per packet.
#pragma once

#include <cstdint>
#include <vector>

#include "model/chunk.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::model {

/// "No such node": an unresolved relation target or fixup ref.
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFU;

struct PlanNode {
  const Chunk* chunk = nullptr;  // borrowed from the owning DataModel
  /// Chunk::rule_key() / shape_key() of a free leaf (0 elsewhere): the
  /// puzzle-corpus keys donors are looked up by.
  std::uint64_t rule_key = 0;
  std::uint64_t shape_key = 0;
  std::uint32_t end = 0;         // one past the last node of this subtree
  std::uint32_t depth = 0;       // the root is depth 1
  /// Resolved relation target / fixup ref of a Number leaf, or kNoNode.
  std::uint32_t relation_target = kNoNode;
  std::uint32_t fixup_ref = kNoNode;
  /// The subtree's default wire bytes (first alternatives aside, see
  /// has_choice) are default_bytes()[default_begin, default_end).
  std::uint32_t default_begin = 0;
  std::uint32_t default_end = 0;
  ChunkKind kind = ChunkKind::Block;
  bool leaf = false;
  /// The subtree holds a Choice, so its default bytes depend on the picks.
  bool has_choice = false;
  /// A leaf that carries free data: not a token and, for a Number, without
  /// relation or fixup. Sequential mutation perturbs these and donors may
  /// replace them.
  bool free_leaf = false;
  /// Chunk::fixed_width() has a value: mutated bytes keep their length.
  bool fixed_width = false;
};

class ModelPlan {
 public:
  ModelPlan() = default;
  explicit ModelPlan(const Chunk& root);

  /// Points every node at the same-position chunk of `root`, which must be
  /// a copy of the tree the plan was compiled from (DataModel copy/move).
  void rebind(const Chunk& root) noexcept;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const PlanNode& operator[](std::uint32_t node) const {
    return nodes_[node];
  }

  /// The `k`-th child of composite `node` (a Choice's k-th alternative).
  [[nodiscard]] std::uint32_t child(std::uint32_t node, std::size_t k) const;

  /// Number of children of composite `node`.
  [[nodiscard]] std::size_t child_count(std::uint32_t node) const {
    return nodes_[node].chunk->children().size();
  }

  /// Every leaf's default wire bytes, concatenated in pre-order.
  [[nodiscard]] const Bytes& default_bytes() const { return defaults_; }

  /// Number nodes whose relation target resolved, in pre-order.
  [[nodiscard]] const std::vector<std::uint32_t>& relations() const {
    return relations_;
  }

  /// Number nodes whose fixup ref resolved, in File Fixup order.
  [[nodiscard]] const std::vector<std::uint32_t>& fixup_order() const {
    return fixup_order_;
  }

 private:
  std::uint32_t add(const Chunk& chunk, std::uint32_t depth);
  std::uint32_t resolve(const std::string& name) const;

  std::vector<PlanNode> nodes_;
  Bytes defaults_;
  std::vector<std::uint32_t> relations_;
  std::vector<std::uint32_t> fixup_order_;
};

}  // namespace icsfuzz::model
