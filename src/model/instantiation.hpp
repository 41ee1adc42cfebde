// Instantiation — Definition 1 in the paper: a data model with each
// construction rule replaced by a realistic data chunk. Two forms exist.
//
//   * Instance — the generators' form. A reused arena of (plan node, content
//     offset, length) records for the nodes actually instantiated, in
//     pre-order, plus one reused byte pool holding leaf content. Generators
//     walk the model's ModelPlan (plan.hpp) and append to it; finish()
//     writes the leaves straight into the output packet, recording every
//     node's [begin, end), and runs File Fixup in place. Once capacities
//     converge, generating a packet allocates nothing.
//   * InsTree / InsNode — the tree form. parse_packet builds it bottom-up
//     from wire bytes (PARSE(M, Iv) in Algorithm 2, the entry point of the
//     File Cracker); default_instance() and ModelInstantiator::instantiate()
//     materialise one from an Instance for tests and dumps.
//
// File Fixup (§IV-D) is one pass over a packet and the spans of its nodes:
// relation fields (size-of / count-of) are rewritten in pre-order from the
// measured spans, then checksum fixups in the plan's order. Every derived
// field is a fixed-width Number, so no offset moves. apply_constraints on
// an InsTree is a thin adapter over the same pass.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/data_model.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace icsfuzz::model {

/// One node of an instantiation tree: a leaf holds its wire bytes in
/// `content`, a composite its children.
struct InsNode {
  const Chunk* rule = nullptr;     // borrowed from the DataModel (must outlive)
  Bytes content;                   // leaf bytes
  std::vector<InsNode> children;   // composite structure

  /// For a parsed Choice node: index of the alternative that matched.
  std::optional<std::size_t> choice_index;

  [[nodiscard]] bool is_composite() const {
    return rule != nullptr && !rule->is_leaf();
  }

  /// Serialized wire bytes of this subtree (a "puzzle" per Definition 2).
  [[nodiscard]] Bytes serialize() const;

  /// Appends this subtree's wire bytes to `out` without clearing it — the
  /// allocation-free core of serialize(); callers own the buffer.
  void serialize_append(Bytes& out) const;

  /// Serialized byte length without materialising the bytes.
  [[nodiscard]] std::size_t serialized_size() const;

  /// DFS lookup by rule name within this subtree.
  [[nodiscard]] InsNode* find(const std::string& name);
  [[nodiscard]] const InsNode* find(const std::string& name) const;

  /// Node count (tests/diagnostics).
  [[nodiscard]] std::size_t node_count() const;
};

/// A complete instantiation of one data model.
struct InsTree {
  const DataModel* model = nullptr;  // borrowed; must outlive the tree
  InsNode root;

  [[nodiscard]] Bytes serialize() const { return root.serialize(); }

  /// Serializes into a caller-owned buffer (cleared first, capacity
  /// retained) — the packet pipeline's zero-allocation serialization path.
  void serialize_into(Bytes& out) const {
    out.clear();
    out.reserve(root.serialized_size());
    root.serialize_append(out);
  }
};

/// Options controlling `parse_packet`.
struct ParseOptions {
  /// Require every byte of the packet to be consumed (the LEGAL test).
  bool require_full_consumption = true;
  /// Verify checksum fixups against recomputed values.
  bool verify_fixups = true;
  /// Verify size-of / count-of fields against measured sizes.
  bool verify_relations = true;
};

/// PARSE(M, Iv): parses `packet` against `model`. Returns nullopt when the
/// packet is not legal under the model (token mismatch, truncation, length
/// inconsistency, failed checksum, trailing garbage).
std::optional<InsTree> parse_packet(const DataModel& model, ByteSpan packet,
                                    const ParseOptions& options = {});

/// Byte range of one node in a serialized packet. A node the instance did
/// not instantiate (in an unchosen Choice alternative) is absent.
struct NodeSpan {
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFU;
  std::uint32_t begin = kAbsent;
  std::uint32_t end = 0;

  [[nodiscard]] bool present() const { return begin != kAbsent; }
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// File Fixup on a tree (parsed or hand-built): loads it into an Instance,
/// runs the one pass of Instance::finish and writes the derived fields
/// back. A derived field whose content is not its Number width is first
/// zero-padded or truncated to it. Returns the number of fields rewritten;
/// a tree that does not follow its model is left as it is (0).
std::size_t apply_constraints(InsTree& tree);

/// The generators' reusable instantiation arena (see the file comment).
/// Records are opened in pre-order; a leaf's content is whatever the caller
/// appends to pool() between open() and close(). Not thread-safe: each
/// generator owns one.
class Instance {
 public:
  /// Starts an empty instance of `model`, keeping every capacity.
  void reset(const DataModel& model);

  [[nodiscard]] const ModelPlan& plan() const { return *plan_; }
  [[nodiscard]] Bytes& pool() { return pool_; }

  /// Opens plan node `node` as the next record; returns the record index.
  std::uint32_t open(std::uint32_t node);
  /// Closes `record`: its subtree (or leaf content) ends here.
  void close(std::uint32_t record);

  /// Instantiates `node`'s subtree with default leaf bytes. Each Choice
  /// draws its alternative from `rng`, or takes the first one when `rng`
  /// is null.
  void emit_defaults(std::uint32_t node, Rng* rng);

  /// Records of the instantiated free leaves (PlanNode::free_leaf), in
  /// pre-order.
  [[nodiscard]] const std::vector<std::uint32_t>& free_leaves() const {
    return free_leaves_;
  }

  [[nodiscard]] const PlanNode& node_of(std::uint32_t record) const {
    return (*plan_)[records_[record].node];
  }
  [[nodiscard]] ByteSpan content(std::uint32_t record) const {
    return ByteSpan(pool_).subspan(records_[record].offset,
                                   records_[record].size);
  }
  /// Makes pool()[start, end) the new content of leaf `record`; the old
  /// bytes stay in the pool, unreferenced.
  void replace_content(std::uint32_t record, std::size_t start);
  /// Appends a copy of leaf `record`'s content to the pool; returns where
  /// the copy starts.
  std::size_t append_content(std::uint32_t record);

  /// Serializes the instance into `out` (cleared first, capacity kept),
  /// recording every node's span, then runs File Fixup when `fixup`: one
  /// in-place pass that rewrites every present relation field (pre-order),
  /// then every present checksum fixup in the plan's order. A field whose
  /// target or ref is absent keeps its bytes. Returns the number of fields
  /// whose bytes changed.
  std::size_t finish(Bytes& out, bool fixup);

  /// Span of plan node `node` in the packet last finished.
  [[nodiscard]] const NodeSpan& span(std::uint32_t node) const {
    return spans_[node];
  }

  /// The instance last finished into `packet`, as an InsTree.
  [[nodiscard]] InsTree to_tree(const Bytes& packet) const;

 private:
  struct Record {
    std::uint32_t node = 0;    // plan node
    std::uint32_t offset = 0;  // leaf content in pool_
    std::uint32_t size = 0;
    std::uint32_t end = 0;     // one past this subtree's last record
    std::uint32_t begin = 0;   // byte offset in the finished packet
  };

  [[nodiscard]] InsNode tree_node(std::uint32_t record,
                                  const Bytes& packet) const;

  const DataModel* model_ = nullptr;
  const ModelPlan* plan_ = nullptr;
  std::vector<Record> records_;
  std::vector<std::uint32_t> free_leaves_;
  std::vector<NodeSpan> spans_;
  Bytes pool_;
};

/// Builds the default instantiation of a model: every leaf takes its
/// default value, choices take their first alternative, then constraints
/// are applied. The cheapest way to get one valid packet from a model.
InsTree default_instance(const DataModel& model);

/// Renders a one-line-per-node dump of the tree (tests, crash triage).
std::string dump_tree(const InsTree& tree);

}  // namespace icsfuzz::model
