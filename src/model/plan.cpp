#include "model/plan.hpp"

#include <algorithm>

namespace icsfuzz::model {
namespace {

/// The default wire bytes of a leaf: what the default instance carries.
void append_default(const Chunk& chunk, Bytes& out) {
  switch (chunk.kind()) {
    case ChunkKind::Number: {
      const NumberSpec& spec = chunk.number_spec();
      const std::size_t at = out.size();
      out.resize(at + spec.width);
      store_uint(out.data() + at, spec.default_value, spec.width, spec.endian);
      break;
    }
    case ChunkKind::String: {
      const StringSpec& spec = chunk.string_spec();
      const std::size_t at = out.size();
      out.insert(out.end(), spec.default_value.begin(),
                 spec.default_value.end());
      if (spec.length) out.resize(at + *spec.length, ' ');
      if (spec.null_terminated) out.push_back(0);
      break;
    }
    case ChunkKind::Blob: {
      const BlobSpec& spec = chunk.blob_spec();
      const std::size_t at = out.size();
      out.insert(out.end(), spec.default_value.begin(),
                 spec.default_value.end());
      if (spec.length) out.resize(at + *spec.length, 0);
      break;
    }
    case ChunkKind::Block:
    case ChunkKind::Choice:
      break;
  }
}

void rebind_nodes(const Chunk& chunk, std::vector<PlanNode>& nodes,
                  std::size_t& next) noexcept {
  nodes[next++].chunk = &chunk;
  for (const Chunk& child : chunk.children()) rebind_nodes(child, nodes, next);
}

}  // namespace

ModelPlan::ModelPlan(const Chunk& root) {
  add(root, 1);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    PlanNode& node = nodes_[i];
    const Chunk& chunk = *node.chunk;
    if (chunk.kind() != ChunkKind::Number) continue;
    if (chunk.relation().active()) {
      node.relation_target = resolve(chunk.relation().target);
      if (node.relation_target != kNoNode) relations_.push_back(i);
    }
    if (chunk.fixup().active()) {
      node.fixup_ref = resolve(chunk.fixup().ref);
      if (node.fixup_ref != kNoNode) fixup_order_.push_back(i);
    }
  }
  std::stable_sort(fixup_order_.begin(), fixup_order_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return nodes_[nodes_[a].fixup_ref].depth >
                            nodes_[nodes_[b].fixup_ref].depth;
                   });
}

std::uint32_t ModelPlan::add(const Chunk& chunk, std::uint32_t depth) {
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  PlanNode node;
  node.chunk = &chunk;
  node.depth = depth;
  node.kind = chunk.kind();
  node.leaf = chunk.is_leaf();
  node.has_choice = chunk.kind() == ChunkKind::Choice;
  node.default_begin = static_cast<std::uint32_t>(defaults_.size());
  if (node.leaf) {
    node.free_leaf =
        chunk.kind() != ChunkKind::Number ||
        !(chunk.number_spec().is_token || chunk.relation().active() ||
          chunk.fixup().active());
    node.fixed_width = chunk.fixed_width().has_value();
    append_default(chunk, defaults_);
  }
  if (node.free_leaf) {
    node.rule_key = chunk.rule_key();
    node.shape_key = chunk.shape_key();
  }
  nodes_.push_back(node);
  for (const Chunk& child : chunk.children()) {
    const std::uint32_t added = add(child, depth + 1);
    if (nodes_[added].has_choice) nodes_[index].has_choice = true;
  }
  nodes_[index].end = static_cast<std::uint32_t>(nodes_.size());
  nodes_[index].default_end = static_cast<std::uint32_t>(defaults_.size());
  return index;
}

std::uint32_t ModelPlan::resolve(const std::string& name) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].chunk->name() == name) return i;
  }
  return kNoNode;
}

void ModelPlan::rebind(const Chunk& root) noexcept {
  if (nodes_.empty()) return;
  std::size_t next = 0;
  rebind_nodes(root, nodes_, next);
}

std::uint32_t ModelPlan::child(std::uint32_t node, std::size_t k) const {
  std::uint32_t child = node + 1;
  for (; k > 0; --k) child = nodes_[child].end;
  return child;
}

}  // namespace icsfuzz::model
