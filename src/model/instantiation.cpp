#include "model/instantiation.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "util/hexdump.hpp"

namespace icsfuzz::model {
namespace {

// Resolved variable-length information gathered while parsing: maps a chunk
// name to the *byte length* its relation source dictates.
using LengthEnv = std::unordered_map<std::string, std::size_t>;

/// Inverts relation_value: given the parsed field value, how many wire bytes
/// does the target occupy?
std::optional<std::size_t> target_bytes_from_value(const Relation& relation,
                                                   std::uint64_t value) {
  const std::int64_t unbiased = static_cast<std::int64_t>(value) - relation.bias;
  if (unbiased < 0) return std::nullopt;
  switch (relation.kind) {
    case RelationKind::None:
      return std::nullopt;
    case RelationKind::SizeOf:
      return static_cast<std::size_t>(unbiased);
    case RelationKind::CountOf: {
      const std::uint32_t unit = relation.unit == 0 ? 1 : relation.unit;
      return static_cast<std::size_t>(unbiased) * unit;
    }
  }
  return std::nullopt;
}

class Parser {
 public:
  Parser(const DataModel& model, ByteSpan packet, const ParseOptions& options)
      : model_(model), packet_(packet), options_(options) {}

  std::optional<InsTree> run() {
    std::size_t pos = 0;
    auto root = parse_node(model_.root(), packet_, pos);
    if (!root) return std::nullopt;
    if (options_.require_full_consumption && pos != packet_.size()) {
      return std::nullopt;
    }
    InsTree tree;
    tree.model = &model_;
    tree.root = std::move(*root);
    if (options_.verify_relations && !verify_relations(tree)) return std::nullopt;
    if (options_.verify_fixups && !verify_fixups(tree)) return std::nullopt;
    return tree;
  }

 private:
  // Parses `chunk` from data[pos..); on success advances pos.
  std::optional<InsNode> parse_node(const Chunk& chunk, ByteSpan data,
                                    std::size_t& pos) {
    switch (chunk.kind()) {
      case ChunkKind::Number: return parse_number(chunk, data, pos);
      case ChunkKind::String: return parse_string(chunk, data, pos);
      case ChunkKind::Blob: return parse_blob(chunk, data, pos);
      case ChunkKind::Block: return parse_block(chunk, data, pos);
      case ChunkKind::Choice: return parse_choice(chunk, data, pos);
    }
    return std::nullopt;
  }

  std::optional<InsNode> parse_number(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    const NumberSpec& spec = chunk.number_spec();
    if (pos + spec.width > data.size()) return std::nullopt;
    const ByteSpan raw = data.subspan(pos, spec.width);
    const std::uint64_t value = decode_uint(raw, spec.endian);
    if (spec.is_token && value != spec.default_value) return std::nullopt;
    pos += spec.width;
    if (chunk.relation().active()) {
      if (auto bytes = target_bytes_from_value(chunk.relation(), value)) {
        env_[chunk.relation().target] = *bytes;
      } else {
        return std::nullopt;  // relation value underflows its bias
      }
    }
    InsNode node;
    node.rule = &chunk;
    node.content.assign(raw.begin(), raw.end());
    return node;
  }

  std::optional<InsNode> parse_string(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    const StringSpec& spec = chunk.string_spec();
    std::size_t length = 0;
    if (auto env_length = lookup_env(chunk.name())) {
      length = *env_length;
    } else if (spec.length) {
      length = *spec.length;
    } else if (spec.null_terminated) {
      // Scan for the terminator within the current scope.
      std::size_t scan = pos;
      while (scan < data.size() && data[scan] != 0) ++scan;
      if (scan >= data.size()) return std::nullopt;
      length = scan - pos;
    } else {
      length = data.size() - pos;  // rest of scope
    }
    const std::size_t terminator = spec.null_terminated ? 1 : 0;
    if (pos + length + terminator > data.size()) return std::nullopt;
    InsNode node;
    node.rule = &chunk;
    node.content.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + length + terminator));
    if (spec.null_terminated && node.content.back() != 0) return std::nullopt;
    pos += length + terminator;
    return node;
  }

  std::optional<InsNode> parse_blob(const Chunk& chunk, ByteSpan data,
                                    std::size_t& pos) {
    const BlobSpec& spec = chunk.blob_spec();
    std::size_t length = 0;
    if (auto env_length = lookup_env(chunk.name())) {
      length = *env_length;
    } else if (spec.length) {
      length = *spec.length;
    } else {
      length = data.size() - pos;  // rest of scope
    }
    if (pos + length > data.size()) return std::nullopt;
    InsNode node;
    node.rule = &chunk;
    node.content.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + length));
    pos += length;
    return node;
  }

  std::optional<InsNode> parse_block(const Chunk& chunk, ByteSpan data,
                                     std::size_t& pos) {
    // A block whose length is dictated by a relation parses its children
    // inside the carved sub-span and must consume it exactly.
    ByteSpan scope = data;
    std::size_t scope_pos = pos;
    bool carved = false;
    if (auto env_length = lookup_env(chunk.name())) {
      if (pos + *env_length > data.size()) return std::nullopt;
      scope = data.subspan(0, pos + *env_length);
      carved = true;
    }
    InsNode node;
    node.rule = &chunk;
    for (const Chunk& child : chunk.children()) {
      auto parsed = parse_node(child, scope, scope_pos);
      if (!parsed) return std::nullopt;
      node.children.push_back(std::move(*parsed));
    }
    if (carved && scope_pos != scope.size()) return std::nullopt;
    pos = scope_pos;
    return node;
  }

  std::optional<InsNode> parse_choice(const Chunk& chunk, ByteSpan data,
                                      std::size_t& pos) {
    for (std::size_t i = 0; i < chunk.children().size(); ++i) {
      // Alternatives may write to the length environment before failing, so
      // each attempt works on a scratch copy.
      LengthEnv saved = env_;
      std::size_t attempt_pos = pos;
      auto parsed = parse_node(chunk.children()[i], data, attempt_pos);
      if (parsed) {
        InsNode node;
        node.rule = &chunk;
        node.choice_index = i;
        node.children.push_back(std::move(*parsed));
        pos = attempt_pos;
        return node;
      }
      env_ = std::move(saved);
    }
    return std::nullopt;
  }

  std::optional<std::size_t> lookup_env(const std::string& name) const {
    auto it = env_.find(name);
    if (it == env_.end()) return std::nullopt;
    return it->second;
  }

  bool verify_relations(const InsTree& tree) const {
    bool ok = true;
    visit(tree.root, [&](const InsNode& node) {
      if (!ok || node.rule == nullptr || !node.rule->relation().active()) return;
      const InsNode* target = tree.root.find(node.rule->relation().target);
      if (target == nullptr) {
        ok = false;
        return;
      }
      const std::uint64_t expected =
          relation_value(node.rule->relation(), target->serialized_size());
      const std::uint64_t actual =
          decode_uint(node.content, node.rule->number_spec().endian);
      if (expected != actual) ok = false;
    });
    return ok;
  }

  bool verify_fixups(const InsTree& tree) const {
    bool ok = true;
    visit(tree.root, [&](const InsNode& node) {
      if (!ok || node.rule == nullptr || !node.rule->fixup().active()) return;
      const InsNode* ref = tree.root.find(node.rule->fixup().ref);
      if (ref == nullptr) {
        ok = false;
        return;
      }
      const NumberSpec& spec = node.rule->number_spec();
      const std::uint64_t mask =
          spec.width >= 8 ? ~0ULL : ((1ULL << (spec.width * 8)) - 1);
      const std::uint64_t expected =
          fixup_value(node.rule->fixup().kind, ref->serialize()) & mask;
      const std::uint64_t actual = decode_uint(node.content, spec.endian);
      if (expected != actual) ok = false;
    });
    return ok;
  }

  static void visit(const InsNode& node,
                    const std::function<void(const InsNode&)>& fn) {
    fn(node);
    for (const InsNode& child : node.children) visit(child, fn);
  }

  const DataModel& model_;
  ByteSpan packet_;
  ParseOptions options_;
  LengthEnv env_;
};

void dump_node(const InsNode& node, std::size_t depth, std::string& out) {
  out.append(depth * 2, ' ');
  if (node.rule != nullptr) {
    out += node.rule->name();
    out += " <";
    out += to_string(node.rule->kind());
    out += ">";
  } else {
    out += "?";
  }
  const Bytes bytes = node.serialize();
  out += " [" + std::to_string(bytes.size()) + "B]";
  if (node.rule != nullptr && node.rule->is_leaf()) {
    const std::size_t preview = std::min<std::size_t>(bytes.size(), 16);
    out += " ";
    out += to_hex(ByteSpan(bytes.data(), preview));
    if (bytes.size() > preview) out += "..";
  }
  out += "\n";
  for (const InsNode& child : node.children) dump_node(child, depth + 1, out);
}

/// Initial capacity of an Instance's byte pool.
constexpr std::size_t kPoolFloor = 4096;

/// Ensures room for `size` bytes, at least doubling the capacity when it
/// grows. Appending one leaf at a time would otherwise let a rare longer
/// packet grow the buffer to just its size, and the next one by a byte more:
/// the capacity must converge for the steady state to be allocation-free.
void reserve_doubling(Bytes& buffer, std::size_t size) {
  if (buffer.capacity() < size) {
    buffer.reserve(std::max(size, 2 * buffer.capacity()));
  }
}

/// Writes `value` into the fixed-width Number field at `field`; returns 1
/// when its bytes changed.
std::size_t store_field(const NumberSpec& spec, std::uint64_t value,
                        const NodeSpan& field, std::span<std::uint8_t> packet) {
  std::uint8_t encoded[8];
  store_uint(encoded, value, spec.width, spec.endian);
  std::uint8_t* at = packet.data() + field.begin;
  if (std::memcmp(at, encoded, spec.width) == 0) return 0;
  std::memcpy(at, encoded, spec.width);
  return 1;
}

/// File Fixup, the one pass: rewrites in place in `packet` every present
/// relation field of `plan` (pre-order), then every present checksum fixup
/// in the plan's fixup order. `spans` is indexed by plan node; a field whose
/// target or ref is absent keeps its bytes. Returns the number of fields
/// whose bytes changed.
std::size_t fix_in_place(const ModelPlan& plan,
                         std::span<const NodeSpan> spans,
                         std::span<std::uint8_t> packet) {
  std::size_t rewritten = 0;
  // Relations first: sizes never change (derived fields are fixed-width),
  // so their order is immaterial; pre-order is the plan's.
  for (const std::uint32_t node : plan.relations()) {
    const NodeSpan& field = spans[node];
    const NodeSpan& target = spans[plan[node].relation_target];
    if (!field.present() || !target.present()) continue;
    const Chunk& chunk = *plan[node].chunk;
    rewritten += store_field(chunk.number_spec(),
                             relation_value(chunk.relation(), target.size()),
                             field, packet);
  }
  // Then checksums, innermost ref first; each reads the current bytes of
  // its ref, its own included when the ref covers it.
  for (const std::uint32_t node : plan.fixup_order()) {
    const NodeSpan& field = spans[node];
    const NodeSpan& ref = spans[plan[node].fixup_ref];
    if (!field.present() || !ref.present()) continue;
    const Chunk& chunk = *plan[node].chunk;
    const std::uint64_t value = fixup_value(
        chunk.fixup().kind, ByteSpan(packet.data() + ref.begin, ref.size()));
    rewritten += store_field(chunk.number_spec(), value, field, packet);
  }
  return rewritten;
}

/// Loads the subtree `node`, which instantiates plan node `index`, into
/// `instance`, noting the derived fields for write-back. A derived field
/// gets exactly its Number width. Returns false when the tree does not
/// follow the model.
bool load_tree(Instance& instance, InsNode& node, std::uint32_t index,
               std::vector<std::pair<InsNode*, std::uint32_t>>& derived) {
  const ModelPlan& plan = instance.plan();
  if (plan[index].chunk != node.rule) return false;
  const std::uint32_t record = instance.open(index);
  if (plan[index].leaf) {
    Bytes& pool = instance.pool();
    const std::size_t start = pool.size();
    pool.insert(pool.end(), node.content.begin(), node.content.end());
    if (plan[index].relation_target != kNoNode ||
        plan[index].fixup_ref != kNoNode) {
      pool.resize(start + node.rule->number_spec().width, 0);
      derived.emplace_back(&node, index);
    }
  } else {
    std::uint32_t child = index + 1;
    for (InsNode& sub : node.children) {
      // A Choice instantiates one of its alternatives; a Block all of its
      // children, in order.
      while (child < plan[index].end && plan[child].chunk != sub.rule) {
        child = plan[child].end;
      }
      if (child >= plan[index].end ||
          !load_tree(instance, sub, child, derived)) {
        return false;
      }
      child = plan[child].end;
    }
  }
  instance.close(record);
  return true;
}

}  // namespace

Bytes InsNode::serialize() const {
  Bytes out;
  out.reserve(serialized_size());
  serialize_append(out);
  return out;
}

void InsNode::serialize_append(Bytes& out) const {
  if (rule != nullptr && rule->is_leaf()) {
    append(out, content);
    return;
  }
  for (const InsNode& child : children) child.serialize_append(out);
}

std::size_t InsNode::serialized_size() const {
  if (rule != nullptr && rule->is_leaf()) return content.size();
  std::size_t total = 0;
  for (const InsNode& child : children) total += child.serialized_size();
  return total;
}

InsNode* InsNode::find(const std::string& name) {
  if (rule != nullptr && rule->name() == name) return this;
  for (InsNode& child : children) {
    if (InsNode* found = child.find(name)) return found;
  }
  return nullptr;
}

const InsNode* InsNode::find(const std::string& name) const {
  if (rule != nullptr && rule->name() == name) return this;
  for (const InsNode& child : children) {
    if (const InsNode* found = child.find(name)) return found;
  }
  return nullptr;
}

std::size_t InsNode::node_count() const {
  std::size_t count = 1;
  for (const InsNode& child : children) count += child.node_count();
  return count;
}

std::optional<InsTree> parse_packet(const DataModel& model, ByteSpan packet,
                                    const ParseOptions& options) {
  Parser parser(model, packet, options);
  return parser.run();
}

std::size_t apply_constraints(InsTree& tree) {
  if (tree.model == nullptr) return 0;
  Instance instance;
  instance.reset(*tree.model);
  std::vector<std::pair<InsNode*, std::uint32_t>> derived;
  if (!load_tree(instance, tree.root, 0, derived)) return 0;
  Bytes packet;
  const std::size_t rewritten = instance.finish(packet, true);
  for (const auto& [node, index] : derived) {
    const NodeSpan& span = instance.span(index);
    node->content.assign(packet.begin() + span.begin,
                         packet.begin() + span.end);
  }
  return rewritten;
}

void Instance::reset(const DataModel& model) {
  model_ = &model;
  plan_ = &model.plan();
  records_.clear();
  free_leaves_.clear();
  pool_.clear();
  // A plan node is instantiated at most once, so these never grow after
  // the largest model has been seen.
  records_.reserve(model.plan().size());
  free_leaves_.reserve(model.plan().size());
  // Leaves are appended one at a time, so a pool grown by a rare large
  // packet would end up just big enough for it; start well above what the
  // shipped pits need (a few hundred bytes) instead.
  reserve_doubling(pool_, kPoolFloor);
}

std::uint32_t Instance::open(std::uint32_t node) {
  const auto record = static_cast<std::uint32_t>(records_.size());
  records_.push_back(
      Record{node, static_cast<std::uint32_t>(pool_.size()), 0, 0, 0});
  if ((*plan_)[node].free_leaf) free_leaves_.push_back(record);
  return record;
}

void Instance::close(std::uint32_t record) {
  Record& rec = records_[record];
  rec.end = static_cast<std::uint32_t>(records_.size());
  if ((*plan_)[rec.node].leaf) {
    rec.size = static_cast<std::uint32_t>(pool_.size()) - rec.offset;
  }
}

void Instance::emit_defaults(std::uint32_t node, Rng* rng) {
  const ModelPlan& plan = *plan_;
  if (!plan[node].has_choice) {
    // No pick to draw: the subtree's records follow the plan one to one and
    // its default bytes are one contiguous run.
    const PlanNode& top = plan[node];
    const auto first = static_cast<std::uint32_t>(records_.size());
    const auto base = static_cast<std::uint32_t>(pool_.size()) -
                      top.default_begin;
    pool_.insert(pool_.end(), plan.default_bytes().begin() + top.default_begin,
                 plan.default_bytes().begin() + top.default_end);
    for (std::uint32_t index = node; index < top.end; ++index) {
      const PlanNode& sub = plan[index];
      const auto record = static_cast<std::uint32_t>(records_.size());
      if (sub.free_leaf) free_leaves_.push_back(record);
      records_.push_back(Record{
          index, base + sub.default_begin,
          sub.leaf ? sub.default_end - sub.default_begin : 0,
          first + (sub.end - node), 0});
    }
    return;
  }
  // A Choice, or a Block above one.
  const std::uint32_t record = open(node);
  if (plan[node].kind == ChunkKind::Choice) {
    const std::size_t pick =
        rng != nullptr ? rng->index(plan.child_count(node)) : 0;
    emit_defaults(plan.child(node, pick), rng);
  } else {
    for (std::uint32_t child = node + 1; child < plan[node].end;
         child = plan[child].end) {
      emit_defaults(child, rng);
    }
  }
  close(record);
}

void Instance::replace_content(std::uint32_t record, std::size_t start) {
  records_[record].offset = static_cast<std::uint32_t>(start);
  records_[record].size = static_cast<std::uint32_t>(pool_.size() - start);
}

std::size_t Instance::append_content(std::uint32_t record) {
  const Record& rec = records_[record];
  const std::size_t start = pool_.size();
  pool_.resize(start + rec.size);
  std::copy_n(pool_.begin() + rec.offset, rec.size, pool_.begin() + start);
  return start;
}

std::size_t Instance::finish(Bytes& out, bool fixup) {
  // Composite records have size 0, so the leaves' sizes add up to the
  // packet and every record begins where the previous leaf ended.
  std::uint32_t total = 0;
  for (const Record& rec : records_) total += rec.size;
  out.clear();
  reserve_doubling(out, total);
  out.resize(total);
  // Leaves generated in order sit back to back in the pool: copy each run
  // of adjacent contents with one memcpy.
  std::uint32_t at = 0;
  std::uint32_t run_offset = 0;
  std::uint32_t run_size = 0;
  const auto flush_run = [&] {
    if (run_size == 0) return;
    std::memcpy(out.data() + at - run_size, pool_.data() + run_offset,
                run_size);
  };
  for (Record& rec : records_) {
    rec.begin = at;
    if (rec.size == 0) continue;
    if (rec.offset != run_offset + run_size) {
      flush_run();
      run_offset = rec.offset;
      run_size = 0;
    }
    run_size += rec.size;
    at += rec.size;
  }
  flush_run();
  spans_.assign(plan_->size(), NodeSpan{});
  for (const Record& rec : records_) {
    const std::uint32_t end =
        rec.end < records_.size() ? records_[rec.end].begin : total;
    spans_[rec.node] = NodeSpan{rec.begin, end};
  }
  return fixup ? fix_in_place(*plan_, spans_, out) : 0;
}

InsNode Instance::tree_node(std::uint32_t record, const Bytes& packet) const {
  const Record& rec = records_[record];
  const PlanNode& node = (*plan_)[rec.node];
  InsNode out;
  out.rule = node.chunk;
  if (node.leaf) {
    const NodeSpan& span = spans_[rec.node];
    out.content.assign(packet.begin() + span.begin, packet.begin() + span.end);
    return out;
  }
  for (std::uint32_t child = record + 1; child < rec.end;
       child = records_[child].end) {
    out.children.push_back(tree_node(child, packet));
  }
  if (node.kind == ChunkKind::Choice && record + 1 < rec.end) {
    std::size_t pick = 0;
    for (std::uint32_t alt = rec.node + 1; alt != records_[record + 1].node;
         alt = (*plan_)[alt].end) {
      ++pick;
    }
    out.choice_index = pick;
  }
  return out;
}

InsTree Instance::to_tree(const Bytes& packet) const {
  InsTree tree;
  tree.model = model_;
  if (!records_.empty()) tree.root = tree_node(0, packet);
  return tree;
}

InsTree default_instance(const DataModel& model) {
  Instance instance;
  instance.reset(model);
  instance.emit_defaults(0, nullptr);
  Bytes packet;
  instance.finish(packet, true);
  return instance.to_tree(packet);
}

std::string dump_tree(const InsTree& tree) {
  std::string out;
  if (tree.model != nullptr) {
    out += "model " + tree.model->name() + "\n";
  }
  dump_node(tree.root, 0, out);
  return out;
}

}  // namespace icsfuzz::model
