#include "fuzzer/instantiator.hpp"

namespace icsfuzz::fuzz {

void ModelInstantiator::emit(std::uint32_t node, Rng& rng) const {
  const model::ModelPlan& plan = instance_.plan();
  const std::uint32_t record = instance_.open(node);
  switch (plan[node].kind) {
    case model::ChunkKind::Number:
    case model::ChunkKind::String:
    case model::ChunkKind::Blob:
      mutators_.generate_leaf_into(*plan[node].chunk, rng, instance_.pool());
      break;
    case model::ChunkKind::Block:
      for (std::uint32_t child = node + 1; child < plan[node].end;
           child = plan[child].end) {
        emit(child, rng);
      }
      break;
    case model::ChunkKind::Choice:
      emit(plan.child(node, rng.index(plan.child_count(node))), rng);
      break;
  }
  instance_.close(record);
}

void ModelInstantiator::generate_into(const model::DataModel& model, Rng& rng,
                                      Bytes& out) const {
  instance_.reset(model);
  if (rng.chance(config_.sequential_mode_pct, 100)) {
    // Peach's sequential profile: every field at its default, then 1-2
    // randomly chosen free fields take aggressive values (a field picked
    // twice keeps the second value).
    instance_.emit_defaults(0, &rng);
    const std::vector<std::uint32_t>& leaves = instance_.free_leaves();
    if (!leaves.empty()) {
      const std::size_t perturbations =
          rng.chance(1, 3) && leaves.size() > 1 ? 2 : 1;
      for (std::size_t i = 0; i < perturbations; ++i) {
        const std::uint32_t leaf = rng.pick(leaves);
        const std::size_t start = instance_.pool().size();
        mutators_.generate_leaf_into(*instance_.node_of(leaf).chunk, rng,
                                     instance_.pool());
        instance_.replace_content(leaf, start);
      }
    }
  } else {
    // Independent regeneration of every field.
    emit(0, rng);
  }
  instance_.finish(out, true);
}

Bytes ModelInstantiator::generate(const model::DataModel& model,
                                  Rng& rng) const {
  Bytes out;
  generate_into(model, rng, out);
  return out;
}

model::InsTree ModelInstantiator::instantiate(const model::DataModel& model,
                                              Rng& rng) const {
  Bytes packet;
  generate_into(model, rng, packet);
  return instance_.to_tree(packet);
}

}  // namespace icsfuzz::fuzz
