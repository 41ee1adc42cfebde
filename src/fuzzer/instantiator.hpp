// ModelInstantiator — Peach's inherent generation strategy (Algorithm 1 of
// the paper): walk the data model, generate every leaf through the
// per-type Mutators, pick Choice alternatives at random, then re-establish
// relations and fixups. Used verbatim by the baseline engine and by the
// session sequencer.
//
// Generation walks the model's compiled ModelPlan into a reusable
// model::Instance and writes the packet straight into the caller's buffer,
// so once capacities converge a packet costs no allocation. The instance is
// a mutable member: an instantiator must not generate from two threads at
// once. Each Fuzzer owns its own, and its SessionSequencer borrows it.
#pragma once

#include "model/data_model.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"
#include "util/rng.hpp"

namespace icsfuzz::fuzz {

class ModelInstantiator {
 public:
  explicit ModelInstantiator(mutation::MutatorConfig config = {})
      : config_(config), mutators_(config) {}

  /// Generates one packet from `model` into `out` (cleared first, capacity
  /// retained), constraints applied. Per MutatorConfig::sequential_mode_pct,
  /// either Peach's sequential profile (defaults + 1-2 aggressively mutated
  /// free fields) or independent regeneration of every field.
  void generate_into(const model::DataModel& model, Rng& rng,
                     Bytes& out) const;

  /// Value-returning generate_into (identical RNG draws).
  Bytes generate(const model::DataModel& model, Rng& rng) const;

  /// generate_into's packet as an instantiation tree (tests, dumps).
  model::InsTree instantiate(const model::DataModel& model, Rng& rng) const;

  [[nodiscard]] const mutation::MutatorSuite& mutators() const {
    return mutators_;
  }

 private:
  /// Regenerates plan node `node`'s subtree, every leaf through the
  /// mutators.
  void emit(std::uint32_t node, Rng& rng) const;

  mutation::MutatorConfig config_;
  mutation::MutatorSuite mutators_;
  mutable model::Instance instance_;
};

}  // namespace icsfuzz::fuzz
