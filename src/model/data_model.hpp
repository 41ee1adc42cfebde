// DataModel — one packet type's format tree, plus the linearisation the
// paper calls the "linear model ML" (§III, Figure 2a).
//
// A format specification (a Pit) yields a *set* of data models, one per
// packet type / function code; EXTRACTDATAMODEL in the paper's Algorithms 1
// and 2 corresponds to DataModelSet.
//
// Each model is compiled once, at construction, into its ModelPlan
// (plan.hpp) — the flat form the generators walk.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/chunk.hpp"
#include "model/plan.hpp"

namespace icsfuzz::model {

class DataModel {
 public:
  DataModel(std::string name, Chunk root);

  // The plan points into root_, so a copy or move re-points it at the new
  // model's own chunks.
  DataModel(const DataModel& other);
  DataModel(DataModel&& other) noexcept;
  DataModel& operator=(const DataModel& other);
  DataModel& operator=(DataModel&& other) noexcept;
  ~DataModel() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Chunk& root() const { return root_; }

  /// The compiled generation plan (node 0 is root()).
  [[nodiscard]] const ModelPlan& plan() const { return plan_; }

  /// The function-code/opcode value this model produces, when the model
  /// represents one concrete packet type (metadata used by reports).
  [[nodiscard]] std::optional<std::uint64_t> opcode() const { return opcode_; }
  void set_opcode(std::uint64_t opcode) { opcode_ = opcode; }

  /// Linear model ML: the top-level fields in wire order (children of the
  /// root block, or the root itself when it is a leaf).
  [[nodiscard]] std::vector<const Chunk*> linear() const;

  /// All leaves in wire order (diagnostics, tests).
  [[nodiscard]] std::vector<const Chunk*> leaves() const;

  /// Finds any chunk by name (unique within a model; see validate()).
  [[nodiscard]] const Chunk* find(const std::string& name) const;

  /// Finds the Number chunk that carries a SizeOf/CountOf relation whose
  /// target is `name`, or nullptr (used by the parser to resolve variable
  /// lengths).
  [[nodiscard]] const Chunk* relation_source_for(const std::string& name) const;

  /// Structural validation; returns a human-readable error for the first
  /// problem found (duplicate names, dangling relation/fixup refs, zero
  /// widths, empty composites), or nullopt when well-formed.
  [[nodiscard]] std::optional<std::string> validate() const;

  [[nodiscard]] std::size_t node_count() const { return root_.node_count(); }

 private:
  std::string name_;
  Chunk root_;
  std::optional<std::uint64_t> opcode_;
  ModelPlan plan_;
};

/// The data-model set extracted from one format specification.
class DataModelSet {
 public:
  DataModelSet() = default;
  explicit DataModelSet(std::vector<DataModel> models);

  void add(DataModel model);

  [[nodiscard]] const std::vector<DataModel>& models() const { return models_; }
  [[nodiscard]] std::size_t size() const { return models_.size(); }
  [[nodiscard]] bool empty() const { return models_.empty(); }

  [[nodiscard]] const DataModel& at(std::size_t index) const {
    return models_.at(index);
  }

  [[nodiscard]] const DataModel* find(const std::string& name) const;

  /// Validates every model; first error wins.
  [[nodiscard]] std::optional<std::string> validate() const;

 private:
  std::vector<DataModel> models_;
};

}  // namespace icsfuzz::model
