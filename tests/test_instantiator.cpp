// Tests for ModelInstantiator's two generation profiles: Peach's
// sequential field mutation (defaults + 1-2 aberrant fields) and
// independent full-field regeneration.
#include <gtest/gtest.h>

#include <memory>

#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"

namespace icsfuzz::fuzz {
namespace {

using model::Chunk;
using model::DataModel;
using model::NumberSpec;

/// Token + three free 2-byte fields with distinct defaults.
DataModel probe_model() {
  std::vector<Chunk> fields;
  fields.push_back(Chunk::token("Fc", 1, Endian::Big, 0x42));
  for (int i = 0; i < 3; ++i) {
    NumberSpec spec;
    spec.width = 2;
    spec.default_value = static_cast<std::uint64_t>(0x1110 * (i + 1));
    fields.push_back(Chunk::number("F" + std::to_string(i), spec));
  }
  return DataModel("probe", Chunk::block("root", std::move(fields)));
}

std::array<std::uint16_t, 3> fields_of(const Bytes& packet) {
  return {static_cast<std::uint16_t>((packet[1] << 8) | packet[2]),
          static_cast<std::uint16_t>((packet[3] << 8) | packet[4]),
          static_cast<std::uint16_t>((packet[5] << 8) | packet[6])};
}

TEST(SequentialProfile, MostFieldsHoldDefaults) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 100;
  config.post_mutate_pct = 0;
  ModelInstantiator instantiator(config);
  const DataModel model = probe_model();
  Rng rng(1);
  int deviations_total = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes packet = instantiator.generate(model, rng);
    ASSERT_EQ(packet.size(), 7u);
    EXPECT_EQ(packet[0], 0x42);
    const auto fields = fields_of(packet);
    int deviations = 0;
    deviations += fields[0] != 0x1110;
    deviations += fields[1] != 0x2220;
    deviations += fields[2] != 0x3330;
    EXPECT_LE(deviations, 2) << "iteration " << i;
    deviations_total += deviations;
  }
  EXPECT_GT(deviations_total, 0);  // something must actually mutate
}

TEST(FullRandomProfile, FieldsVaryIndependently) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 0;
  config.default_value_pct = 0;
  config.legal_value_pct = 0;
  config.boundary_pct = 0;
  ModelInstantiator instantiator(config);
  const DataModel model = probe_model();
  Rng rng(2);
  int all_three_deviate = 0;
  for (int i = 0; i < 100; ++i) {
    const auto fields = fields_of(instantiator.generate(model, rng));
    if (fields[0] != 0x1110 && fields[1] != 0x2220 && fields[2] != 0x3330) {
      ++all_three_deviate;
    }
  }
  EXPECT_GT(all_three_deviate, 90);  // fully random: defaults vanish
}

TEST(FreeLeaves, ExcludesTokensRelationsAndFixups) {
  const model::DataModelSet set = pits::modbus_pit();
  const model::DataModel* model = set.find("WriteMultipleRegisters");
  ASSERT_NE(model, nullptr);
  std::vector<const model::Chunk*> leaves;
  const model::ModelPlan& plan = model->plan();
  for (std::uint32_t node = 0; node < plan.size(); ++node) {
    if (plan[node].free_leaf) leaves.push_back(plan[node].chunk);
  }
  for (const model::Chunk* leaf : leaves) {
    EXPECT_FALSE(leaf->number_spec().is_token &&
                 leaf->kind() == model::ChunkKind::Number);
    EXPECT_FALSE(leaf->relation().active());
    EXPECT_FALSE(leaf->fixup().active());
  }
  // WriteMultipleRegisters free leaves: TransactionId, UnitId, Address,
  // Values blob (FunctionCode/ProtocolId are tokens; Quantity/ByteCount
  // carry relations; Length carries a relation).
  EXPECT_EQ(leaves.size(), 4u);
}

TEST(SequentialProfile, ConstraintsStillHold) {
  mutation::MutatorConfig config;
  config.sequential_mode_pct = 100;
  ModelInstantiator instantiator(config);
  const model::DataModelSet set = pits::modbus_pit();
  Rng rng(4);
  for (const model::DataModel& model : set.models()) {
    for (int i = 0; i < 20; ++i) {
      const Bytes packet = instantiator.generate(model, rng);
      EXPECT_TRUE(model::parse_packet(model, packet).has_value())
          << model.name();
    }
  }
}

/// The chunks of `root` in pre-order — what a plan's nodes must point at.
void preorder(const model::Chunk& chunk, std::vector<const model::Chunk*>& out) {
  out.push_back(&chunk);
  for (const model::Chunk& child : chunk.children()) preorder(child, out);
}

void expect_plan_points_into(const DataModel& model) {
  std::vector<const model::Chunk*> chunks;
  preorder(model.root(), chunks);
  ASSERT_EQ(model.plan().size(), chunks.size()) << model.name();
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(model.plan()[i].chunk, chunks[i]) << model.name() << " " << i;
  }
}

std::vector<Bytes> generate_n(const DataModel& model, std::uint64_t seed) {
  const ModelInstantiator instantiator;
  Rng rng(seed);
  std::vector<Bytes> out(64);
  for (Bytes& packet : out) instantiator.generate_into(model, rng, packet);
  return out;
}

TEST(CompiledPlan, MovedAndCopiedModelsGenerateIdenticalBytes) {
  const model::DataModelSet set = pits::iec104_pit();
  for (const DataModel& original : set.models()) {
    const std::vector<Bytes> expected = generate_n(original, 11);

    auto source = std::make_unique<DataModel>(original);
    const DataModel copied(*source);
    DataModel moved(std::move(*source));
    source.reset();  // the plans must not point into the dead source

    DataModel copy_assigned("placeholder", model::Chunk::block("p", {}));
    copy_assigned = copied;
    DataModel move_assigned("placeholder", model::Chunk::block("p", {}));
    DataModel spare(copied);
    move_assigned = std::move(spare);

    for (const DataModel* model : std::initializer_list<const DataModel*>{
             &copied, &moved, &copy_assigned, &move_assigned}) {
      expect_plan_points_into(*model);
      EXPECT_EQ(generate_n(*model, 11), expected) << original.name();
    }
  }
}

}  // namespace
}  // namespace icsfuzz::fuzz
