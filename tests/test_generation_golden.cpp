// Golden generation digests: the byte-identity oracle of every Peach*
// generator.
//
// For each model of the six typed pits, the six pits/*.xml and a set of
// hand-built "trap" models, at fixed seeds, a digest of the first outputs
// of every generation entry point is pinned:
//   * ModelInstantiator::generate_into (Algorithm 1, both profiles);
//   * SemanticGenerator::generate_into over a fixed cracked corpus, with
//     File Fixup on and off (Algorithm 3 + §IV-D);
//   * SemanticGenerator::generate_batch (the post-crack p x q batch);
//   * model::default_instance;
//   * SessionSequencer::generate_into;
//   * SessionSequencer::mutate_stream_into, over a chain of its own outputs
//     and a stream past the framing layer's message cap.
//
// A digest changes whenever any output byte or any RNG draw changes, so a
// refactor of the generators passes only if it is byte-identical, draw for
// draw. The constants must never be edited to make a change pass; a
// deliberate change of generation semantics re-pins them in its own commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fuzzer/cracker.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "model/instantiation.hpp"
#include "model/pit_parser.hpp"
#include "pits/pits.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"

namespace icsfuzz {
namespace {

using model::Chunk;
using model::DataModel;
using model::DataModelSet;
using model::NumberSpec;

constexpr int kOutputsPerModel = 48;
constexpr int kBatchesPerModel = 3;
constexpr int kSessionStreams = 96;

NumberSpec num(std::size_t width, std::uint64_t value = 0,
               Endian endian = Endian::Big) {
  NumberSpec spec;
  spec.width = width;
  spec.default_value = value;
  spec.endian = endian;
  return spec;
}

model::BlobSpec blob(std::size_t max_generated, std::uint32_t unit = 1) {
  model::BlobSpec spec;
  spec.max_generated = max_generated;
  spec.unit = unit;
  return spec;
}

model::StringSpec text(std::string value, std::optional<std::size_t> length,
                       bool null_terminated = false,
                       std::size_t max_generated = 32) {
  model::StringSpec spec;
  spec.default_value = std::move(value);
  spec.length = length;
  spec.null_terminated = null_terminated;
  spec.max_generated = max_generated;
  return spec;
}

Chunk with_relation(Chunk chunk, model::RelationKind kind, std::string target,
                    std::uint32_t unit = 1, std::int64_t bias = 0) {
  chunk.with_relation(model::Relation{kind, std::move(target), unit, bias});
  return chunk;
}

Chunk with_fixup(Chunk chunk, model::FixupKind kind, std::string ref) {
  chunk.with_fixup(model::Fixup{kind, std::move(ref)});
  return chunk;
}

Chunk tagged(Chunk chunk, std::string tag) {
  chunk.with_tag(std::move(tag));
  return chunk;
}

/// Hand-built models for the corners the pits do not reach: relations and
/// fixups whose target sits in an unchosen alternative, a fixup covering
/// itself, equal-depth fixups whose order decides the bytes, nested
/// choices, count-of with a bias, little-endian and string fields.
DataModelSet trap_models() {
  DataModelSet set;
  {
    // Len / Crc target AltBody, which only exists when AltA is picked.
    std::vector<Chunk> alts;
    alts.push_back(Chunk::block(
        "AltA", {Chunk::token("TokA", 1, Endian::Big, 0xA1),
                 tagged(Chunk::blob("AltBody", blob(12)),
                        "trap-body")}));
    alts.push_back(Chunk::block(
        "AltB", {Chunk::token("TokB", 1, Endian::Big, 0xB2),
                 tagged(Chunk::number("BVal", num(2, 0x1234)), "trap-val")}));
    std::vector<Chunk> fields;
    fields.push_back(with_relation(Chunk::number("Len", num(2)),
                                   model::RelationKind::SizeOf, "AltBody"));
    fields.push_back(Chunk::choice("Pick", std::move(alts)));
    fields.push_back(with_fixup(Chunk::number("Crc", num(2)),
                                model::FixupKind::Crc16Modbus, "AltBody"));
    set.add(DataModel("UnchosenTarget",
                      Chunk::block("ut.root", std::move(fields))));
  }
  {
    // Sum covers the whole packet, itself included.
    std::vector<Chunk> fields;
    fields.push_back(tagged(Chunk::number("Flag", num(1, 7)), "trap-flag"));
    fields.push_back(tagged(Chunk::number("Word", num(4, 0xDEADBEEF,
                                                      Endian::Little)),
                            "trap-word"));
    fields.push_back(with_fixup(Chunk::number("SelfSum", num(1, 0x55)),
                                model::FixupKind::Sum8, "self.root"));
    set.add(DataModel("SelfCovering", Chunk::block("self.root",
                                                   std::move(fields))));
  }
  {
    // A and B both reference depth-2 blocks; A (first in pre-order) reads
    // B's pre-fixup bytes. Inner (depth 3) is fixed before Outer (depth 2).
    std::vector<Chunk> fields;
    fields.push_back(with_fixup(Chunk::number("A", num(1)),
                                model::FixupKind::Sum8, "R1"));
    fields.push_back(Chunk::block(
        "R1", {tagged(Chunk::number("D1", num(2, 0x0102)), "trap-d"),
               with_fixup(Chunk::number("B", num(1, 0x33)),
                          model::FixupKind::Lrc8, "R2")}));
    fields.push_back(Chunk::block(
        "R2",
        {tagged(Chunk::number("D2", num(2, 0x0304)), "trap-d"),
         Chunk::block("Inner",
                      {tagged(Chunk::string("Name", text("ab", std::nullopt, true, 6)),
                              "trap-name"),
                       with_fixup(Chunk::number("InnerCrc", num(2)),
                                  model::FixupKind::CrcDnp3, "Name")})}));
    fields.push_back(with_fixup(Chunk::number("Outer", num(4)),
                                model::FixupKind::Crc32, "R2"));
    set.add(DataModel("FixupOrder", Chunk::block("fo.root",
                                                 std::move(fields))));
  }
  {
    // Nested choices, a count-of with bias over a unit-2 blob, and a
    // fixed-length string.
    std::vector<Chunk> inner;
    inner.push_back(tagged(Chunk::number("IA", num(1, 1)), "trap-ia"));
    inner.push_back(Chunk::block(
        "IB", {tagged(Chunk::string("Fixed", text("xy", 4)),
                      "trap-fixed"),
               tagged(Chunk::number("IBv", num(2, 9, Endian::Little)),
                      "trap-val")}));
    std::vector<Chunk> outer;
    outer.push_back(Chunk::choice("InnerPick", std::move(inner)));
    outer.push_back(Chunk::block(
        "Counted",
        {with_relation(Chunk::number("Count", num(1)),
                       model::RelationKind::CountOf, "Regs", 2, 1),
         tagged(Chunk::blob("Regs", blob(10, 2)),
                "trap-regs")}));
    std::vector<Chunk> fields;
    fields.push_back(Chunk::token("Head", 1, Endian::Big, 0x68));
    fields.push_back(Chunk::choice("OuterPick", std::move(outer)));
    set.add(DataModel("NestedChoice", Chunk::block("nc.root",
                                                   std::move(fields))));
  }
  return set;
}

/// Choices whose alternatives each hold a free leaf with donors, so a
/// post-crack batch pins leaves in several alternatives of one Choice (the
/// last such alternative is taken).
DataModelSet choice_trap_models() {
  DataModelSet set;
  std::vector<Chunk> alts;
  alts.push_back(Chunk::block(
      "PA", {Chunk::token("TokPA", 1, Endian::Big, 0x01),
             tagged(Chunk::number("PAv", num(2, 0x0A0A)), "pin-a")}));
  alts.push_back(Chunk::block(
      "PB", {Chunk::token("TokPB", 1, Endian::Big, 0x02),
             tagged(Chunk::number("PBv", num(1, 0x0B)), "pin-b")}));
  alts.push_back(Chunk::block(
      "PC", {Chunk::token("TokPC", 1, Endian::Big, 0x03),
             tagged(Chunk::string("PCs", text("pc", 3)), "pin-c")}));
  std::vector<Chunk> fields;
  fields.push_back(Chunk::token("Head", 1, Endian::Big, 0x7E));
  fields.push_back(Chunk::choice("PinPick", std::move(alts)));
  fields.push_back(tagged(Chunk::number("Tail", num(1, 0x55)), "pin-tail"));
  set.add(DataModel("PinnedChoice", Chunk::block("pc.root",
                                                 std::move(fields))));
  return set;
}

struct PitSource {
  const char* label;
  const char* project;  // registry project (session framing/templates)
  std::function<DataModelSet()> load;
};

DataModelSet xml_pit(const char* file) {
  const model::PitParseResult result =
      model::parse_pit_file(std::string(ICSFUZZ_PITS_DIR) + "/" + file);
  EXPECT_TRUE(result.ok()) << file << ": " << result.error;
  return result.models;
}

std::vector<PitSource> sources() {
  return {
      {"modbus", "libmodbus", pits::modbus_pit},
      {"iec104", "IEC104", pits::iec104_pit},
      {"cs101", "lib60870", pits::cs101_pit},
      {"iccp", "libiec_iccp_mod", pits::iccp_pit},
      {"dnp3", "opendnp3", pits::dnp3_pit},
      {"mms", "libiec61850", pits::mms_pit},
      {"modbus.xml", "libmodbus", [] { return xml_pit("modbus.xml"); }},
      {"iec104.xml", "IEC104", [] { return xml_pit("iec104.xml"); }},
      {"cs101.xml", "lib60870", [] { return xml_pit("cs101.xml"); }},
      {"iccp.xml", "libiec_iccp_mod", [] { return xml_pit("iccp.xml"); }},
      {"dnp3.xml", "opendnp3", [] { return xml_pit("dnp3.xml"); }},
      {"mms.xml", "libiec61850", [] { return xml_pit("mms.xml"); }},
      {"traps", "", trap_models},
      {"choice-traps", "", choice_trap_models},
  };
}

class Digest {
 public:
  void add(ByteSpan bytes) { value_ = mix64(value_ ^ content_hash(bytes)); }
  void add_count(std::uint64_t count) { value_ = mix64(value_ ^ count); }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0x601DE11ULL;
};

struct Digests {
  std::uint64_t instantiate = 0;
  std::uint64_t semantic = 0;
  std::uint64_t semantic_no_fixup = 0;
  std::uint64_t batch = 0;
  std::uint64_t defaults = 0;
  std::uint64_t session = 0;
  std::uint64_t session_mutate = 0;
};

/// The fixed cracked corpus: every model's default instance plus a few
/// inherent packets per model, cracked against the whole set.
fuzz::PuzzleCorpus cracked_corpus(const DataModelSet& set) {
  fuzz::PuzzleCorpus corpus;
  const fuzz::FileCracker cracker;
  const fuzz::ModelInstantiator instantiator;
  Rng rng(0xC0A1);
  Bytes packet;
  for (const DataModel& model : set.models()) {
    cracker.crack(set, model::default_instance(model).serialize(), corpus,
                  rng);
    for (int i = 0; i < 6; ++i) {
      instantiator.generate_into(model, rng, packet);
      cracker.crack(set, packet, corpus, rng);
    }
  }
  return corpus;
}

std::uint64_t semantic_digest(const DataModelSet& set,
                              const fuzz::PuzzleCorpus& corpus, bool fixup,
                              std::uint64_t seed) {
  fuzz::SemanticGenConfig config;
  config.apply_file_fixup = fixup;
  const fuzz::SemanticGenerator generator(config, {});
  Rng rng(seed);
  Digest digest;
  Bytes out;
  for (const DataModel& model : set.models()) {
    for (int i = 0; i < kOutputsPerModel; ++i) {
      generator.generate_into(model, corpus, rng, out);
      digest.add(out);
    }
  }
  return digest.value();
}

Digests compute(const PitSource& source, std::uint64_t seed) {
  const DataModelSet set = source.load();
  const auto invalid = set.validate();
  EXPECT_FALSE(invalid.has_value()) << source.label << ": " << *invalid;
  Digests d;
  Bytes out;
  {
    const fuzz::ModelInstantiator instantiator;
    Rng rng(seed);
    Digest digest;
    for (const DataModel& model : set.models()) {
      for (int i = 0; i < kOutputsPerModel; ++i) {
        instantiator.generate_into(model, rng, out);
        digest.add(out);
      }
    }
    d.instantiate = digest.value();
  }
  const fuzz::PuzzleCorpus corpus = cracked_corpus(set);
  d.semantic = semantic_digest(set, corpus, true, seed + 1);
  d.semantic_no_fixup = semantic_digest(set, corpus, false, seed + 2);
  {
    const fuzz::SemanticGenerator generator({}, {});
    Rng rng(seed + 3);
    Digest digest;
    for (const DataModel& model : set.models()) {
      for (int i = 0; i < kBatchesPerModel; ++i) {
        const std::vector<Bytes> batch =
            generator.generate_batch(model, corpus, rng);
        digest.add_count(batch.size());
        for (const Bytes& packet : batch) digest.add(packet);
      }
    }
    d.batch = digest.value();
  }
  {
    Digest digest;
    for (const DataModel& model : set.models()) {
      digest.add(model::default_instance(model).serialize());
    }
    d.defaults = digest.value();
  }
  {
    session::SequencerConfig config;
    config.enabled = true;
    config.project = source.project;
    config.framing = session::framing_for_project(source.project);
    const fuzz::ModelInstantiator instantiator;
    session::SessionSequencer sequencer(config, set, instantiator);
    Rng rng(seed + 4);
    Digest digest;
    for (int i = 0; i < kSessionStreams; ++i) {
      sequencer.generate_into(rng, out);
      digest.add(out);
    }
    d.session = digest.value();
  }
  {
    session::SequencerConfig config;
    config.enabled = true;
    config.project = source.project;
    config.framing = session::framing_for_project(source.project);
    const fuzz::ModelInstantiator instantiator;
    session::SessionSequencer sequencer(config, set, instantiator);
    Rng rng(seed + 5);
    Digest digest;
    Bytes stream;
    for (int i = 0; i < kSessionStreams; ++i) {
      // A fresh stream every fourth round; otherwise the previous output,
      // so mutations compound (drops, duplicates, torn tails).
      if (i % 4 == 0) sequencer.generate_into(rng, stream);
      sequencer.mutate_stream_into(ByteSpan(stream), rng, out);
      digest.add(out);
      stream.swap(out);
    }
    // One generated stream repeated 300 times: on a framed protocol that is
    // more messages than the framing layer's cap, so the split ends in a
    // raw residue tail.
    sequencer.generate_into(rng, stream);
    Bytes flood;
    for (int r = 0; r < 300; ++r) append(flood, ByteSpan(stream));
    for (int i = 0; i < 4; ++i) {
      sequencer.mutate_stream_into(ByteSpan(flood), rng, out);
      digest.add(out);
    }
    d.session_mutate = digest.value();
  }
  return d;
}

struct Golden {
  const char* label;
  Digests digests;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"modbus", {0x273277bedc9dad83ULL, 0xad5bc2133507827dULL, 0x475e397b33677de9ULL,
      0x29a56460b5b476ceULL, 0xf341fec34a809b35ULL, 0xdbe0e1d68169775bULL,
      0xba6e510ad080b495ULL}},
    {"iec104", {0x18137c2ca0c4427cULL, 0x620dc4518c09f3ccULL, 0xb62c927529c0b755ULL,
      0x48527966caa603dfULL, 0x4f60c98e519ea7b1ULL, 0x75ac2b35b1ad964aULL,
      0x8b42bd34bbc41ef7ULL}},
    {"cs101", {0x4f5a14bdb008f0c7ULL, 0x6f02d694b9f710b1ULL, 0xdff2188b52ae36d3ULL,
      0x1eca510492e42c26ULL, 0x8aa7e184ca2d2ba3ULL, 0x84dd8be5e5104b77ULL,
      0x7eb920e72d928fa0ULL}},
    {"iccp", {0x0032b3c5a804664bULL, 0x4436f2702d63a8f3ULL, 0x09e0a8073f228ea4ULL,
      0x395c8dcae71f0aeeULL, 0xf3dedc70a3e870bdULL, 0x5d26e176fcbfca5fULL,
      0x49b0750d0122d8e0ULL}},
    {"dnp3", {0x3159972ce8d79d2dULL, 0x0c57216d61994605ULL, 0x2de98f2bb536dcc5ULL,
      0xc9ecaf79b0e42ff4ULL, 0xc2fc49e542ecd989ULL, 0x373faebcbef973c8ULL,
      0x08c8ce8ede27bb1bULL}},
    {"mms", {0x425542780fca1f0aULL, 0xf798ac3d51d2a111ULL, 0x56caa9684fb90484ULL,
      0x78d074a6f5c90f54ULL, 0x1b7091882914c845ULL, 0x248eeae6c48d56b9ULL,
      0x46f5aaabd1ee452aULL}},
    {"modbus.xml", {0xbc4e5dbb3da525b4ULL, 0x82232f310e5f1cc7ULL, 0x9d76817e4ace9fb0ULL,
      0xc38d5135a16631f8ULL, 0x6b80958ff61449afULL, 0x45c046e639ed063fULL,
      0x0692373369338278ULL}},
    {"iec104.xml", {0xecc7c06bc5feeaaaULL, 0x10fbfa52c84f1695ULL, 0x6dfa458e16497b0cULL,
      0x5f9e4a336a28309fULL, 0xa0f261aebddf296aULL, 0x3a9224b60b5d44daULL,
      0x656915a8e055f78aULL}},
    {"cs101.xml", {0xc68f51292f01356bULL, 0xb0b0299b9c145363ULL, 0x9ff3a5f5c19c4ee4ULL,
      0x5d568fb212fe6884ULL, 0xf24fd593b50c991aULL, 0xad9a1febb6154234ULL,
      0x85140f6d6d6cdd6bULL}},
    {"iccp.xml", {0x35f9b5f00cff839aULL, 0x7c613300575afbefULL, 0x37e895d231b08e64ULL,
      0xf00e88a3460a6739ULL, 0x22612e348409e8b5ULL, 0x35f1d2cd6bc26893ULL,
      0x663f40a8e8261f4dULL}},
    {"dnp3.xml", {0x2f7d379eaa31029fULL, 0x567a28d77caaa48fULL, 0xe3f2d8b8f8d85bdbULL,
      0x19c359f25825e679ULL, 0x60ab7446edf7ed19ULL, 0x4ca09e053faa3d4cULL,
      0x8009f3a5a9646d4fULL}},
    {"mms.xml", {0x32be24ad8601d5d2ULL, 0x49de567b28a3b096ULL, 0x6d39a53962cd70f4ULL,
      0xb020ed765601a4eaULL, 0x0ac21a16a8b50581ULL, 0x9d608d7f3540565dULL,
      0x34e3f9988804c94cULL}},
    {"traps", {0x2eb7dd30b0528652ULL, 0x2ef08915fa014d15ULL, 0x4d7be0a5481dbb4cULL,
      0x7a439cd6d15109b1ULL, 0x82938cc61b4533ceULL, 0x2459f1beffc276f3ULL,
      0x727474f5f7f75ca9ULL}},
    {"choice-traps", {0x1408d1f0c63d39cdULL, 0x141b424a070c73f1ULL, 0xeb6424e2b8cb74c0ULL,
      0x6ce070f847a2652cULL, 0x9659c16ca17ea324ULL, 0xd70d6d54e7ee747fULL,
      0x4c7a40e219be9d27ULL}},
};
// clang-format on

TEST(GoldenGeneration, DigestsMatchPinnedValues) {
  const std::vector<PitSource> all = sources();
  std::string table;
  bool all_match = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Digests d = compute(all[i], 0x601D0000ULL + i);
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL,\n      0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL,\n      0x%016" PRIx64 "ULL}},\n",
                  all[i].label, d.instantiate, d.semantic,
                  d.semantic_no_fixup, d.batch, d.defaults, d.session,
                  d.session_mutate);
    table += line;
    const Golden* golden = nullptr;
    for (const Golden& g : kGolden) {
      if (std::string(g.label) == all[i].label) golden = &g;
    }
    if (golden == nullptr) {
      ADD_FAILURE() << "no pinned digests for " << all[i].label;
      all_match = false;
      continue;
    }
    const Digests& want = golden->digests;
    const bool match = d.instantiate == want.instantiate &&
                       d.semantic == want.semantic &&
                       d.semantic_no_fixup == want.semantic_no_fixup &&
                       d.batch == want.batch && d.defaults == want.defaults &&
                       d.session == want.session &&
                       d.session_mutate == want.session_mutate;
    EXPECT_EQ(d.instantiate, want.instantiate) << all[i].label << " instantiate";
    EXPECT_EQ(d.semantic, want.semantic) << all[i].label << " semantic";
    EXPECT_EQ(d.semantic_no_fixup, want.semantic_no_fixup)
        << all[i].label << " semantic without File Fixup";
    EXPECT_EQ(d.batch, want.batch) << all[i].label << " generate_batch";
    EXPECT_EQ(d.defaults, want.defaults) << all[i].label << " default_instance";
    EXPECT_EQ(d.session, want.session) << all[i].label << " session";
    EXPECT_EQ(d.session_mutate, want.session_mutate)
        << all[i].label << " session mutate_stream_into";
    all_match = all_match && match;
  }
  if (!all_match) std::printf("actual digests:\n%s", table.c_str());
}

}  // namespace
}  // namespace icsfuzz
