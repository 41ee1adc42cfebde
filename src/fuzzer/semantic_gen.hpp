// Semantic-aware generation — Algorithm 3 of the paper, plus the File
// Fixup pass (§IV-D).
//
// Two modes:
//   * `generate` — steady-state single seed: walk the model; at every chunk
//     whose construction rule has donors in the puzzle corpus, splice a
//     donor (exact tier first, similar tier as fallback) with probability
//     `donor_use_pct`, otherwise fall back to the inherent mutator
//     generation; recurse into composites so donated leaves can mix with
//     fresh siblings.
//   * `generate_batch` — the paper's combinatorial construction applied
//     right after a crack: enumerate donor candidates position by position
//     (the p x q product of Algorithm 3), bounded by `max_batch`.
//
// Both modes walk the model's compiled plan into a reusable model::Instance
// and finish with the File Fixup pass, so spliced seeds regain their
// size-of/count-of/CRC integrity.
#pragma once

#include <span>

#include "fuzzer/corpus.hpp"
#include "model/data_model.hpp"
#include "model/instantiation.hpp"
#include "mutation/mutator.hpp"

namespace icsfuzz::fuzz {

struct SemanticGenConfig {
  /// Probability (percent) of using an available donor at a chunk position
  /// in a donor-heavy seed. Each generated seed rolls one of three donor
  /// intensities — heavy (this value), medium (half), light (explore_pct) —
  /// so the stream mixes gate-passing exploitation with value exploration.
  unsigned donor_use_pct = 80;
  /// Donor probability of the exploration-leaning intensity.
  unsigned explore_pct = 15;
  /// Probability (percent) of applying a byte-level mutation to donated
  /// bytes — the paper's "mutation on existing chunks" (§II) applied to
  /// corpus material.
  unsigned mutate_donor_pct = 20;
  /// Probability (percent) that the similar-shape tier is consulted when
  /// the exact tier has no candidates.
  unsigned similar_tier_pct = 30;
  /// Upper bound on seeds produced by one generate_batch call.
  std::size_t max_batch = 24;
  /// Upper bound on donor candidates enumerated per position in batch mode.
  std::size_t candidates_per_position = 4;
  /// Run the File Fixup pass on spliced seeds. Disabling this is the
  /// paper-motivating ablation: donated pieces break size/CRC integrity and
  /// die in framing validation.
  bool apply_file_fixup = true;
};

class SemanticGenerator {
 public:
  SemanticGenerator(SemanticGenConfig config, mutation::MutatorConfig mutators)
      : config_(config), mutators_(mutators) {}

  /// Steady-state semantic-aware generation of one seed.
  Bytes generate(const model::DataModel& model, const PuzzleCorpus& corpus,
                 Rng& rng) const;

  /// Buffer-reusing variant of generate(): serializes into `out` (cleared
  /// first, capacity retained). Identical RNG draws.
  void generate_into(const model::DataModel& model, const PuzzleCorpus& corpus,
                     Rng& rng, Bytes& out) const;

  /// Post-crack combinatorial batch (Algorithm 3's cartesian construction).
  std::vector<Bytes> generate_batch(const model::DataModel& model,
                                    const PuzzleCorpus& corpus,
                                    Rng& rng) const;

  [[nodiscard]] const SemanticGenConfig& config() const { return config_; }

 private:
  /// A batch position's leaf pinned to one donor.
  struct Pin {
    std::uint32_t node = 0;
    const Bytes* bytes = nullptr;
  };

  /// Donor candidates for free leaf `leaf`: the exact tier, else (with
  /// probability similar_tier_pct) the similar tier; null when none.
  const std::vector<Bytes>* donors(const model::PlanNode& leaf,
                                   const PuzzleCorpus& corpus, Rng& rng) const;

  /// Generates plan node `node`'s subtree, splicing a donor at each free
  /// leaf with probability `donor_pct`.
  void emit_with_donors(std::uint32_t node, const PuzzleCorpus& corpus,
                        Rng& rng, unsigned donor_pct) const;

  /// Generates `node`'s subtree honouring `pins`; unpinned leaves are
  /// donor-aware, and a Choice prefers an alternative holding a pin.
  void emit_pinned(std::uint32_t node, const PuzzleCorpus& corpus, Rng& rng,
                   std::span<const Pin> pins) const;

  /// Rolls this seed's donor intensity (heavy / medium / light).
  unsigned roll_donor_intensity(Rng& rng) const;

  SemanticGenConfig config_;
  mutation::MutatorSuite mutators_;
  /// Generation arena, reused by every call (one generator per thread).
  mutable model::Instance instance_;
};

}  // namespace icsfuzz::fuzz
