// Unit tests for src/coverage: the paper's instrumentation semantics
// (shared_mem[cur ^ prev]++, prev = cur >> 1), hit-count bucketing,
// virgin-map accumulation and path hashing.
#include <gtest/gtest.h>

#include "coverage/coverage_map.hpp"
#include "coverage/instrument.hpp"
#include "coverage/path_tracker.hpp"

namespace icsfuzz::cov {
namespace {

TEST(Instrument, HitsAreDroppedWhenUnarmed) {
  end_trace();  // ensure disarmed
  tls_event_count = 0;
  ICSFUZZ_COV_BLOCK_ID(42);
  EXPECT_EQ(tls_event_count, 1u);  // events still counted for hang budget
}

TEST(Instrument, PaperUpdateRule) {
  std::vector<std::uint8_t> map(kMapSize, 0);
  begin_trace(map.data());
  hit(100);
  // First hit: prev = 0, so cell (100 ^ 0) increments.
  EXPECT_EQ(map[100], 1);
  hit(200);
  // Second: prev = 100 >> 1 = 50, cell (200 ^ 50).
  EXPECT_EQ(map[200 ^ 50], 1);
  end_trace();
}

TEST(Instrument, EdgeDirectionalitity) {
  // A->B and B->A map to different cells (the xor/shift breaks symmetry).
  std::vector<std::uint8_t> ab(kMapSize, 0);
  begin_trace(ab.data());
  hit(100);
  hit(200);
  end_trace();
  std::vector<std::uint8_t> ba(kMapSize, 0);
  begin_trace(ba.data());
  hit(200);
  hit(100);
  end_trace();
  EXPECT_NE(ab, ba);
}

TEST(Instrument, SaturatesAt255) {
  std::vector<std::uint8_t> map(kMapSize, 0);
  begin_trace(map.data());
  for (int i = 0; i < 300; ++i) {
    tls_prev_location = 0;  // force the same cell every time
    hit(7);
  }
  end_trace();
  EXPECT_EQ(map[7], 255);
}

TEST(Instrument, BlockIdsAreMasked) {
  std::vector<std::uint8_t> map(kMapSize, 0);
  begin_trace(map.data());
  hit(0xFFFFFFFF);  // must not write out of bounds
  end_trace();
  SUCCEED();
}

// Expands on a single line, so its __LINE__ is the block's and its own
// __COUNTER__ is one below the one ICSFUZZ_COV_BLOCK() consumes.
#define HIT_BLOCK_EXPECTING(file, id)                                     \
  id = fnv1a(file, static_cast<std::uint32_t>(__LINE__ * 977u +          \
                                              (__COUNTER__ + 1)));        \
  ICSFUZZ_COV_BLOCK()

TEST(Instrument, BlockIdsHashTheRepoRelativeFileName) {
  // The build maps the checkout prefix away, so a block id does not
  // depend on the directory the sources were built in.
  EXPECT_STREQ(__FILE__, "tests/test_coverage.cpp");
  std::vector<std::uint8_t> map(kMapSize, 0);
  begin_trace(map.data());
  std::uint32_t id = 0;
  HIT_BLOCK_EXPECTING("tests/test_coverage.cpp", id);
  end_trace();
  EXPECT_EQ(map[id & (kMapSize - 1)], 1);
}

TEST(Instrument, Fnv1aDistinctForDifferentSeeds) {
  constexpr std::uint32_t a = fnv1a("file.cpp", 1);
  constexpr std::uint32_t b = fnv1a("file.cpp", 2);
  static_assert(a != b);
  EXPECT_NE(a, b);
}

TEST(ClassifyCount, AflBuckets) {
  EXPECT_EQ(classify_count(0), 0);
  EXPECT_EQ(classify_count(1), 1);
  EXPECT_EQ(classify_count(2), 2);
  EXPECT_EQ(classify_count(3), 4);
  EXPECT_EQ(classify_count(4), 8);
  EXPECT_EQ(classify_count(7), 8);
  EXPECT_EQ(classify_count(8), 16);
  EXPECT_EQ(classify_count(15), 16);
  EXPECT_EQ(classify_count(16), 32);
  EXPECT_EQ(classify_count(31), 32);
  EXPECT_EQ(classify_count(32), 64);
  EXPECT_EQ(classify_count(127), 64);
  EXPECT_EQ(classify_count(128), 128);
  EXPECT_EQ(classify_count(255), 128);
}

class CoverageMapTest : public ::testing::Test {
 protected:
  void run_blocks(std::initializer_list<std::uint32_t> blocks) {
    map_.begin_execution();
    for (std::uint32_t block : blocks) hit(block);
    map_.end_execution();
  }
  CoverageMap map_;
};

TEST_F(CoverageMapTest, FirstTraceIsNew) {
  run_blocks({1, 2, 3});
  EXPECT_TRUE(map_.has_new_bits());
  EXPECT_TRUE(map_.accumulate());
  EXPECT_GT(map_.edges_covered(), 0u);
}

TEST_F(CoverageMapTest, RepeatTraceIsNotNew) {
  run_blocks({1, 2, 3});
  map_.accumulate();
  run_blocks({1, 2, 3});
  EXPECT_FALSE(map_.has_new_bits());
  EXPECT_FALSE(map_.accumulate());
}

TEST_F(CoverageMapTest, NewBlockIsNew) {
  run_blocks({1, 2});
  map_.accumulate();
  run_blocks({1, 2, 99});
  EXPECT_TRUE(map_.has_new_bits());
}

TEST_F(CoverageMapTest, LoopCountBucketChangeIsNew) {
  run_blocks({5, 6});  // edge once
  map_.accumulate();
  // Same blocks but the 5->6 edge taken twice: different bucket.
  map_.begin_execution();
  hit(5);
  hit(6);
  tls_prev_location = 5 >> 1;
  hit(6);
  map_.end_execution();
  EXPECT_TRUE(map_.has_new_bits());
}

TEST_F(CoverageMapTest, TraceHashStableForIdenticalExecutions) {
  run_blocks({10, 20, 30});
  const std::uint64_t first = map_.trace_hash();
  run_blocks({10, 20, 30});
  EXPECT_EQ(map_.trace_hash(), first);
}

TEST_F(CoverageMapTest, TraceHashDiffersForDifferentTraces) {
  run_blocks({10, 20, 30});
  const std::uint64_t first = map_.trace_hash();
  run_blocks({10, 20, 31});
  EXPECT_NE(map_.trace_hash(), first);
}

TEST_F(CoverageMapTest, TraceHashSensitiveToHitCounts) {
  run_blocks({10, 20});
  const std::uint64_t once = map_.trace_hash();
  map_.begin_execution();
  hit(10);
  hit(20);
  tls_prev_location = 10 >> 1;
  hit(20);
  map_.end_execution();
  EXPECT_NE(map_.trace_hash(), once);
}

TEST_F(CoverageMapTest, EmptyTraceHashesToConstant) {
  run_blocks({});
  EXPECT_EQ(map_.trace_hash(), map_.trace_hash());
  EXPECT_EQ(map_.trace_edge_count(), 0u);
}

TEST_F(CoverageMapTest, ResetAccumulatedForgets) {
  run_blocks({1, 2, 3});
  map_.accumulate();
  map_.reset_accumulated();
  EXPECT_EQ(map_.edges_covered(), 0u);
  run_blocks({1, 2, 3});
  EXPECT_TRUE(map_.has_new_bits());
}

TEST_F(CoverageMapTest, EdgeCountMatchesDistinctEdges) {
  // Blocks 10, 20, 30 produce cells 10^0=10, 20^5=17, 30^10=20 — three
  // distinct edges (small ids like 1,2,3 would collide: 1^0 == 3^1).
  run_blocks({10, 20, 30});
  EXPECT_EQ(map_.trace_edge_count(), 3u);
}

TEST(PathTracker, CountsDistinctHashes) {
  PathTracker tracker;
  EXPECT_TRUE(tracker.record(1));
  EXPECT_TRUE(tracker.record(2));
  EXPECT_FALSE(tracker.record(1));
  EXPECT_EQ(tracker.path_count(), 2u);
  EXPECT_TRUE(tracker.contains(2));
  EXPECT_FALSE(tracker.contains(3));
  tracker.clear();
  EXPECT_EQ(tracker.path_count(), 0u);
}

}  // namespace
}  // namespace icsfuzz::cov
