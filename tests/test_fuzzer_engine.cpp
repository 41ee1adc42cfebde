// Tests for the executor, crash database, stats series, campaign math and
// the Fuzzer engine's strategy behaviour.
#include <gtest/gtest.h>

#include "coverage/instrument.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "sanitizer/guard.hpp"

namespace icsfuzz::fuzz {
namespace {

/// A tiny deterministic target: block A always, block B when byte0 == 0x42,
/// fault when byte0 == 0x66, busy loop when byte0 == 0x77.
class ToyTarget final : public ProtocolTarget {
 public:
  [[nodiscard]] std::string_view name() const override { return "toy"; }
  void reset() override { ++resets_; }

  Bytes process(ByteSpan packet) override {
    ICSFUZZ_COV_BLOCK_ID(10);
    if (packet.empty()) return {};
    if (packet[0] == 0x42) {
      ICSFUZZ_COV_BLOCK_ID(20);
      return Bytes{0x01};
    }
    if (packet[0] == 0x66) {
      san::FaultSink::raise(san::FaultKind::Segv, san::site_id("toy-bug"),
                            "toy fault");
      return {};
    }
    if (packet[0] == 0x77) {
      for (int i = 0; i < 500000; ++i) ICSFUZZ_COV_BLOCK_ID(30);
      return {};
    }
    ICSFUZZ_COV_BLOCK_ID(40);
    return Bytes{0x00};
  }

  int resets_ = 0;
};

// ------------------------------------------------------------------ Executor

TEST(Executor, DetectsNewCoverageOnceThenNot) {
  ToyTarget target;
  Executor executor;
  const Bytes plain{0x00};
  EXPECT_TRUE(executor.run(target, plain).new_coverage);
  EXPECT_FALSE(executor.run(target, plain).new_coverage);
}

TEST(Executor, DistinctInputsDistinctPaths) {
  ToyTarget target;
  Executor executor;
  executor.run(target, Bytes{0x00});
  const ExecResult result = executor.run(target, Bytes{0x42});
  EXPECT_TRUE(result.new_coverage);
  EXPECT_TRUE(result.new_path);
  EXPECT_EQ(executor.path_count(), 2u);
}

TEST(Executor, CollectsFaults) {
  ToyTarget target;
  Executor executor;
  const ExecResult result = executor.run(target, Bytes{0x66});
  ASSERT_TRUE(result.crashed());
  EXPECT_EQ(result.faults[0].kind, san::FaultKind::Segv);
}

TEST(Executor, FlagsHangsViaEventBudget) {
  ToyTarget target;
  ExecutorConfig config;
  config.hang_event_budget = 1000;
  Executor executor(config);
  const ExecResult result = executor.run(target, Bytes{0x77});
  ASSERT_TRUE(result.crashed());
  EXPECT_EQ(result.faults[0].kind, san::FaultKind::Hang);
}

TEST(Executor, ResetsTargetBeforeEveryRun) {
  ToyTarget target;
  Executor executor;
  executor.run(target, Bytes{0x00});
  executor.run(target, Bytes{0x00});
  EXPECT_EQ(target.resets_, 2);
}

TEST(Executor, CampaignResetForgetsEverything) {
  ToyTarget target;
  Executor executor;
  executor.run(target, Bytes{0x42});
  executor.reset_campaign();
  EXPECT_EQ(executor.path_count(), 0u);
  EXPECT_EQ(executor.executions(), 0u);
  EXPECT_TRUE(executor.run(target, Bytes{0x42}).new_coverage);
}

TEST(Executor, ReturnsResponseBytes) {
  ToyTarget target;
  Executor executor;
  EXPECT_EQ(executor.run(target, Bytes{0x42}).response, Bytes{0x01});
}

// ------------------------------------------------------------------- CrashDb

TEST(CrashDb, DeduplicatesByKindAndSite) {
  CrashDb db;
  const san::FaultReport fault{san::FaultKind::Segv, 7, "x"};
  EXPECT_TRUE(db.record(fault, Bytes{1}, 10));
  EXPECT_FALSE(db.record(fault, Bytes{2}, 20));
  EXPECT_EQ(db.unique_count(), 1u);
  const auto records = db.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0]->hits, 2u);
  EXPECT_EQ(records[0]->reproducer, Bytes{1});  // first reproducer kept
  EXPECT_EQ(records[0]->first_execution, 10u);
}

TEST(CrashDb, DifferentSitesAreDistinct) {
  CrashDb db;
  db.record({san::FaultKind::Segv, 1, "a"}, {}, 1);
  db.record({san::FaultKind::Segv, 2, "b"}, {}, 2);
  db.record({san::FaultKind::HeapUseAfterFree, 1, "c"}, {}, 3);
  EXPECT_EQ(db.unique_count(), 3u);
}

TEST(CrashDb, HangsExcludedFromMemoryFaults) {
  CrashDb db;
  db.record({san::FaultKind::Hang, 1, "h"}, {}, 1);
  db.record({san::FaultKind::Segv, 2, "s"}, {}, 2);
  EXPECT_EQ(db.unique_count(), 2u);
  EXPECT_EQ(db.unique_memory_faults(), 1u);
}

TEST(CrashDb, ByKindTallies) {
  CrashDb db;
  db.record({san::FaultKind::Segv, 1, ""}, {}, 1);
  db.record({san::FaultKind::Segv, 2, ""}, {}, 2);
  db.record({san::FaultKind::HeapBufferOverflow, 3, ""}, {}, 3);
  const auto tally = db.by_kind();
  EXPECT_EQ(tally.at(san::FaultKind::Segv), 2u);
  EXPECT_EQ(tally.at(san::FaultKind::HeapBufferOverflow), 1u);
}

TEST(CrashDb, RecordsSortedByDiscovery) {
  CrashDb db;
  db.record({san::FaultKind::Segv, 9, ""}, {}, 500);
  db.record({san::FaultKind::Segv, 3, ""}, {}, 100);
  const auto records = db.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]->first_execution, 100u);
}

// --------------------------------------------------------------- StatsSeries

TEST(StatsSeries, TicksAtInterval) {
  StatsSeries series(10);
  for (std::uint64_t i = 1; i <= 35; ++i) series.tick(i, i, i, 0, 0);
  EXPECT_EQ(series.checkpoints().size(), 3u);  // 10, 20, 30
  series.finalize(35, 35, 35, 0, 0);
  EXPECT_EQ(series.checkpoints().size(), 4u);
  EXPECT_EQ(series.final_paths(), 35u);
}

TEST(StatsSeries, FinalizeIdempotentAtSameExecution) {
  StatsSeries series(10);
  series.finalize(10, 5, 5, 0, 0);
  series.finalize(10, 5, 5, 0, 0);
  EXPECT_EQ(series.checkpoints().size(), 1u);
}

TEST(StatsSeries, ExecutionsToReach) {
  StatsSeries series(10);
  series.tick(10, 3, 0, 0, 0);
  series.tick(20, 7, 0, 0, 0);
  series.tick(30, 9, 0, 0, 0);
  EXPECT_EQ(series.executions_to_reach(7), 20u);
  EXPECT_EQ(series.executions_to_reach(8), 30u);
  EXPECT_EQ(series.executions_to_reach(100), 0u);
}

TEST(StatsSeries, CsvShape) {
  StatsSeries series(5);
  series.tick(5, 1, 2, 3, 4);
  const std::string csv = series.to_csv();
  EXPECT_NE(csv.find("executions,paths,edges,unique_crashes,corpus"),
            std::string::npos);
  EXPECT_NE(csv.find("5,1,2,3,4"), std::string::npos);
}

TEST(AverageSeries, MeansAlignedCheckpoints) {
  std::vector<std::vector<Checkpoint>> reps = {
      {{100, 10, 0, 0, 0}, {200, 20, 0, 0, 0}},
      {{100, 30, 0, 0, 0}, {200, 40, 0, 0, 0}},
  };
  const auto mean = average_series(reps);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_EQ(mean[0].paths, 20u);
  EXPECT_EQ(mean[1].paths, 30u);
}

TEST(AverageSeries, UnevenLengthsUseAvailableContributors) {
  std::vector<std::vector<Checkpoint>> reps = {
      {{100, 10, 0, 0, 0}},
      {{100, 30, 0, 0, 0}, {200, 50, 0, 0, 0}},
  };
  const auto mean = average_series(reps);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_EQ(mean[1].paths, 50u);
}

// -------------------------------------------------------------------- Fuzzer

TEST(Fuzzer, BaselineNeverBuildsCorpus) {
  proto::ModbusServer server;
  const model::DataModelSet models = pits::modbus_pit();
  FuzzerConfig config;
  config.strategy = Strategy::Peach;
  config.rng_seed = 5;
  Fuzzer fuzzer(server, models, config);
  fuzzer.run(500);
  EXPECT_TRUE(fuzzer.corpus().empty());
  EXPECT_TRUE(fuzzer.retained_seeds().empty());
  EXPECT_GT(fuzzer.path_count(), 0u);
}

TEST(Fuzzer, PeachStarBuildsCorpusAndRetainsSeeds) {
  proto::ModbusServer server;
  const model::DataModelSet models = pits::modbus_pit();
  FuzzerConfig config;
  config.strategy = Strategy::PeachStar;
  config.rng_seed = 5;
  Fuzzer fuzzer(server, models, config);
  fuzzer.run(500);
  EXPECT_FALSE(fuzzer.corpus().empty());
  EXPECT_FALSE(fuzzer.retained_seeds().empty());
}

TEST(Fuzzer, DeterministicForSameSeed) {
  const model::DataModelSet models = pits::modbus_pit();
  auto run_once = [&models](std::uint64_t seed) {
    proto::ModbusServer server;
    FuzzerConfig config;
    config.rng_seed = seed;
    Fuzzer fuzzer(server, models, config);
    fuzzer.run(400);
    return std::make_pair(fuzzer.path_count(),
                          fuzzer.executor().edge_count());
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_NE(run_once(9), run_once(10));  // and seeds matter
}

TEST(Fuzzer, StatsSeriesTracksProgress) {
  proto::ModbusServer server;
  const model::DataModelSet models = pits::modbus_pit();
  FuzzerConfig config;
  config.stats_interval = 100;
  Fuzzer fuzzer(server, models, config);
  fuzzer.run(500);
  ASSERT_GE(fuzzer.stats().checkpoints().size(), 5u);
  const auto& points = fuzzer.stats().checkpoints();
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].paths, points[i - 1].paths);  // monotone
  }
}

TEST(Fuzzer, StepReturnsPerExecutionResult) {
  proto::ModbusServer server;
  const model::DataModelSet models = pits::modbus_pit();
  Fuzzer fuzzer(server, models, {});
  const ExecResult first = fuzzer.step_fast();
  EXPECT_EQ(fuzzer.executor().executions(), 1u);
  EXPECT_TRUE(first.new_path);  // very first execution is always new
}

TEST(Fuzzer, CallbackSeesEveryExecution) {
  proto::ModbusServer server;
  const model::DataModelSet models = pits::modbus_pit();
  Fuzzer fuzzer(server, models, {});
  int count = 0;
  fuzzer.run(50, [&count](const ExecResult&) { ++count; });
  EXPECT_EQ(count, 50);
}

// ------------------------------------------------------------------ Campaign

TEST(Campaign, RunsBothArmsWithRepetitions) {
  CampaignConfig config;
  config.iterations = 300;
  config.repetitions = 2;
  config.stats_interval = 50;
  const CampaignResult result = run_campaign(
      "libmodbus", [] { return std::make_unique<proto::ModbusServer>(); },
      pits::modbus_pit(), config);
  EXPECT_EQ(result.peach.repetition_series.size(), 2u);
  EXPECT_EQ(result.peach_star.repetition_series.size(), 2u);
  EXPECT_GT(result.peach.mean_final_paths, 0.0);
  EXPECT_GT(result.peach_star.mean_final_paths, 0.0);
  EXPECT_FALSE(result.peach.mean_series.empty());
}

TEST(Campaign, SeriesCsvHasBothColumns) {
  CampaignConfig config;
  config.iterations = 200;
  config.repetitions = 1;
  config.stats_interval = 50;
  const CampaignResult result = run_campaign(
      "libmodbus", [] { return std::make_unique<proto::ModbusServer>(); },
      pits::modbus_pit(), config);
  const std::string csv = series_csv(result);
  EXPECT_NE(csv.find("executions,peach_paths,peachstar_paths"),
            std::string::npos);
}

TEST(Campaign, SpeedupMathFromSyntheticSeries) {
  CampaignResult result;
  result.peach.mean_final_paths = 50.0;
  result.peach.mean_series = {{1000, 30, 0, 0, 0}, {2000, 50, 0, 0, 0}};
  result.peach_star.mean_series = {{1000, 55, 0, 0, 0}, {2000, 70, 0, 0, 0}};
  result.peach_star.mean_final_paths = 70.0;
  EXPECT_EQ(result.executions_to_match_baseline(), 1000u);
  EXPECT_DOUBLE_EQ(result.speedup(), 2.0);
  EXPECT_DOUBLE_EQ(result.path_increase_pct(), 40.0);
}

TEST(Campaign, SpeedupWhenNeverMatched) {
  CampaignResult result;
  result.peach.mean_final_paths = 100.0;
  result.peach.mean_series = {{2000, 100, 0, 0, 0}};
  result.peach_star.mean_series = {{2000, 80, 0, 0, 0}};
  result.peach_star.mean_final_paths = 80.0;
  EXPECT_EQ(result.executions_to_match_baseline(), 0u);
  EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
}

}  // namespace
}  // namespace icsfuzz::fuzz
