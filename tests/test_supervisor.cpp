// CampaignSupervisor + resilience-layer coverage (src/supervise/): the
// worker watchdog unwedging a hung fork server, graceful stop/resume
// through the checkpoint, the resource jail's kOom classification, the
// retry policy's crash-loop breaker, and shm hygiene after a SIGKILLed
// campaign (sweep_orphans / unlink_all_registered).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec_oop/oop_executor.hpp"
#include "exec_oop/shm_segment.hpp"
#include "fuzzer/fuzzer.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "protocols/target_registry.hpp"
#include "sanitizer/fault.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

namespace fs = std::filesystem;

using test::ScopedEnv;
using test::shim_cmd;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem) {
    path_ = fs::temp_directory_path() /
            (stem + "-" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

bool has_fault_site(const fuzz::ExecResult& result, std::uint32_t site) {
  for (const san::FaultReport& fault : result.faults) {
    if (fault.site == site) return true;
  }
  return false;
}

const Bytes kPacket = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x01, 0x03, 0x00, 0x00, 0x00, 0x0A};

const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

fuzz::FuzzerConfig small_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 200;
  return config;
}

fuzz::TargetFactory modbus_factory() {
  return [] { return std::make_unique<proto::ModbusServer>(); };
}

// --------------------------------------------------------- crash-loop breaker

TEST(RetryPolicy, CrashLoopBudgetFailsFastInsteadOfRespawningForever) {
  // The server handshakes, then dies before serving its first execution —
  // every respawn is doomed. With a finite budget the executor must stop
  // forking it and fail fast.
  ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "1");
  oop::OopExecutorConfig config;
  config.target_cmd = shim_cmd();
  config.retry.max_respawns = 2;
  oop::OutOfProcessExecutor executor(config);

  for (int i = 0; i < 4; ++i) {
    const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kPacket);
    EXPECT_EQ(outcome.status, oop::ExecStatus::kServerLost) << "run " << i;
  }
  EXPECT_EQ(executor.server_restarts(), 2u)
      << "respawns must stop at the configured budget";
  EXPECT_NE(executor.last_error().find("crash-loop"), std::string::npos)
      << "last_error: " << executor.last_error();
  EXPECT_FALSE(executor.server_running());
}

TEST(RetryPolicy, DefaultsKeepUnlimitedRespawns) {
  const oop::RetryPolicy defaults;
  EXPECT_EQ(defaults.max_retries, 1);
  EXPECT_LT(defaults.max_respawns, 0);  // negative = unlimited (historical)
  EXPECT_EQ(defaults.backoff_initial_ms, 0u);
}

// ------------------------------------------------------------- resource jail

TEST(ResourceJail, AllocationFailureClassifiedAsOomNotCrash) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_OOM_AT", "2");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();

    telem::Telemetry hub;
    fuzz::ExecutorConfig config;
    config.backend.kind = kind;
    config.backend.target_cmd = shim_cmd();
    config.backend.jail.address_space_mb = 512;
    config.telemetry = telem::Sink(&hub, 0);
    fuzz::Executor executor(config);

    for (int i = 1; i <= 3; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      if (i == 2) {
        // The jailed child exhausted RLIMIT_AS: a distinct OOM bucket, not
        // a memory-safety crash site.
        EXPECT_TRUE(result.crashed()) << "execution " << i;
        EXPECT_TRUE(has_fault_site(result, san::site_id("oop-child-oom")))
            << "execution " << i;
      } else {
        EXPECT_FALSE(result.crashed()) << "execution " << i;
      }
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->oom_kills(), 1u);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u)
        << "an OOM'd child must not cost a server respawn";
    EXPECT_EQ(hub.snapshot().counter(telem::Counter::kOopOomKills), 1u);
  }
}

// ----------------------------------------------------------------- watchdog

TEST(Supervisor, WatchdogUnwedgesHungForkServer) {
  // The shim's 5th execution hangs forever and the wall-clock deadline is
  // disabled — exactly the wedge only the supervisor's out-of-band
  // watchdog can break. Killing the server unblocks the worker through
  // the server-lost respawn path and the campaign still completes.
  ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "5");
  const model::DataModelSet models = pits::modbus_pit();
  telem::Telemetry hub;

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 12;
  config.campaign.base_seed = 5;
  config.campaign.sync_interval = 0;
  config.campaign.fuzzer = small_config(0);
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.campaign.fuzzer.executor.backend.kind =
      fuzz::BackendKind::kForkPerExec;
  config.campaign.fuzzer.executor.backend.target_cmd = shim_cmd();
  config.campaign.fuzzer.executor.backend.exec_timeout_ms = 0;  // no deadline
  config.checkpoint_interval = 0;  // single chunk
  config.wedge_timeout_ms = 250;
  config.watchdog_poll_ms = 50;
  config.max_watchdog_kicks = 8;

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 12u);
  EXPECT_GE(result.watchdog_kicks, 1u);
  ASSERT_EQ(result.campaign.workers.size(), 1u);
  EXPECT_EQ(result.campaign.workers[0].executions, 12u);
  EXPECT_GE(hub.snapshot().counter(telem::Counter::kWatchdogKicks), 1u);
}

// ------------------------------------------------------- supervised campaigns

TEST(Supervisor, MultiWorkerCampaignCompletesWithPeriodicCheckpoints) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-w2");

  supervise::SupervisorConfig config;
  config.campaign.workers = 2;
  config.campaign.iterations_per_worker = 600;
  config.campaign.base_seed = 11;
  config.campaign.sync_interval = 200;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_path = (dir.path() / "campaign.ckpt").string();
  config.checkpoint_interval = 250;  // chunks of 250/250/100

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult result = supervisor.run();

  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.completed_iterations, 600u);
  EXPECT_EQ(result.checkpoints_saved, 3u);
  EXPECT_EQ(result.watchdog_kicks, 0u);
  ASSERT_EQ(result.campaign.workers.size(), 2u);
  EXPECT_EQ(result.campaign.total_executions, 1200u);
  for (const par::WorkerReport& report : result.campaign.workers) {
    EXPECT_EQ(report.executions, 600u);
    EXPECT_GT(report.paths, 0u);
  }
  // Deduplicated global coverage bounded by the per-worker tallies.
  std::size_t max_paths = 0;
  std::size_t sum_paths = 0;
  for (const par::WorkerReport& report : result.campaign.workers) {
    max_paths = std::max(max_paths, report.paths);
    sum_paths += report.paths;
  }
  EXPECT_GE(result.campaign.global_paths, max_paths);
  EXPECT_LE(result.campaign.global_paths, sum_paths);
  EXPECT_TRUE(fs::exists(config.checkpoint_path));
}

TEST(Supervisor, ChunkCompletionWakesTheWatchdogBeforeItsPoll) {
  // Four chunks under a one-minute poll: a supervisor that only noticed a
  // finished chunk at its next poll would need four minutes. The chunk's
  // last worker wakes it instead, so the whole campaign takes a small
  // fraction of one poll (the bound is loose so a loaded runner cannot
  // flake it).
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-wake");

  supervise::SupervisorConfig config;
  config.campaign.workers = 2;
  config.campaign.iterations_per_worker = 400;
  config.campaign.base_seed = 13;
  config.campaign.sync_interval = 100;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_path = (dir.path() / "campaign.ckpt").string();
  config.checkpoint_interval = 100;  // four chunks
  config.watchdog_poll_ms = 60000;

  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const auto start = std::chrono::steady_clock::now();
  const supervise::SupervisorResult result = supervisor.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed_iterations, 400u);
  EXPECT_EQ(result.checkpoints_saved, 4u);
  EXPECT_EQ(result.watchdog_kicks, 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(Supervisor, GracefulStopCheckpointsAndResumeFinishesBitForBit) {
  const model::DataModelSet models = pits::modbus_pit();
  const ScopedTempDir dir("icsfuzz-supervisor-stop");
  const std::string checkpoint_path = (dir.path() / "campaign.ckpt").string();
  supervise::CampaignSupervisor::clear_stop();

  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = 20000;
  config.campaign.base_seed = 321;
  config.campaign.sync_interval = 512;
  config.campaign.fuzzer = small_config(0);
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_interval = 128;

  // The stand-in for Ctrl-C: request the stop (from another thread, as a
  // signal handler effectively does) once the first checkpoint landed.
  std::thread interrupter([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!fs::exists(checkpoint_path) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    supervise::CampaignSupervisor::request_stop();
  });
  supervise::CampaignSupervisor supervisor(modbus_factory(), models, config);
  const supervise::SupervisorResult stopped = supervisor.run();
  interrupter.join();

  ASSERT_TRUE(stopped.interrupted);
  EXPECT_GT(stopped.completed_iterations, 0u);
  EXPECT_LT(stopped.completed_iterations, 20000u);
  EXPECT_EQ(stopped.completed_iterations % 128, 0u)
      << "stop lands on a chunk boundary";
  EXPECT_GE(stopped.checkpoints_saved, 1u);
  // Partial tallies reflect the work actually done.
  ASSERT_EQ(stopped.campaign.workers.size(), 1u);
  EXPECT_EQ(stopped.campaign.workers[0].executions,
            stopped.completed_iterations);

  // Resume to completion and demand equality with a never-stopped run.
  supervise::CampaignSupervisor::clear_stop();
  supervise::CampaignSupervisor resumer(modbus_factory(), models, config);
  const supervise::SupervisorResult resumed = resumer.run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_iterations, 20000u);

  par::ParallelCampaign reference_campaign(modbus_factory(), models,
                                           config.campaign);
  const par::ParallelCampaignResult reference = reference_campaign.run();
  const par::WorkerReport& actual = resumed.campaign.workers[0];
  const par::WorkerReport& expected = reference.workers[0];
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.paths, expected.paths);
  EXPECT_EQ(actual.edges, expected.edges);
  EXPECT_EQ(actual.unique_crashes, expected.unique_crashes);
  EXPECT_EQ(actual.corpus_size, expected.corpus_size);
  EXPECT_EQ(actual.retained_seeds, expected.retained_seeds);
  EXPECT_EQ(resumed.campaign.pooled_crashes.unique_count(),
            reference.pooled_crashes.unique_count());
}

// -------------------------------------------------------------- shm hygiene

TEST(ShmHygiene, SweepOrphansReclaimsSegmentsOfKilledProcess) {
  // Probe: the named shm namespace may be unavailable (sandboxed CI).
  {
    oop::ShmSegment probe = oop::ShmSegment::create(4096);
    if (!probe.named()) GTEST_SKIP() << "POSIX shm namespace unavailable";
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    // Leak two live segments on purpose, then wait to be SIGKILLed — the
    // destructor-based unlink never runs, exactly like a killed campaign.
    std::vector<oop::ShmSegment> leaked;
    leaked.push_back(oop::ShmSegment::create(1 << 16));
    leaked.push_back(oop::ShmSegment::create(1 << 16));
    const char ready = leaked[0].named() && leaked[1].named() ? 'R' : 'F';
    (void)!::write(fds[1], &ready, 1);
    for (;;) ::pause();
  }
  ::close(fds[1]);
  char ready = 0;
  ASSERT_EQ(::read(fds[0], &ready, 1), 1);
  ::close(fds[0]);
  ASSERT_EQ(ready, 'R');

  const std::string prefix = "icsfuzz-" + std::to_string(child) + "-";
  std::size_t before = 0;
  for (const auto& entry : fs::directory_iterator("/dev/shm")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++before;
  }
  ASSERT_EQ(before, 2u) << "child segments must be visible pre-kill";

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  EXPECT_GE(oop::sweep_orphans(), 2u);
  std::size_t after = 0;
  for (const auto& entry : fs::directory_iterator("/dev/shm")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++after;
  }
  EXPECT_EQ(after, 0u) << "no residue of the killed process may remain";
}

TEST(ShmHygiene, UnlinkAllRegisteredKeepsLiveMappingsUsable) {
  oop::ShmSegment segment = oop::ShmSegment::create(4096);
  if (!segment.named()) GTEST_SKIP() << "POSIX shm namespace unavailable";
  const std::string entry_name = segment.name().substr(1);  // drop '/'
  ASSERT_TRUE(fs::exists(fs::path("/dev/shm") / entry_name));

  EXPECT_GE(oop::unlink_all_registered(), 1u);
  EXPECT_FALSE(fs::exists(fs::path("/dev/shm") / entry_name));
  EXPECT_EQ(oop::unlink_all_registered(), 0u);  // registry drained

  // POSIX unlink-vs-mapping semantics: the pages stay fully usable.
  segment.data()[0] = 0x42;
  segment.data()[4095] = 0x24;
  EXPECT_EQ(segment.data()[0], 0x42);
  EXPECT_EQ(segment.data()[4095], 0x24);
}

}  // namespace
}  // namespace icsfuzz
