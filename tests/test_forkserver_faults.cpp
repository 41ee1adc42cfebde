// Fault-injection coverage for the fork-server execution path.
//
// The shim binary honours ICSFUZZ_SHIM_* environment knobs that inject
// deterministic failures (exec_oop/shim_runner.hpp): a child SIGKILLed
// mid-execution, a target that never handshakes, a child hanging into the
// wall-clock deadline, the fork-server process itself dying, and an
// orderly server retirement — plus a server SIGKILLed while its
// persistent child waits for the next request. This suite drives each of them
// — plus an shm unlink race and a missing binary — across BOTH
// out-of-process backends (fork-per-exec and persistent) where the fault
// applies, and asserts the executor reports the right status while the
// campaign keeps running (a dying target must never take the fuzzer with
// it).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec_oop/fork_server.hpp"
#include "exec_oop/oop_executor.hpp"
#include "fuzzer/fuzzer.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "sanitizer/fault.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

using test::ScopedEnv;
using test::shim_cmd;

/// ExecutorConfig for the shim under the given out-of-process backend.
fuzz::ExecutorConfig oop_config(
    fuzz::BackendKind kind = fuzz::BackendKind::kForkPerExec) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.target_cmd = shim_cmd();
  return config;
}

/// Both out-of-process backend kinds (the faults below must be survivable
/// whichever transport serves the execution).
const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

bool has_fault_site(const fuzz::ExecResult& result, std::uint32_t site) {
  for (const san::FaultReport& fault : result.faults) {
    if (fault.site == site) return true;
  }
  return false;
}

const Bytes kPacket = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x01, 0x03, 0x00, 0x00, 0x00, 0x0A};

TEST(ForkServerFaults, ChildKilledMidExecutionReportsCrashAndRecovers) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "3");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    fuzz::Executor executor(oop_config(kind));
    fuzz::Executor reference;

    for (int i = 1; i <= 5; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      if (i == 3) {
        // The SIGKILLed child is a crash, attributed to the synthetic
        // child-terminated site, with whatever partial trace it left.
        EXPECT_TRUE(result.crashed()) << "execution " << i;
        EXPECT_TRUE(
            has_fault_site(result, san::site_id("oop-child-terminated")))
            << "execution " << i;
      } else {
        // Every surrounding execution is bit-identical to in-process: the
        // fork server survives its children.
        EXPECT_FALSE(result.crashed()) << "execution " << i;
        EXPECT_EQ(result.trace_hash, expected.trace_hash)
            << "execution " << i;
        EXPECT_EQ(result.events, expected.events) << "execution " << i;
        EXPECT_EQ(result.response, expected.response) << "execution " << i;
      }
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u)
        << "a child death must not force a server respawn";
    if (kind == fuzz::BackendKind::kPersistent) {
      // The crashed persistent child was recycled; a fresh one served the
      // following executions.
      EXPECT_GE(executor.oop_backend()->child_recycles(), 1u);
    }
  }
}

TEST(ForkServerFaults, TargetThatNeverHandshakesReportsServerLost) {
  ScopedEnv knob("ICSFUZZ_SHIM_NO_HANDSHAKE", "1");
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();

  fuzz::Executor executor(oop_config());

  // Every run fails fast (the shim exits instead of handshaking — no
  // timeout wait), reports the server-lost site, and leaves the executor
  // usable for the next attempt.
  for (int i = 0; i < 3; ++i) {
    const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
    EXPECT_TRUE(result.crashed()) << "execution " << i;
    EXPECT_TRUE(has_fault_site(result, san::site_id("oop-server-lost")))
        << "execution " << i;
    EXPECT_EQ(result.trace_edges, 0u) << "execution " << i;
    EXPECT_EQ(result.events, 0u) << "execution " << i;
  }
  ASSERT_NE(executor.oop_backend(), nullptr);
  EXPECT_FALSE(executor.oop_backend()->last_error().empty());
  EXPECT_FALSE(executor.oop_backend()->server_running());
}

TEST(ForkServerFaults, BareMagicHelloFailsTheHandshake) {
  // A server that writes only the old bare magic 0x49435346 (the bytes
  // "FSCI" on a little-endian host) and no capability word is not spoken
  // to: the handshake fails at once as a bad hello instead of waiting for
  // a capability word that never comes.
  oop::ForkServer server;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(server.start(
      {"/bin/sh", "-c", "printf FSCI > /proc/self/fd/199; exec sleep 30"}, {},
      10000));
  EXPECT_EQ(server.error(), "fork server sent a bad hello");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(server.running());
}

TEST(ForkServerFaults, MissingBinaryReportsServerLost) {
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  fuzz::ExecutorConfig config;
  config.backend.kind = fuzz::BackendKind::kForkPerExec;
  config.backend.target_cmd = {"/nonexistent/icsfuzz-shim-target"};
  fuzz::Executor executor(config);

  const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
  EXPECT_TRUE(result.crashed());
  EXPECT_TRUE(has_fault_site(result, san::site_id("oop-server-lost")));
  // A server that never came up is not a "restart": the counter separates
  // "server keeps dying" from "server never started".
  ASSERT_NE(executor.oop_backend(), nullptr);
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
}

TEST(ForkServerFaults, HangHitsTheDeadlineAndTheServerSurvives) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "2");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    fuzz::ExecutorConfig config = oop_config(kind);
    config.backend.exec_timeout_ms = 200;
    fuzz::Executor executor(config);
    fuzz::Executor reference;

    const auto start = std::chrono::steady_clock::now();
    for (int i = 1; i <= 4; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      if (i == 2) {
        ASSERT_TRUE(result.crashed()) << "execution " << i;
        EXPECT_EQ(result.faults[0].kind, san::FaultKind::Hang)
            << "execution " << i;
        EXPECT_TRUE(has_fault_site(result, san::site_id("oop-exec-deadline")))
            << "execution " << i;
      } else {
        // The hung child was SIGKILLed at the deadline; the server keeps
        // serving bit-identical executions.
        EXPECT_FALSE(result.crashed()) << "execution " << i;
        EXPECT_EQ(result.trace_hash, expected.trace_hash)
            << "execution " << i;
      }
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 30) << "the deadline must reap hangs promptly";
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
  }
}

TEST(ForkServerFaults, DisabledDeadlineStillExecutesNormally) {
  // backend.exec_timeout_ms <= 0 disables the wall-clock deadline end to
  // end (shim timer disarmed, client waits indefinitely); healthy
  // executions must flow exactly as with a deadline.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    fuzz::ExecutorConfig config = oop_config(kind);
    config.backend.exec_timeout_ms = 0;
    fuzz::Executor executor(config);
    fuzz::Executor reference;

    for (int i = 0; i < 3; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      EXPECT_FALSE(result.crashed()) << "execution " << i;
      EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
      EXPECT_EQ(result.response, expected.response) << "execution " << i;
    }
  }
}

TEST(ForkServerFaults, ShmUnlinkRaceDoesNotDisturbALiveServer) {
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const std::unique_ptr<ProtocolTarget> reference_target =
      proto::target_factory("libmodbus")();

  fuzz::Executor executor(oop_config());
  fuzz::Executor reference;

  const fuzz::ExecResult first = executor.run(*placeholder, kPacket);
  const fuzz::ExecResult expected_first =
      reference.run(*reference_target, kPacket);
  EXPECT_EQ(first.trace_hash, expected_first.trace_hash);

  // Rip the name out from under the running server (a hostile peer, an
  // overzealous cleaner). Both sides hold live mappings, so execution
  // continues bit-identically.
  ASSERT_NE(executor.oop_backend(), nullptr);
  const std::string name = executor.oop_backend()->segment().name();
  ASSERT_FALSE(name.empty());
  ASSERT_EQ(::shm_unlink(name.c_str()), 0);

  for (int i = 0; i < 3; ++i) {
    const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
    const fuzz::ExecResult expected =
        reference.run(*reference_target, kPacket);
    EXPECT_FALSE(result.crashed()) << "execution " << i;
    EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
    EXPECT_EQ(result.response, expected.response) << "execution " << i;
  }
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 0u);
}

TEST(ForkServerFaults, ServerCrashTriggersRespawnAndTheRunRetries) {
  // The server dies right before serving its 3rd execution. The executor
  // respawns it (fresh segment, fresh handshake) and retries the packet,
  // so the caller sees an unbroken stream of clean results. The respawned
  // server re-reads the knob, so it dies again at ITS 3rd execution: 5
  // packets = 2 respawns, every result clean.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_SERVER_EXIT_AT", "3");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    fuzz::Executor executor(oop_config(kind));
    fuzz::Executor reference;

    for (int i = 1; i <= 5; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      EXPECT_FALSE(result.crashed()) << "execution " << i;
      EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
      EXPECT_EQ(result.events, expected.events) << "execution " << i;
      EXPECT_EQ(result.response, expected.response) << "execution " << i;
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 2u);
    // A nonzero-exit server is a LOST server, never an orderly one.
    EXPECT_EQ(executor.oop_backend()->orderly_server_exits(), 0u);
  }
}

TEST(ForkServerFaults, ServerKilledWhilePersistentChildWaits) {
  // Between two persistent executions the child sits in a futex wait for
  // the next request, a wait the server never takes part in. SIGKILL the
  // server there: the next run must notice the loss, respawn and return
  // the in-process result, and nothing of the old server's process group
  // may survive — no orphaned child left parked in its wait.
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const std::unique_ptr<ProtocolTarget> reference_target =
      proto::target_factory("libmodbus")();
  fuzz::Executor executor(oop_config(fuzz::BackendKind::kPersistent));
  fuzz::Executor reference;

  const fuzz::ExecResult first = executor.run(*placeholder, kPacket);
  const fuzz::ExecResult expected_first =
      reference.run(*reference_target, kPacket);
  ASSERT_FALSE(first.crashed());
  ASSERT_EQ(first.trace_hash, expected_first.trace_hash);
  ASSERT_NE(executor.oop_backend(), nullptr);
  ASSERT_TRUE(executor.oop_backend()->persistent_active());

  // The server is this process's child; its own child is the parked
  // persistent child.
  const pid_t server = executor.oop_backend()->server().server_pid();
  const std::vector<pid_t> children = test::child_pids(::getpid());
  ASSERT_NE(std::find(children.begin(), children.end(), server),
            children.end());
  ASSERT_EQ(test::child_pids(server).size(), 1u);
  ASSERT_EQ(::kill(server, SIGKILL), 0);
  // Let the kill land: the server turns into a zombie (nobody has reaped
  // it yet), and its exit has already sent the child its death signal.
  const auto state_of = [](pid_t pid) {
    for (const test::ProcStat& row : test::proc_stats()) {
      if (row.pid == pid) return row.state;
    }
    return '?';
  };
  const auto kill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (state_of(server) != 'Z' &&
         std::chrono::steady_clock::now() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(state_of(server), 'Z');

  const fuzz::ExecResult second = executor.run(*placeholder, kPacket);
  const fuzz::ExecResult expected_second =
      reference.run(*reference_target, kPacket);
  EXPECT_FALSE(second.crashed());
  EXPECT_EQ(second.trace_hash, expected_second.trace_hash);
  EXPECT_EQ(second.events, expected_second.events);
  EXPECT_EQ(second.response, expected_second.response);
  EXPECT_EQ(executor.oop_backend()->server_restarts(), 1u);
  EXPECT_NE(executor.oop_backend()->server().server_pid(), server);

  // The server led its own process group. A SIGKILL takes a moment to
  // land; zombies are dead already, waiting for whoever reaps orphans.
  const auto survivors = [server] {
    std::vector<pid_t> alive;
    for (const test::ProcStat& row : test::proc_stats()) {
      if (row.pgrp == server && row.state != 'Z') alive.push_back(row.pid);
    }
    return alive;
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!survivors().empty() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(survivors().empty());
}

TEST(ForkServerFaults, OrderlyServerRetirementIsNotALostServer) {
  // The shim retires (exit 0) after every 3 served executions. The client
  // must classify the EOF + clean exit as kServerExited: respawn and retry
  // exactly as for a crash, but book it under oop_server_exits — the
  // oop_server_lost counter stays at zero (it used to overcount this).
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_SERVER_RETIRE_AFTER", "3");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const std::unique_ptr<ProtocolTarget> reference_target =
        proto::target_factory("libmodbus")();

    telem::Telemetry hub;
    fuzz::ExecutorConfig config = oop_config(kind);
    config.telemetry = telem::Sink(&hub, 0);
    fuzz::Executor executor(config);
    fuzz::Executor reference;

    // 8 packets across servers that retire every 3: two retirements hit
    // mid-stream, every result still clean and bit-identical.
    for (int i = 1; i <= 8; ++i) {
      const fuzz::ExecResult result = executor.run(*placeholder, kPacket);
      const fuzz::ExecResult expected =
          reference.run(*reference_target, kPacket);
      EXPECT_FALSE(result.crashed()) << "execution " << i;
      EXPECT_EQ(result.trace_hash, expected.trace_hash) << "execution " << i;
      EXPECT_EQ(result.response, expected.response) << "execution " << i;
    }
    ASSERT_NE(executor.oop_backend(), nullptr);
    EXPECT_EQ(executor.oop_backend()->orderly_server_exits(), 2u);
    EXPECT_EQ(executor.oop_backend()->server_restarts(), 2u);

    const telem::Snapshot snap = hub.snapshot();
    EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u)
        << "orderly retirement must not count as a lost server";
    EXPECT_EQ(snap.counter(telem::Counter::kOopServerExits), 2u);
    EXPECT_EQ(snap.counter(telem::Counter::kOopRestarts), 2u);
  }
}

TEST(ForkServerFaults, CampaignKeepsRunningThroughChildDeaths) {
  // A whole fuzzing campaign over a target whose children die
  // periodically: the fork server absorbs every death, the crash db
  // records the synthetic site, and coverage still accumulates.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    ScopedEnv knob("ICSFUZZ_SHIM_KILL_CHILD_AT", "7");
    const std::unique_ptr<ProtocolTarget> placeholder =
        proto::target_factory("libmodbus")();
    const model::DataModelSet models = pits::pit_for_project("libmodbus");

    fuzz::FuzzerConfig config;
    config.strategy = fuzz::Strategy::PeachStar;
    config.rng_seed = 7;
    config.executor = oop_config(kind);
    fuzz::Fuzzer fuzzer(*placeholder, models, config);
    fuzzer.run(60);

    EXPECT_EQ(fuzzer.executor().executions(), 60u);
    EXPECT_GT(fuzzer.path_count(), 1u);
    EXPECT_GT(fuzzer.executor().edge_count(), 0u);
    // The killed child surfaced in the crash accounting.
    bool saw_child_death = false;
    for (const fuzz::CrashRecord* record : fuzzer.crashes().records()) {
      saw_child_death |= record->site == san::site_id("oop-child-terminated");
    }
    EXPECT_TRUE(saw_child_death);
  }
}

}  // namespace
}  // namespace icsfuzz
