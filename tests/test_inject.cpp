// Injection-runtime suite: a foreign binary (demo/, a separate CMake
// project that never links icsfuzz) becomes a coverage-guided fork-server
// target purely via LD_PRELOAD of libicsfuzz-preload.so.
//
// Three rows of the degrade matrix are pinned here:
//
//   * instrumented demo (sancov flags + no-op stubs): edges visibly
//     accumulate in the CoverageMap, the inject-info block advertises
//     sancov, persistent mode engages through the cooperation hooks,
//   * plain demo (no sancov): runs fault-driven — zero events, empty map,
//     but crash/hang/OOM classification still exact,
//   * fault differential: the classification of the demo's deliberate
//     fault endpoints is bit-for-bit the shim's at the ExecResult level
//     (same FaultKind, same site, same detail string), under fork-per-exec
//     and under persistent mode alike — the shim's
//     ICSFUZZ_SHIM_SEGV_AT knob exists precisely so its crash arm dies on
//     the same signal 11 the demo's null write does.
//
// The demo binaries default to the paths the ExternalProject build wrote;
// the CI injection lane re-points them at a standalone out-of-tree build
// via ICSFUZZ_DEMO_SERVER / ICSFUZZ_DEMO_SERVER_PLAIN env vars.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "exec_oop/fork_server.hpp"
#include "exec_oop/oop_executor.hpp"
#include "exec_oop/shm_segment.hpp"
#include "fuzzer/executor.hpp"
#include "inject/inject_protocol.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "tests/test_support.hpp"

namespace icsfuzz {
namespace {

using test::ScopedEnv;
using test::shim_cmd;

std::string preload_path() {
  if (const char* env = std::getenv("ICSFUZZ_PRELOAD")) return env;
  return ICSFUZZ_PRELOAD_PATH;
}

std::vector<std::string> demo_cmd() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER")) return {env};
  return {ICSFUZZ_DEMO_SERVER_PATH};
}

std::vector<std::string> demo_plain_cmd() {
  if (const char* env = std::getenv("ICSFUZZ_DEMO_SERVER_PLAIN")) {
    return {env};
  }
  return {ICSFUZZ_DEMO_SERVER_PLAIN_PATH};
}

/// Generous deadline for the non-hang paths (loaded CI runners must not
/// turn a healthy execution into a spurious hang).
constexpr int kGenerousTimeoutMs = 30000;
/// Tight deadline for the hang differential — both arms use the same value
/// so the synthetic Hang fault's detail string matches bit for bit.
constexpr int kHangTimeoutMs = 1000;

oop::OopExecutorConfig injected_config(std::vector<std::string> cmd,
                                       std::uint32_t budget = 0) {
  oop::OopExecutorConfig config;
  config.target_cmd = std::move(cmd);
  config.preload = preload_path();
  config.exec_timeout_ms = kGenerousTimeoutMs;
  config.persistent_budget = budget;
  return config;
}

/// Benign MBAP read-holding-registers exchange (FC 0x03, 3 registers).
const Bytes kBenign = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                       0x11, 0x03, 0x00, 0x6B, 0x00, 0x03};
/// A second benign frame taking different branches (FC 0x01, coils).
const Bytes kBenignCoils = {0x00, 0x02, 0x00, 0x00, 0x00, 0x06,
                            0x11, 0x01, 0x00, 0x10, 0x00, 0x08};

/// Minimal frame carrying one of the demo's deliberate fault endpoints.
Bytes fault_frame(std::uint8_t fc) {
  return {0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x11, fc};
}
constexpr std::uint8_t kFaultCrash = 0x66;
constexpr std::uint8_t kFaultHang = 0x67;
constexpr std::uint8_t kFaultOom = 0x68;

std::size_t nonzero_cells(const std::uint64_t* words) {
  std::size_t cells = 0;
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      cells += (word & 0xFF) != 0;
      word >>= 8;
    }
  }
  return cells;
}

// -- Instrumented demo: sancov edges flow into the map. -------------------

TEST(Inject, SancovEdgesAccumulateInCoverageMap) {
  oop::OutOfProcessExecutor executor(injected_config(demo_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();

  const oop::OutOfProcessExecutor::Outcome& first = executor.run(kBenign);
  ASSERT_EQ(first.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_GT(first.aux.events, 0u)
      << "sancov hits must be counted as instrumentation events";
  EXPECT_FALSE(first.aux.response.empty())
      << "the demo answers FC 0x03 with a register payload";
  EXPECT_GT(nonzero_cells(executor.map_words()), 0u);

  // Adopt into a campaign map: the foreign binary's edges feed the same
  // feedback loop the in-tree targets do, and a branch-different packet
  // surfaces additional edges.
  cov::CoverageMap map;
  map.adopt_external(executor.map_words());
  const cov::TraceSummary a = map.finalize_execution();
  EXPECT_GT(a.trace_edges, 0u);
  EXPECT_TRUE(a.new_coverage);

  const oop::OutOfProcessExecutor::Outcome& second =
      executor.run(kBenignCoils);
  ASSERT_EQ(second.status, oop::ExecStatus::kOk);
  map.adopt_external(executor.map_words());
  const cov::TraceSummary b = map.finalize_execution();
  EXPECT_TRUE(b.new_coverage)
      << "a different function code must reach edges FC 0x03 never did";
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Inject, InjectInfoBlockAdvertisesSancov) {
  oop::OutOfProcessExecutor executor(injected_config(demo_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  (void)executor.run(kBenign);

  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());
  ASSERT_TRUE(info.present) << "runtime must publish the info block";
  EXPECT_EQ(info.version, inject::kInjectRuntimeVersion);
  EXPECT_TRUE(info.sancov());
}

TEST(Inject, PersistentModeEngagesThroughCooperationHooks) {
  oop::OutOfProcessExecutor executor(
      injected_config(demo_cmd(), /*budget=*/8));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  ASSERT_TRUE(executor.persistent_active())
      << "the instrumented demo exports the persistent marker";

  std::uint64_t steady_events = 0;
  for (int i = 0; i < 6; ++i) {
    const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kBenign);
    ASSERT_EQ(outcome.status, oop::ExecStatus::kOk)
        << "iteration " << i << ": " << executor.last_error();
    EXPECT_TRUE(outcome.persistent) << "iteration " << i;
    EXPECT_GT(outcome.aux.events, 0u) << "iteration " << i;
    // Same packet, same child: from the second iteration on the event
    // count is steady (iteration 1 additionally walks one-time paths —
    // first-call branches, allocator growth — that never re-run inside
    // the persistent child).
    if (i == 1) {
      steady_events = outcome.aux.events;
    } else if (i > 1) {
      EXPECT_EQ(outcome.aux.events, steady_events) << "iteration " << i;
    }
  }
}

TEST(Inject, PersistentOptOutDegradesToForkPerExec) {
  ScopedEnv knob("ICSFUZZ_INJECT_PERSISTENT", "0");
  oop::OutOfProcessExecutor executor(
      injected_config(demo_cmd(), /*budget=*/8));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();
  EXPECT_FALSE(executor.persistent_active());

  const oop::OutOfProcessExecutor::Outcome& outcome = executor.run(kBenign);
  ASSERT_EQ(outcome.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_FALSE(outcome.persistent);
  EXPECT_GT(outcome.aux.events, 0u);
}

TEST(Inject, PersistentRequestWithoutCapabilityIsRefused) {
  // The client never sends a persistent request to a server whose hello
  // did not offer the capability; a server that receives one refuses it
  // (exit 5, like an oversized request) instead of emulating it.
  ScopedEnv knob("ICSFUZZ_INJECT_PERSISTENT", "0");
  oop::ShmSegment segment = oop::ShmSegment::create(oop::kSegmentBytesV2);
  ASSERT_TRUE(segment.named()) << segment.error();
  std::vector<std::string> env = {
      std::string(oop::kShmNameEnv) + "=" + segment.name(),
      std::string(oop::kShmSizeEnv) + "=" + std::to_string(segment.size())};
  inject::append_preload_env(preload_path(), inject::kInjectModeFork, env);

  oop::ForkServer server;
  ASSERT_TRUE(
      server.start(demo_cmd(), env, kGenerousTimeoutMs, segment.data()))
      << server.error();
  EXPECT_FALSE(server.persistent_capable());
  ASSERT_TRUE(
      oop::slot_store_packet(segment.data(), server.next_slot(), kBenign));
  const oop::ForkServer::RunOutcome outcome =
      server.run_persistent(8, kGenerousTimeoutMs);
  EXPECT_EQ(outcome.kind, oop::ForkServer::RunOutcome::Kind::kServerLost);
}

// -- Plain demo: no instrumentation, fault-driven only. -------------------

TEST(Inject, UninstrumentedBinaryRunsFaultDriven) {
  oop::OutOfProcessExecutor executor(injected_config(demo_plain_cmd()));
  ASSERT_TRUE(executor.ensure_started()) << executor.last_error();

  const oop::OutOfProcessExecutor::Outcome& benign = executor.run(kBenign);
  ASSERT_EQ(benign.status, oop::ExecStatus::kOk) << executor.last_error();
  EXPECT_EQ(benign.aux.events, 0u) << "no sancov, no events";
  EXPECT_EQ(nonzero_cells(executor.map_words()), 0u);
  EXPECT_FALSE(benign.aux.response.empty())
      << "fault-driven fuzzing still observes the response bytes";

  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());
  ASSERT_TRUE(info.present);
  EXPECT_FALSE(info.sancov());

  // Crash classification works without any instrumentation.
  const oop::OutOfProcessExecutor::Outcome& crash =
      executor.run(fault_frame(kFaultCrash));
  EXPECT_EQ(crash.status, oop::ExecStatus::kCrash);
  EXPECT_EQ(crash.term_signal, SIGSEGV);
}

// -- Differential: demo fault classification == shim's, bit for bit. -----

/// Runs `packet` through a fuzz::Executor over the given backend config
/// and returns a private copy of the classified result.
fuzz::ExecResult classify(const fuzz::ExecBackendConfig& backend,
                          ByteSpan packet) {
  fuzz::ExecutorConfig config;
  config.backend = backend;
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  fuzz::Executor executor(std::move(config));
  return executor.run(*placeholder, packet);
}

/// The two out-of-process backend kinds each differential covers: the
/// demo's fork-per-exec main() and its cooperative persistent loop, against
/// the shim's fork-per-exec child and its persistent child.
const fuzz::BackendKind kOopKinds[] = {fuzz::BackendKind::kForkPerExec,
                                       fuzz::BackendKind::kPersistent};

fuzz::ExecBackendConfig demo_backend(fuzz::BackendKind kind, int timeout_ms,
                                     std::uint64_t jail_mb = 0) {
  fuzz::ExecBackendConfig backend;
  backend.kind = kind;
  backend.target_cmd = demo_cmd();
  backend.preload = preload_path();
  backend.exec_timeout_ms = timeout_ms;
  backend.jail.address_space_mb = jail_mb;
  return backend;
}

fuzz::ExecBackendConfig shim_backend(fuzz::BackendKind kind, int timeout_ms,
                                     std::uint64_t jail_mb = 0) {
  fuzz::ExecBackendConfig backend;
  backend.kind = kind;
  backend.target_cmd = shim_cmd();
  backend.exec_timeout_ms = timeout_ms;
  backend.jail.address_space_mb = jail_mb;
  return backend;
}

/// The classification contract: identical fault lists, field by field.
void expect_same_classification(const fuzz::ExecResult& demo,
                                const fuzz::ExecResult& shim) {
  EXPECT_EQ(demo.crashed(), shim.crashed());
  ASSERT_EQ(demo.faults.size(), shim.faults.size());
  for (std::size_t i = 0; i < demo.faults.size(); ++i) {
    EXPECT_EQ(demo.faults[i].kind, shim.faults[i].kind) << "fault " << i;
    EXPECT_EQ(demo.faults[i].site, shim.faults[i].site) << "fault " << i;
    EXPECT_EQ(demo.faults[i].detail, shim.faults[i].detail) << "fault " << i;
  }
}

TEST(InjectDifferential, CrashClassificationMatchesShim) {
  // The shim arm raises SIGSEGV on execution 1 via the fault plan; the
  // demo arm's FC 0x66 does a real null write. Both die on signal 11, so
  // the synthetic crash fault must match down to the detail string.
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const fuzz::ExecResult demo = classify(
        demo_backend(kind, kGenerousTimeoutMs), fault_frame(kFaultCrash));
    fuzz::ExecResult shim;
    {
      ScopedEnv knob("ICSFUZZ_SHIM_SEGV_AT", "1");
      shim = classify(shim_backend(kind, kGenerousTimeoutMs), kBenign);
    }
    ASSERT_TRUE(demo.crashed());
    expect_same_classification(demo, shim);
  }
}

TEST(InjectDifferential, HangClassificationMatchesShim) {
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const fuzz::ExecResult demo = classify(demo_backend(kind, kHangTimeoutMs),
                                           fault_frame(kFaultHang));
    fuzz::ExecResult shim;
    {
      ScopedEnv knob("ICSFUZZ_SHIM_HANG_AT", "1");
      shim = classify(shim_backend(kind, kHangTimeoutMs), kBenign);
    }
    ASSERT_TRUE(demo.crashed());
    expect_same_classification(demo, shim);
  }
}

TEST(InjectDifferential, OomClassificationMatchesShim) {
  // Both arms run under the same 256 MiB address-space jail; both exit
  // through the jail's allocation-failure code, never a raw bad_alloc.
  constexpr std::uint64_t kJailMb = 256;
  for (const fuzz::BackendKind kind : kOopKinds) {
    SCOPED_TRACE(std::string("backend ") + std::string(fuzz::to_string(kind)));
    const fuzz::ExecResult demo =
        classify(demo_backend(kind, kGenerousTimeoutMs, kJailMb),
                 fault_frame(kFaultOom));
    fuzz::ExecResult shim;
    {
      ScopedEnv knob("ICSFUZZ_SHIM_OOM_AT", "1");
      shim = classify(shim_backend(kind, kGenerousTimeoutMs, kJailMb),
                      kBenign);
    }
    ASSERT_TRUE(demo.crashed());
    expect_same_classification(demo, shim);
  }
}

// -- TCP interposition mode: the demo's own --serve loop as a session
// target. ------------------------------------------------------------------

fuzz::ExecutorConfig demo_tcp_config(int timeout_ms) {
  fuzz::ExecutorConfig config;
  config.backend.kind = fuzz::BackendKind::kTcp;
  config.backend.target_cmd = demo_cmd();
  config.backend.target_cmd.push_back("--serve");
  config.backend.preload = preload_path();
  config.backend.exec_timeout_ms = timeout_ms;
  config.backend.session.framing = session::Framing::kMbap;
  return config;
}

Bytes concat(std::initializer_list<Bytes> frames) {
  Bytes stream;
  for (const Bytes& frame : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

TEST(InjectTcp, BenignSessionsCompleteWithoutWaitingForTheDeadline) {
  // The interposed write() publishes each response through the sync
  // block, whose futex wake ends the client's wait. Were the wake missing,
  // every message would sit out the whole deadline and turn into a Hang.
  constexpr int kDeadlineMs = 10000;
  fuzz::Executor executor(demo_tcp_config(kDeadlineMs));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const Bytes stream = concat({kBenign, kBenignCoils});

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    const fuzz::ExecResult& result = executor.run(*placeholder, stream);
    EXPECT_TRUE(result.faults.empty())
        << "session " << i << ": " << result.faults.front().detail;
    EXPECT_EQ(result.session_messages, 2u) << "session " << i;
    EXPECT_FALSE(result.response.empty()) << "session " << i;
    EXPECT_GT(result.events, 0u) << "session " << i;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(kDeadlineMs / 2));
}

TEST(InjectTcp, SilentMessageEndsInDeadlineHangAndRespawns) {
  // FC 0x67 makes the demo pause forever mid-session: nothing is written,
  // so nothing is published, and only the session deadline ends the wait.
  constexpr int kDeadlineMs = 500;
  fuzz::Executor executor(demo_tcp_config(kDeadlineMs));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();

  const fuzz::ExecResult first = executor.run(*placeholder, kBenign);
  ASSERT_TRUE(first.faults.empty()) << first.faults.front().detail;

  const auto start = std::chrono::steady_clock::now();
  const fuzz::ExecResult hang =
      executor.run(*placeholder, concat({kBenign, fault_frame(kFaultHang)}));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(hang.faults.size(), 1u);
  EXPECT_EQ(hang.faults[0].kind, san::FaultKind::Hang);
  EXPECT_EQ(hang.faults[0].site, san::site_id("tcp-session-deadline"));
  // The deadline is kept in whole milliseconds, so it may fall up to 1 ms
  // short of kDeadlineMs after the clock read that started it.
  EXPECT_GE(elapsed, std::chrono::milliseconds(kDeadlineMs - 1));
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs + 10000));

  // A fresh server answers the benign session exactly as the first one
  // did. (Not the trace hash: trace-pc edge ids follow the load address,
  // which a respawned process gets anew.)
  const fuzz::ExecResult again = executor.run(*placeholder, kBenign);
  ASSERT_TRUE(again.faults.empty()) << again.faults.front().detail;
  EXPECT_EQ(again.response, first.response);
  EXPECT_EQ(again.events, first.events);
}

TEST(InjectTcp, SessionsLeaveNoTimeWait) {
  // A stock server's sessions are its connections, and the client
  // half-closes each one first; the interposed close() resets the server's
  // end once the session is published, so no completed session leaves a
  // TIME_WAIT entry on the client side.
  constexpr int kSessions = 200;
  fuzz::Executor executor(demo_tcp_config(10000));
  const std::unique_ptr<ProtocolTarget> placeholder =
      proto::target_factory("libmodbus")();
  const Bytes stream = concat({kBenign, kBenignCoils});
  for (int i = 0; i < kSessions; ++i) {
    const fuzz::ExecResult& result = executor.run(*placeholder, stream);
    ASSERT_TRUE(result.faults.empty())
        << "session " << i << ": " << result.faults.front().detail;
  }
  // Only this demo's port: other suites run their own servers in parallel.
  const std::set<std::uint16_t> ports = test::child_tcp_ports();
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(test::count_tcp_sockets(*ports.begin(), test::kTcpTimeWait), 0u);
}

}  // namespace
}  // namespace icsfuzz
