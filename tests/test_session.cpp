// Session-layer suite: the in-process vs over-TCP differential session
// oracle, the stateful coverage proof, and the session template plumbing.
//
// The load-bearing properties, asserted rather than eyeballed:
//
//   * Differential oracle — the SAME session stream executed by the
//     in-process session backend and by the kTcp backend (driving a real
//     `icsfuzz-shim-target --tcp` server over a loopback socket) yields
//     byte-identical per-message traffic and bit-identical coverage:
//     trace hash, edge counts, events, faults, responses, session states,
//     accumulated map, path set. A fixed-seed fuzzing campaign over TCP
//     therefore reproduces the in-process campaign's trajectory exactly.
//   * Stateful coverage — a fixed-seed stateful IEC 104 campaign reaches
//     hashed session states (the post-STARTDT ASDU handling chain) that a
//     stateless single-exchange baseline campaign structurally never
//     produces (plain backends carry no session fields at all).
//   * Session pits — pits/iec104_session.xml and pits/mms_session.xml
//     mirror the built-in templates step-for-step; malformed session pit
//     documents are rejected with diagnostics, never half-parsed.
//   * Checkpoint/resume — reached session states survive the Fuzzer
//     checkpoint round trip and the supervise on-disk format ("sstates"),
//     and a restored campaign continues bit-for-bit.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shm_segment.hpp"

#include "fuzzer/fuzzer.hpp"
#include "fuzzer/instantiator.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "session/session_state.hpp"
#include "session/session_types.hpp"
#include "session/session_wire.hpp"
#include "supervise/checkpoint.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"

namespace icsfuzz {
namespace {

using test::shim_tcp_cmd;

/// Generous per-exec deadline: a scheduler stall on a loaded CI runner
/// must not inject a spurious Hang fault into a bit-identity comparison.
constexpr int kGenerousTimeoutMs = 30000;

/// IEC 104 choreography bytes (mirror iec104_server.cpp).
const Bytes kStartDtAct = {0x68, 0x04, 0x07, 0x00, 0x00, 0x00};
const Bytes kStartDtCon = {0x68, 0x04, 0x0B, 0x00, 0x00, 0x00};
/// Global interrogation I-frame, N(S)=N(R)=0: type C_IC_NA_1 (100),
/// COT activation, common address 1, IOA 0, QOI 20 — the post-STARTDT
/// request the server answers with an I-format burst.
const Bytes kInterrogation = {0x68, 0x0E, 0x00, 0x00, 0x00, 0x00,
                              0x64, 0x01, 0x06, 0x00, 0x01, 0x00,
                              0x00, 0x00, 0x00, 0x14};

/// FNV-1a of ICSFUZZ_STRESS_SEED (0 when unset): the CI fault-stress lane
/// varies campaign shape per round through this.
std::uint64_t stress_hash() {
  const char* stress = std::getenv("ICSFUZZ_STRESS_SEED");
  if (stress == nullptr) return 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = stress; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<std::uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

session::SequencerConfig sequencer_config(const std::string& project) {
  session::SequencerConfig config;
  config.enabled = true;
  config.framing = session::framing_for_project(project);
  config.project = project;
  return config;
}

/// ExecutorConfig for a session backend over `project`.
fuzz::ExecutorConfig session_executor_config(const std::string& project,
                                             fuzz::BackendKind kind,
                                             bool record_traffic) {
  fuzz::ExecutorConfig config;
  config.backend.kind = kind;
  config.backend.session.framing = session::framing_for_project(project);
  config.backend.session.record_traffic = record_traffic;
  config.backend.exec_timeout_ms = kGenerousTimeoutMs;
  if (kind != fuzz::BackendKind::kInProcess) {
    config.backend.target_cmd = shim_tcp_cmd(project);
  }
  return config;
}

/// Owns the pit set + instantiator a SessionSequencer borrows.
struct SequencerRig {
  model::DataModelSet models;
  fuzz::ModelInstantiator instantiator;
  session::SessionSequencer sequencer;

  explicit SequencerRig(const std::string& project)
      : models(pits::pit_for_project(project)),
        instantiator(),
        sequencer(sequencer_config(project), models, instantiator) {}
};

/// Deterministic mixed workload for the differential oracle: sequencer
/// streams (both arms split them into multi-message sessions) plus the
/// adversarial shapes — empty stream, unframeable junk, a torn frame, a
/// tiny-frame flood past the message cap.
std::vector<Bytes> differential_streams(const std::string& project,
                                        std::size_t generated) {
  SequencerRig rig(project);
  Rng rng(0x5E55A10 + project.size());
  std::vector<Bytes> streams;
  Bytes out;
  for (std::size_t i = 0; i < generated; ++i) {
    rig.sequencer.generate_into(rng, out);
    streams.push_back(out);
  }
  streams.push_back({});                              // empty session
  streams.push_back({0x00, 0x01, 0x02, 0x03});        // unframeable junk
  Bytes torn = kStartDtAct;
  torn.resize(4);                                      // mid-frame cut
  streams.push_back(std::move(torn));
  Bytes flood;
  for (int i = 0; i < 300; ++i) {                      // past the 256 cap
    flood.push_back(0x68);
    flood.push_back(0x00);
  }
  streams.push_back(std::move(flood));
  return streams;
}

void expect_results_equal(const fuzz::ExecResult& in_proc,
                          const fuzz::ExecResult& tcp, std::size_t index) {
  EXPECT_EQ(in_proc.trace_hash, tcp.trace_hash) << "stream " << index;
  EXPECT_EQ(in_proc.trace_edges, tcp.trace_edges) << "stream " << index;
  EXPECT_EQ(in_proc.new_coverage, tcp.new_coverage) << "stream " << index;
  EXPECT_EQ(in_proc.new_path, tcp.new_path) << "stream " << index;
  EXPECT_EQ(in_proc.events, tcp.events) << "stream " << index;
  EXPECT_EQ(in_proc.response, tcp.response) << "stream " << index;
  EXPECT_EQ(in_proc.session_messages, tcp.session_messages)
      << "stream " << index;
  EXPECT_EQ(in_proc.session_states, tcp.session_states) << "stream " << index;
  ASSERT_EQ(in_proc.faults.size(), tcp.faults.size()) << "stream " << index;
  for (std::size_t f = 0; f < in_proc.faults.size(); ++f) {
    EXPECT_EQ(in_proc.faults[f].kind, tcp.faults[f].kind)
        << "stream " << index << " fault " << f;
    EXPECT_EQ(in_proc.faults[f].site, tcp.faults[f].site)
        << "stream " << index << " fault " << f;
    EXPECT_EQ(in_proc.faults[f].detail, tcp.faults[f].detail)
        << "stream " << index << " fault " << f;
  }
}

void expect_traffic_equal(const session::SessionTraffic* in_proc,
                          const session::SessionTraffic* tcp,
                          std::size_t index) {
  ASSERT_NE(in_proc, nullptr) << "stream " << index;
  ASSERT_NE(tcp, nullptr) << "stream " << index;
  ASSERT_EQ(in_proc->requests.size(), tcp->requests.size())
      << "stream " << index;
  ASSERT_EQ(in_proc->responses.size(), tcp->responses.size())
      << "stream " << index;
  for (std::size_t m = 0; m < in_proc->requests.size(); ++m) {
    EXPECT_EQ(in_proc->requests[m], tcp->requests[m])
        << "stream " << index << " request " << m;
    EXPECT_EQ(in_proc->responses[m], tcp->responses[m])
        << "stream " << index << " response " << m;
  }
}

// -- Sequencer sanity. ----------------------------------------------------

TEST(SessionSequencer, GeneratesFramedMultiMessageStreams) {
  SequencerRig rig("IEC104");
  Rng rng(42);
  Bytes stream;
  std::vector<session::MessageRange> ranges;
  bool saw_startdt = false;
  bool saw_multi = false;
  for (int i = 0; i < 64; ++i) {
    rig.sequencer.generate_into(rng, stream);
    ASSERT_FALSE(stream.empty()) << "round " << i;
    ASSERT_LE(stream.size(), session::kMaxSessionStreamBytes);
    const std::size_t residue = session::split_stream(
        session::Framing::kApci, ByteSpan(stream.data(), stream.size()),
        ranges);
    ASSERT_GE(ranges.size(), 1u) << "round " << i;
    (void)residue;
    if (ranges.size() > 1) saw_multi = true;
    if (stream.size() >= kStartDtAct.size() &&
        std::equal(kStartDtAct.begin(), kStartDtAct.end(), stream.begin())) {
      saw_startdt = true;
    }
  }
  EXPECT_TRUE(saw_multi) << "no multi-message session in 64 rounds";
  EXPECT_TRUE(saw_startdt) << "no STARTDT-led session in 64 rounds";
}

TEST(SessionSequencer, MutateStreamPreservesFramedShape) {
  SequencerRig rig("IEC104");
  Rng rng(77);
  Bytes seed;
  rig.sequencer.generate_into(rng, seed);
  Bytes mutated;
  std::vector<session::MessageRange> ranges;
  for (int i = 0; i < 64; ++i) {
    rig.sequencer.mutate_stream_into(ByteSpan(seed.data(), seed.size()), rng,
                                     mutated);
    ASSERT_LE(mutated.size(), session::kMaxSessionStreamBytes);
    // A mutated stream stays splittable (possibly with a residue tail —
    // truncate-mid-message is one of the mutations).
    session::split_stream(session::Framing::kApci,
                          ByteSpan(mutated.data(), mutated.size()), ranges);
  }
}

// -- The per-execution differential oracle. -------------------------------

#ifdef ICSFUZZ_SHIM_PATH

void run_differential_oracle(const std::string& project) {
  const std::vector<Bytes> streams = differential_streams(project, 24);
  const auto factory = proto::target_factory(project);
  ASSERT_TRUE(factory) << project;
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();

  fuzz::Executor in_proc(session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));
  fuzz::Executor tcp(session_executor_config(
      project, fuzz::BackendKind::kTcp, /*record_traffic=*/true));

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const ByteSpan packet(streams[i].data(), streams[i].size());
    const fuzz::ExecResult in_proc_result =
        in_proc.run(*in_proc_target, packet);
    const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
    expect_results_equal(in_proc_result, tcp_result, i);
    expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                         i);
  }

  // Campaign-lifetime fingerprints: same accumulated map, same path set,
  // same session-state set.
  EXPECT_EQ(in_proc.executions(), tcp.executions());
  EXPECT_EQ(in_proc.edge_count(), tcp.edge_count());
  EXPECT_EQ(in_proc.path_count(), tcp.path_count());
  EXPECT_EQ(in_proc.coverage().snapshot_accumulated(),
            tcp.coverage().snapshot_accumulated());
  EXPECT_EQ(in_proc.session_states_snapshot(), tcp.session_states_snapshot());
  EXPECT_GT(in_proc.session_state_count(), 0u);
}

TEST(SessionDifferential, TcpMatchesInProcessIec104) {
  run_differential_oracle("IEC104");
}

TEST(SessionDifferential, TcpMatchesInProcessModbus) {
  run_differential_oracle("libmodbus");
}

TEST(SessionDifferential, FixedSeedCampaignTrajectoryIdenticalOverTcp) {
  struct Fingerprint {
    std::uint64_t executions = 0;
    std::size_t paths = 0;
    std::size_t edges = 0;
    std::size_t crashes = 0;
    std::vector<Bytes> retained;
    std::vector<std::uint64_t> session_states;
    std::vector<std::uint8_t> accumulated;
  };
  const auto run_campaign = [](fuzz::BackendKind kind) {
    const std::string project = "IEC104";
    fuzz::FuzzerConfig config;
    config.rng_seed = 0x5E55;
    config.stats_interval = 50;
    config.session = sequencer_config(project);
    config.executor =
        session_executor_config(project, kind, /*record_traffic=*/false);
    config.telemetry = telem::Sink();
    const auto factory = proto::target_factory(project);
    std::unique_ptr<ProtocolTarget> target = factory();
    const model::DataModelSet models = pits::pit_for_project(project);
    fuzz::Fuzzer fuzzer(*target, models, config);
    fuzzer.run(120);
    Fingerprint fp;
    fp.executions = fuzzer.executor().executions();
    fp.paths = fuzzer.path_count();
    fp.edges = fuzzer.executor().edge_count();
    fp.crashes = fuzzer.crashes().unique_count();
    for (const fuzz::RetainedSeed& seed : fuzzer.retained_seeds()) {
      fp.retained.push_back(seed.bytes);
    }
    fp.session_states = fuzzer.executor().session_states_snapshot();
    fp.accumulated = fuzzer.executor().coverage().snapshot_accumulated();
    return fp;
  };

  const Fingerprint in_proc = run_campaign(fuzz::BackendKind::kInProcess);
  const Fingerprint tcp = run_campaign(fuzz::BackendKind::kTcp);
  EXPECT_EQ(in_proc.executions, tcp.executions);
  EXPECT_EQ(in_proc.paths, tcp.paths);
  EXPECT_EQ(in_proc.edges, tcp.edges);
  EXPECT_EQ(in_proc.crashes, tcp.crashes);
  EXPECT_EQ(in_proc.retained, tcp.retained);
  EXPECT_EQ(in_proc.session_states, tcp.session_states);
  EXPECT_EQ(in_proc.accumulated, tcp.accumulated);
  EXPECT_GT(in_proc.session_states.size(), 0u);
}

TEST(SessionDifferential, OneConnectionServesEveryStream) {
  // The shim server keeps one connection for its lifetime and the client
  // announces each session's length on the control pipe. On top of the
  // differential set: a stream past the 1 MiB cap, whose clipped tail is
  // never sent (announcing packet.size() would stall the server's read),
  // and a torn frame straight before a full session, whose residue must
  // stay in its own session.
  const std::string project = "IEC104";
  std::vector<Bytes> streams = differential_streams(project, 24);
  Bytes oversized;
  while (oversized.size() <= session::kMaxSessionStreamBytes + 4096) {
    oversized.insert(oversized.end(), kStartDtAct.begin(), kStartDtAct.end());
  }
  streams.push_back(std::move(oversized));
  Bytes torn = kInterrogation;
  torn.resize(9);
  streams.push_back(std::move(torn));
  Bytes full = kStartDtAct;
  full.insert(full.end(), kInterrogation.begin(), kInterrogation.end());
  streams.push_back(std::move(full));

  const auto factory = proto::target_factory(project);
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();
  fuzz::Executor in_proc(session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));
  fuzz::Executor tcp(session_executor_config(
      project, fuzz::BackendKind::kTcp, /*record_traffic=*/true));
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const ByteSpan packet(streams[i].data(), streams[i].size());
    const fuzz::ExecResult in_proc_result =
        in_proc.run(*in_proc_target, packet);
    const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
    expect_results_equal(in_proc_result, tcp_result, i);
    expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                         i);
  }
  EXPECT_EQ(in_proc.coverage().snapshot_accumulated(),
            tcp.coverage().snapshot_accumulated());

  // Every session crossed the same connection: exactly one established
  // connection (its two ends) on the server's port, and no session left a
  // TIME_WAIT entry behind.
  const std::set<std::uint16_t> ports = test::child_tcp_ports();
  ASSERT_EQ(ports.size(), 1u);
  const std::uint16_t port = *ports.begin();
  EXPECT_EQ(test::count_tcp_sockets(port, test::kTcpEstablished), 2u);
  EXPECT_EQ(test::count_tcp_sockets(port, test::kTcpTimeWait), 0u);
}

/// A test-local server that says hello (with `caps` in the port word's
/// high half) and then never publishes: the announced port belongs to a
/// listener here that nobody accepts on, so the session's first message
/// waits for a served count that never comes. The script leaves a marker,
/// so the respawn after the Hang execs the real shim and the next session
/// must match in-process. (/dev/fd paths, because a POSIX sh only
/// redirects descriptors 0-9; the script drains the control pipe, where
/// the kept-connection path writes its session header.)
void expect_silent_server_hangs_then_respawn_matches(std::uint32_t caps) {
  constexpr int kDeadlineMs = 500;
  std::uint16_t port = 0;
  const int listener = test::bind_ephemeral_loopback(port);
  ASSERT_GE(listener, 0);
  const std::string marker = "/tmp/icsfuzz-silent-server-" +
                             std::to_string(::getpid());
  ::unlink(marker.c_str());
  const std::uint32_t word = port | caps;
  char hello[64];
  std::snprintf(hello, sizeof hello,
                "\\124\\123\\103\\111\\%03o\\%03o\\%03o\\%03o",
                word & 0xFF, (word >> 8) & 0xFF, (word >> 16) & 0xFF,
                word >> 24);  // magic, then the little-endian port word
  static_assert(oop::kTcpHelloMagic == 0x49435354);
  const std::string script =
      "if [ -e " + marker + " ]; then exec " ICSFUZZ_SHIM_PATH
      " --project IEC104 --tcp; fi; : > " + marker + "; printf '" + hello +
      "' > /dev/fd/" + std::to_string(oop::kStFd) + "; exec cat /dev/fd/" +
      std::to_string(oop::kCtlFd) + " > /dev/null";

  fuzz::ExecutorConfig config = session_executor_config(
      "IEC104", fuzz::BackendKind::kTcp, /*record_traffic=*/true);
  config.backend.target_cmd = {"/bin/sh", "-c", script};
  config.backend.exec_timeout_ms = kDeadlineMs;
  fuzz::Executor tcp(std::move(config));
  fuzz::Executor in_proc(session_executor_config(
      "IEC104", fuzz::BackendKind::kInProcess, /*record_traffic=*/true));
  const auto factory = proto::target_factory("IEC104");
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();
  Bytes stream = kStartDtAct;
  stream.insert(stream.end(), kInterrogation.begin(), kInterrogation.end());
  const ByteSpan packet(stream.data(), stream.size());

  const auto start = std::chrono::steady_clock::now();
  const fuzz::ExecResult hang = tcp.run(*placeholder, packet);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(hang.faults.size(), 1u);
  EXPECT_EQ(hang.faults[0].kind, san::FaultKind::Hang)
      << hang.faults[0].detail;
  EXPECT_EQ(hang.faults[0].site, san::site_id("tcp-session-deadline"));
  // The deadline is kept in whole milliseconds, so it may fall up to 1 ms
  // short of kDeadlineMs after the clock read that started it.
  EXPECT_GE(elapsed, std::chrono::milliseconds(kDeadlineMs - 1));
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs + 10000));

  const fuzz::ExecResult in_proc_result = in_proc.run(*in_proc_target, packet);
  const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
  expect_results_equal(in_proc_result, tcp_result, 0);
  expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                       0);
  EXPECT_GT(tcp_result.session_states.size(), 1u);

  ::close(listener);
  ::unlink(marker.c_str());
}

TEST(SessionDeadline, SilentServerHangsThenRespawnedServerMatchesInProcess) {
  expect_silent_server_hangs_then_respawn_matches(/*caps=*/0);
}

TEST(SessionDeadline, SilentKeptConnectionServerHangsThenRespawnMatches) {
  // The same hang on the kept-connection path: the client connects once,
  // writes the session header, and still ends in tcp-session-deadline;
  // the respawned real shim gets a fresh connection.
  expect_silent_server_hangs_then_respawn_matches(oop::kTcpCapKeepConnection);
}

TEST(SessionDifferential, BatchedSessionsMatchOnOneCpu) {
  // On one CPU the kept-connection session's single publish → wake →
  // receive is a real handoff between this process and the server, so a
  // lost wakeup, a response read that runs ahead of the server's send, or
  // a table published before it is complete would show here as a hang or
  // a mismatch. Generated and mutated sessions alternate.
  const test::PinToOneCpu pin;
  ASSERT_TRUE(pin.pinned());
  const std::string project = "IEC104";
  SequencerRig rig(project);
  Rng rng(0xBA7C4 ^ stress_hash());
  telem::Telemetry hub;
  fuzz::ExecutorConfig config = session_executor_config(
      project, fuzz::BackendKind::kTcp, /*record_traffic=*/true);
  config.telemetry = telem::Sink(&hub, 0);
  fuzz::Executor tcp(config);
  fuzz::Executor in_proc(session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));
  const auto factory = proto::target_factory(project);
  std::unique_ptr<ProtocolTarget> in_proc_target = factory();
  std::unique_ptr<ProtocolTarget> placeholder = factory();

  constexpr std::size_t kSessions = 6000;
  Bytes generated;
  Bytes mutated;
  for (std::size_t i = 0; i < kSessions && !HasFailure(); ++i) {
    rig.sequencer.generate_into(rng, generated);
    const Bytes* stream = &generated;
    if (i % 2 == 1) {
      rig.sequencer.mutate_stream_into(ByteSpan(generated), rng, mutated);
      stream = &mutated;
    }
    const ByteSpan packet(stream->data(), stream->size());
    const fuzz::ExecResult in_proc_result =
        in_proc.run(*in_proc_target, packet);
    const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
    expect_results_equal(in_proc_result, tcp_result, i);
    expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                         i);
  }
  EXPECT_EQ(tcp.executions(), kSessions);
  EXPECT_EQ(in_proc.coverage().snapshot_accumulated(),
            tcp.coverage().snapshot_accumulated());
  const telem::Snapshot snap = hub.snapshot();
  EXPECT_EQ(snap.counter(telem::Counter::kOopRestarts), 0u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopHangs), 0u);
  EXPECT_EQ(snap.counter(telem::Counter::kOopServerLost), 0u);
  // One server, one kept connection for all of it.
  const std::set<std::uint16_t> ports = test::child_tcp_ports();
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(test::count_tcp_sockets(*ports.begin(), test::kTcpEstablished),
            2u);
}

/// The session that carries the most messages the framing layer allows,
/// each a copy of `message`: kMaxSessionMessages frames, then 8 more that
/// the split leaves as one residue (the servers drain up to 8 frames from
/// one read). On APCI the first message is STARTDT_act, and each I-format
/// copy gets the next send sequence number, as the server's window check
/// expects.
Bytes cap_session(session::Framing framing, const Bytes& message) {
  Bytes stream;
  std::size_t copies = session::kMaxSessionMessages + 8;
  const bool apci = framing == session::Framing::kApci;
  if (apci) {
    stream = kStartDtAct;
    --copies;
  }
  const bool i_format =
      apci && message.size() >= 6 && message[0] == 0x68 && (message[2] & 1) == 0;
  for (std::size_t k = 0; k < copies; ++k) {
    const std::size_t at = stream.size();
    stream.insert(stream.end(), message.begin(), message.end());
    if (i_format) {
      stream[at + 2] = static_cast<std::uint8_t>((k << 1) & 0xFE);
      stream[at + 3] = static_cast<std::uint8_t>(k >> 7);
      stream[at + 4] = 0;
      stream[at + 5] = 0;
    }
  }
  return stream;
}

TEST(SessionDifferential, LargestResponseTotalsMatch) {
  // The biggest response totals the six targets produce: for each, the
  // generated message whose cap session (cap_session) draws the most
  // response bytes without a fault, found by a fixed-seed search. Over
  // the kept connection those totals cross the socket as one send.
  for (const std::string& project : pits::all_project_names()) {
    SCOPED_TRACE(project);
    const session::Framing framing = session::framing_for_project(project);
    const model::DataModelSet models = pits::pit_for_project(project);
    const fuzz::ModelInstantiator instantiator;
    const auto factory = proto::target_factory(project);
    std::unique_ptr<ProtocolTarget> in_proc_target = factory();
    std::unique_ptr<ProtocolTarget> placeholder = factory();
    fuzz::Executor search(session_executor_config(
        project, fuzz::BackendKind::kInProcess, /*record_traffic=*/false));
    Rng rng(0x1A56E);
    Bytes message;
    Bytes largest;
    std::size_t largest_total = 0;
    for (const model::DataModel& model : models.models()) {
      for (int i = 0; i < 24; ++i) {
        instantiator.generate_into(model, rng, message);
        Bytes session = cap_session(framing, message);
        const fuzz::ExecResult& result =
            search.run(*in_proc_target, ByteSpan(session));
        if (result.faults.empty() && result.response.size() > largest_total) {
          largest_total = result.response.size();
          largest = std::move(session);
        }
      }
    }
    ASSERT_GT(largest_total, 0u);

    fuzz::Executor in_proc(session_executor_config(
        project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));
    fuzz::Executor tcp(session_executor_config(
        project, fuzz::BackendKind::kTcp, /*record_traffic=*/true));
    const ByteSpan packet(largest);
    const fuzz::ExecResult in_proc_result = in_proc.run(*in_proc_target, packet);
    const fuzz::ExecResult& tcp_result = tcp.run(*placeholder, packet);
    expect_results_equal(in_proc_result, tcp_result, 0);
    expect_traffic_equal(in_proc.backend().traffic(), tcp.backend().traffic(),
                         0);
    EXPECT_EQ(tcp_result.response.size(), largest_total);
    EXPECT_EQ(tcp_result.session_messages, session::kMaxSessionMessages + 1);
    std::printf("%-16s largest session response total: %zu bytes\n",
                project.c_str(), largest_total);
  }
}

#endif  // ICSFUZZ_SHIM_PATH

// -- The wire's untrusted response lengths. -------------------------------

/// A sync block of the batch contract: `count` in the table-count word,
/// `lengths` as the entries (the count may disagree with them).
void write_table(std::vector<std::uint8_t>& segment, std::uint32_t count,
                 const std::vector<std::uint32_t>& lengths) {
  std::memcpy(segment.data() + session::kSyncOffset + 20, &count, 4);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::memcpy(segment.data() + session::kSyncOffset +
                    session::kSyncTableOffset + 4 * i,
                &lengths[i], 4);
  }
}

TEST(SessionWire, ResponseTableAcceptsOnlyBoundedTablesOfTheSentCount) {
  std::vector<std::uint8_t> segment(session::kTcpSegmentBytes, 0);
  std::vector<std::uint32_t> loaded(session::kMaxResponseTableEntries);
  std::uint64_t total = 0;
  const auto load = [&](std::size_t expected) {
    return session::load_response_table(segment.data(), expected,
                                        loaded.data(), total);
  };
  constexpr auto kBound =
      static_cast<std::uint32_t>(session::kMaxSessionResponseBytes);

  // Valid: the entry count the client sent, lengths within the bound.
  write_table(segment, 3, {0, 10, 300});
  EXPECT_EQ(load(3), nullptr);
  EXPECT_EQ(total, 310u);
  EXPECT_EQ(loaded[0], 0u);
  EXPECT_EQ(loaded[1], 10u);
  EXPECT_EQ(loaded[2], 300u);
  // The largest legal table: every entry, the total at the bound.
  std::vector<std::uint32_t> full(session::kMaxResponseTableEntries, 0);
  full.back() = kBound;
  write_table(segment, static_cast<std::uint32_t>(full.size()), full);
  EXPECT_EQ(load(full.size()), nullptr);
  EXPECT_EQ(total, session::kMaxSessionResponseBytes);

  // Too many entries, too few, and a count past the table.
  write_table(segment, 4, {1, 2, 3, 4});
  EXPECT_STREQ(load(3), "response table entry count");
  write_table(segment, 2, {1, 2});
  EXPECT_STREQ(load(3), "response table entry count");
  write_table(segment, 0xFFFFFFFFu, {});
  EXPECT_STREQ(load(3), "response table entry count");

  // Too long: one entry past the bound, and a garbage u32.
  write_table(segment, 3, {5, kBound + 1, 5});
  EXPECT_STREQ(load(3), "response length over bound");
  write_table(segment, 3, {0xFFFFFFFFu, 0, 0});
  EXPECT_STREQ(load(3), "response length over bound");

  // Overflowing sum: every entry within the bound, the total past it.
  write_table(segment, 3, {kBound / 2, kBound / 2, 1});
  EXPECT_STREQ(load(3), "response total over bound");
}

TEST(SessionWire, LockstepResponseLengthIsBoundedLikeTheTable) {
  std::vector<std::uint8_t> segment(session::kTcpSegmentBytes, 0);
  std::uint32_t length = 0;
  std::uint64_t total = 0;
  constexpr auto kBound =
      static_cast<std::uint32_t>(session::kMaxSessionResponseBytes);
  const auto publish = [&](std::uint32_t len) {
    std::memcpy(segment.data() + session::kSyncOffset + 16, &len, 4);
  };
  publish(kBound - 1);
  EXPECT_EQ(session::load_response_len(segment.data(), length, total),
            nullptr);
  EXPECT_EQ(length, kBound - 1);
  // The running total of a session is bounded too.
  publish(2);
  EXPECT_STREQ(session::load_response_len(segment.data(), length, total),
               "response total over bound");
  total = 0;
  publish(0xFFFFFFFFu);
  EXPECT_STREQ(session::load_response_len(segment.data(), length, total),
               "response length over bound");
}

// -- Stateful coverage: the post-STARTDT proof. ---------------------------

TEST(SessionState, PostStartdtAsduHandlingNeedsTheHandshake) {
  const std::string project = "IEC104";
  const auto factory = proto::target_factory(project);
  std::unique_ptr<ProtocolTarget> target = factory();
  fuzz::Executor executor(session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/true));

  // STARTDT then interrogation: both messages answered.
  Bytes with_handshake = kStartDtAct;
  with_handshake.insert(with_handshake.end(), kInterrogation.begin(),
                        kInterrogation.end());
  const fuzz::ExecResult with_result = executor.run(
      *target, ByteSpan(with_handshake.data(), with_handshake.size()));
  ASSERT_EQ(with_result.session_messages, 2u);
  ASSERT_EQ(with_result.session_states.size(), 2u);
  const session::SessionTraffic* traffic = executor.backend().traffic();
  ASSERT_NE(traffic, nullptr);
  ASSERT_EQ(traffic->responses.size(), 2u);
  EXPECT_EQ(traffic->responses[0], kStartDtCon);
  EXPECT_FALSE(traffic->responses[1].empty())
      << "post-STARTDT interrogation must be answered";

  // The state chain is exactly the documented client-side fold.
  const session::ResponseClass class0 = session::classify_response(
      session::Framing::kApci,
      ByteSpan(traffic->responses[0].data(), traffic->responses[0].size()));
  EXPECT_EQ(class0, session::ResponseClass::kApciU);
  const std::uint32_t state0 = session::next_session_state(
      session::kInitialSessionState, class0, 0);
  EXPECT_EQ(with_result.session_states[0], state0);
  const session::ResponseClass class1 = session::classify_response(
      session::Framing::kApci,
      ByteSpan(traffic->responses[1].data(), traffic->responses[1].size()));
  const std::uint32_t state1 =
      session::next_session_state(state0, class1, 1);
  EXPECT_EQ(with_result.session_states[1], state1);

  // The same interrogation without the handshake is dropped on the floor
  // (started_ gate), producing a DIFFERENT state chain.
  const fuzz::ExecResult without_result = executor.run(
      *target, ByteSpan(kInterrogation.data(), kInterrogation.size()));
  ASSERT_EQ(without_result.session_messages, 1u);
  traffic = executor.backend().traffic();
  ASSERT_EQ(traffic->responses.size(), 1u);
  EXPECT_TRUE(traffic->responses[0].empty())
      << "I-frame before STARTDT must be dropped";
  EXPECT_NE(without_result.session_states[0], state0);
}

TEST(SessionState, StatefulCampaignReachesStatesStatelessNeverProduces) {
  const std::string project = "IEC104";
  const auto factory = proto::target_factory(project);
  const model::DataModelSet models = pits::pit_for_project(project);

  // Canonical marker: the hashed state after a STARTDT_act handshake at
  // position 0 — the root of every post-STARTDT session chain.
  std::uint32_t marker = 0;
  {
    std::unique_ptr<ProtocolTarget> target = factory();
    fuzz::Executor probe(session_executor_config(
        project, fuzz::BackendKind::kInProcess, /*record_traffic=*/false));
    const fuzz::ExecResult& result =
        probe.run(*target, ByteSpan(kStartDtAct.data(), kStartDtAct.size()));
    ASSERT_EQ(result.session_states.size(), 1u);
    marker = result.session_states[0];
  }

  // The CI stress lane perturbs the seed and depth per round; the
  // stateful-reaches-marker property must hold across all of them.
  const std::uint64_t perturb = stress_hash();
  const std::uint64_t seed = 0x104u ^ perturb;
  const std::uint64_t iterations = 350 + (perturb % 128);

  // Fixed-seed stateful campaign: session generation + session execution.
  fuzz::FuzzerConfig stateful;
  stateful.rng_seed = seed;
  stateful.session = sequencer_config(project);
  stateful.executor = session_executor_config(
      project, fuzz::BackendKind::kInProcess, /*record_traffic=*/false);
  stateful.telemetry = telem::Sink();
  std::unique_ptr<ProtocolTarget> stateful_target = factory();
  fuzz::Fuzzer stateful_fuzzer(*stateful_target, models, stateful);
  stateful_fuzzer.run(iterations);
  EXPECT_GT(stateful_fuzzer.executor().session_state_count(), 0u);
  EXPECT_TRUE(stateful_fuzzer.executor().session_state_reached(marker))
      << "no session reached the post-STARTDT root state in " << iterations
      << " iterations (seed " << seed << ")";

  // Stateless baseline, same seed and depth: single-exchange executions
  // structurally carry no session states — not few, none.
  fuzz::FuzzerConfig stateless;
  stateless.rng_seed = seed;
  stateless.telemetry = telem::Sink();
  std::unique_ptr<ProtocolTarget> stateless_target = factory();
  fuzz::Fuzzer stateless_fuzzer(*stateless_target, models, stateless);
  stateless_fuzzer.run(iterations);
  EXPECT_EQ(stateless_fuzzer.executor().session_state_count(), 0u);
  EXPECT_FALSE(stateless_fuzzer.executor().session_state_reached(marker));
}

// -- Session pit parsing. -------------------------------------------------

void expect_templates_equal(const std::vector<session::SessionTemplate>& a,
                            const std::vector<session::SessionTemplate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].name, b[t].name) << "template " << t;
    EXPECT_EQ(a[t].project, b[t].project) << "template " << t;
    ASSERT_EQ(a[t].steps.size(), b[t].steps.size()) << a[t].name;
    for (std::size_t s = 0; s < a[t].steps.size(); ++s) {
      EXPECT_EQ(a[t].steps[s].kind, b[t].steps[s].kind)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].literal, b[t].steps[s].literal)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].model, b[t].steps[s].model)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].min_repeat, b[t].steps[s].min_repeat)
          << a[t].name << " step " << s;
      EXPECT_EQ(a[t].steps[s].max_repeat, b[t].steps[s].max_repeat)
          << a[t].name << " step " << s;
    }
  }
}

TEST(SessionPits, Iec104SessionPitMirrorsBuiltins) {
  std::vector<session::SessionTemplate> parsed;
  std::string error;
  ASSERT_TRUE(session::parse_session_templates_file(
      std::string(ICSFUZZ_PITS_DIR) + "/iec104_session.xml", parsed, error))
      << error;
  expect_templates_equal(parsed, session::builtin_session_templates("IEC104"));
}

TEST(SessionPits, MmsSessionPitMirrorsBuiltins) {
  std::vector<session::SessionTemplate> parsed;
  std::string error;
  ASSERT_TRUE(session::parse_session_templates_file(
      std::string(ICSFUZZ_PITS_DIR) + "/mms_session.xml", parsed, error))
      << error;
  expect_templates_equal(parsed,
                         session::builtin_session_templates("libiec61850"));
}

TEST(SessionPits, MalformedDocumentsAreRejectedWithDiagnostics) {
  const char* kBad[] = {
      // Wrong root element.
      "<Peach><Session name='x'><Model/></Session></Peach>",
      // Session without a name.
      "<Sessions><Session><Model/></Session></Sessions>",
      // Odd hex digit count in a literal.
      "<Sessions><Session name='x'><Literal hex='68 0'/></Session></Sessions>",
      // Literal without hex.
      "<Sessions><Session name='x'><Literal/></Session></Sessions>",
      // min > max.
      "<Sessions><Session name='x'><Model min='3' max='1'/></Session>"
      "</Sessions>",
      // min == 0.
      "<Sessions><Session name='x'><Model min='0' max='1'/></Session>"
      "</Sessions>",
      // Non-numeric repeat bound.
      "<Sessions><Session name='x'><Model min='lots'/></Session></Sessions>",
      // Unknown step element.
      "<Sessions><Session name='x'><Blob/></Session></Sessions>",
      // Session with no steps.
      "<Sessions><Session name='x'></Session></Sessions>",
      // No sessions at all.
      "<Sessions></Sessions>",
  };
  for (const char* doc : kBad) {
    std::vector<session::SessionTemplate> out;
    std::string error;
    EXPECT_FALSE(session::parse_session_templates(doc, out, error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

// -- Checkpoint/resume with session states. -------------------------------

fuzz::FuzzerConfig stateful_config(std::uint64_t seed) {
  fuzz::FuzzerConfig config;
  config.rng_seed = seed;
  config.stats_interval = 100;
  config.session = sequencer_config("IEC104");
  config.executor = session_executor_config(
      "IEC104", fuzz::BackendKind::kInProcess, /*record_traffic=*/false);
  config.telemetry = telem::Sink();
  return config;
}

TEST(SessionCheckpoint, FuzzerRoundTripPreservesSessionStates) {
  const auto factory = proto::target_factory("IEC104");
  const model::DataModelSet models = pits::pit_for_project("IEC104");

  std::unique_ptr<ProtocolTarget> original_target = factory();
  fuzz::Fuzzer original(*original_target, models, stateful_config(11));
  original.run(160);
  const fuzz::FuzzerCheckpoint checkpoint = original.capture_checkpoint();
  ASSERT_FALSE(checkpoint.session_states.empty());
  EXPECT_TRUE(std::is_sorted(checkpoint.session_states.begin(),
                             checkpoint.session_states.end()));
  EXPECT_EQ(checkpoint.session_states,
            original.executor().session_states_snapshot());

  std::unique_ptr<ProtocolTarget> resumed_target = factory();
  fuzz::Fuzzer resumed(*resumed_target, models, stateful_config(11));
  resumed.restore_checkpoint(checkpoint);
  EXPECT_EQ(resumed.executor().session_states_snapshot(),
            original.executor().session_states_snapshot());

  // Both continue; the resumed campaign tracks the original bit-for-bit,
  // session-state set included.
  original.run(140);
  resumed.run(140);
  EXPECT_EQ(resumed.executor().executions(),
            original.executor().executions());
  EXPECT_EQ(resumed.path_count(), original.path_count());
  EXPECT_EQ(resumed.executor().edge_count(),
            original.executor().edge_count());
  EXPECT_EQ(resumed.executor().session_states_snapshot(),
            original.executor().session_states_snapshot());
  EXPECT_EQ(resumed.executor().coverage().snapshot_accumulated(),
            original.executor().coverage().snapshot_accumulated());
}

TEST(SessionCheckpoint, SupervisorFormatRoundTripsSessionStates) {
  supervise::CampaignCheckpoint checkpoint;
  checkpoint.completed_iterations = 500;
  checkpoint.base_seed = 7;
  checkpoint.iterations_per_worker = 1000;
  checkpoint.sync_interval = 100;
  par::WorkerState worker;
  worker.fuzzer.session_states = {0x11u, 0x5E551011u, 0xFFFFFFFFu};
  worker.cursor_next = {0};
  checkpoint.workers.push_back(std::move(worker));

  const std::string text = supervise::serialize_checkpoint(checkpoint);
  EXPECT_NE(text.find("sstates"), std::string::npos);
  const std::optional<supervise::CampaignCheckpoint> parsed =
      supervise::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->workers.size(), 1u);
  EXPECT_EQ(parsed->workers[0].fuzzer.session_states,
            checkpoint.workers[0].fuzzer.session_states);

  // Pre-session images carry the old version tag and must be rejected
  // outright, never resumed with a silently empty state set.
  std::string downgraded = text;
  const std::size_t tag = downgraded.find("v2");
  ASSERT_NE(tag, std::string::npos);
  downgraded.replace(tag, 2, "v1");
  EXPECT_FALSE(supervise::parse_checkpoint(downgraded).has_value());
}

// ------------------------------------------------- shm-size env validation

/// Spawns `icsfuzz-shim-target` (with `--tcp` when `tcp`) with the given
/// shm env pair and returns its exit code (-1 on abnormal termination).
/// The server must reject a bad size before it ever mmaps.
int spawn_shim_with_shm_env(const char* name, const char* size, bool tcp) {
  const pid_t child = ::fork();
  if (child == 0) {
    ::setenv(oop::kShmNameEnv, name, 1);
    ::setenv(oop::kShmSizeEnv, size, 1);
    ::execl(ICSFUZZ_SHIM_PATH, ICSFUZZ_SHIM_PATH, "--project", "libmodbus",
            tcp ? "--tcp" : static_cast<char*>(nullptr),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int wstatus = 0;
  while (::waitpid(child, &wstatus, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(SessionTcpServer, RejectsMalformedShmSizeEnv) {
  // Regression for the strtoull trust hole: a size like "131072stray"
  // used to parse as 131072 and reach the mmap; garbage became 0. All of
  // these must now exit through the no-usable-segment code (3) up front,
  // in the TCP session server and in the fork server alike (they share one
  // attach). The fork server gets a real segment's name, so only the size
  // can fail its attach.
  oop::ShmSegment segment = oop::ShmSegment::create(oop::kSegmentBytesV2);
  ASSERT_TRUE(segment.named());
  const char* const sizes[] = {
      "banana", "", "-131072", "131072stray",
      // Zero and too-small-for-the-layout sizes.
      "0", "16",
      // Absurd sizes past the 1 GiB ceiling must never reach the mmap.
      "18446744073709551615", "999999999999"};
  for (const char* size : sizes) {
    SCOPED_TRACE(std::string("size '") + size + "'");
    EXPECT_EQ(spawn_shim_with_shm_env("/icsfuzz-test-none", size, true), 3);
    EXPECT_EQ(spawn_shim_with_shm_env(segment.name().c_str(), size, false), 3);
  }
}

TEST(SessionTcpServer, RefusesSessionHeaderAboveTheStreamCap) {
  // The session header crosses a process boundary, so the server distrusts
  // it like the shm-size env: a length above the stream cap ends the server
  // with exit code 9 before it reads a single socket byte.
  oop::ShmSegment segment = oop::ShmSegment::create(session::kTcpSegmentBytes);
  ASSERT_TRUE(segment.named());
  int ctl[2];
  int st[2];
  ASSERT_EQ(::pipe(ctl), 0);
  ASSERT_EQ(::pipe(st), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    ::setenv(oop::kShmNameEnv, segment.name().c_str(), 1);
    ::setenv(oop::kShmSizeEnv, std::to_string(segment.size()).c_str(), 1);
    if (::dup2(ctl[0], oop::kCtlFd) < 0 || ::dup2(st[1], oop::kStFd) < 0) {
      ::_exit(127);
    }
    ::execl(ICSFUZZ_SHIM_PATH, ICSFUZZ_SHIM_PATH, "--project", "IEC104",
            "--tcp", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(ctl[0]);
  ::close(st[1]);

  std::uint32_t hello[2] = {0, 0};
  ASSERT_EQ(oop::read_full_deadline(st[0], hello, sizeof hello, 10000),
            oop::ReadStatus::kOk);
  EXPECT_EQ(hello[0], oop::kTcpHelloMagic);
  EXPECT_NE(hello[1] & oop::kTcpCapKeepConnection, 0u);
  const int conn = test::connect_loopback_deadline(
      static_cast<std::uint16_t>(hello[1] & 0xFFFF), 10000);
  ASSERT_GE(conn, 0);
  const std::uint32_t header =
      static_cast<std::uint32_t>(session::kMaxSessionStreamBytes) + 1;
  ASSERT_TRUE(oop::write_full(ctl[1], &header, sizeof header));

  int wstatus = 0;
  while (::waitpid(child, &wstatus, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 9);
  ::close(conn);
  ::close(ctl[1]);
  ::close(st[0]);
}

}  // namespace
}  // namespace icsfuzz
