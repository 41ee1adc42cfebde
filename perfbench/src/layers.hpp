// Per-layer spans, recorded from the benchmark's own code around calls into
// each layer's public functions (nothing inside the program is changed):
//
//   fuzzer     Fuzzer::step_fast per call; allocations across the loop
//   protocols  TimingTarget, a decorator around the ProtocolTarget
//   model      ModelInstantiator::generate_into
//   fuzzer     SemanticGenerator::generate_into, FileCracker::crack,
//              GenerationalDedup::insert on the campaign's own state
//   supervise  Fuzzer::capture_checkpoint, serialize_checkpoint,
//              save_checkpoint on the campaign's final state
//   coverage   Executor::run_into in-process on recorded packets, minus the
//              target's own time
//   exec_oop   the same packets through a persistent fork server
//   session    sequencer streams through the in-process session arm and
//              through kTcp over loopback
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "protocols/protocol_target.hpp"

namespace perfbench {

/// Global operator-new calls so far (bench/counting_allocator.hpp).
[[nodiscard]] std::uint64_t allocation_count();

/// Times every call into the wrapped target and keeps a sample of the
/// packets it executes.
class TimingTarget final : public ProtocolTarget {
 public:
  /// `samples` (may be null) receives every kSampleEvery-th packet, up to
  /// kSampleCap of them.
  TimingTarget(ProtocolTarget& inner, std::vector<Bytes>* samples)
      : inner_(inner), samples_(samples) {}

  static constexpr std::uint64_t kSampleEvery = 8;
  static constexpr std::size_t kSampleCap = 1024;

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void reset() override;
  Bytes process(ByteSpan packet) override;
  void process_into(ByteSpan packet, Bytes& response) override;

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t ns() const { return ns_; }

 private:
  ProtocolTarget& inner_;
  std::vector<Bytes>* samples_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

struct PacketSample {
  std::string project;
  std::vector<Bytes> packets;
};

/// What a traced campaign records. `time_steps` times every step_fast
/// call; `record` wraps the target in a TimingTarget. The first recording
/// campaign also samples packets and probes the engine layers once each
/// project's campaign is done. Only an in-process campaign can record:
/// out-of-process targets run in the fork server.
struct EngineTrace {
  bool time_steps = false;
  bool record = false;
  bool probed = false;

  std::vector<double> iter_ns;
  std::uint64_t timed_steps = 0;
  std::uint64_t allocations = 0;

  std::uint64_t target_calls = 0;
  std::uint64_t target_ns = 0;
  std::deque<PacketSample> samples;  // deque: TimingTarget holds a pointer

  // One entry per project.
  std::vector<double> instantiate_ns;
  std::vector<double> semantic_gen_ns;
  std::vector<double> crack_ns;
  std::vector<double> dedup_insert_ns;
  std::vector<double> capture_ms;
  std::vector<double> serialize_ms;
  std::vector<double> save_ms;
  std::vector<double> checkpoint_bytes;
  std::uint64_t dedup_hashes = 0;
  std::vector<std::string> errors;

  std::vector<Bytes>* new_sample(const std::string& project) {
    samples.push_back(PacketSample{project, {}});
    return &samples.back().packets;
  }
};

/// Times the engine layers on a finished campaign's own state.
void probe_engine(const fuzz::Fuzzer& fuzzer, const model::DataModelSet& models,
                  const Workload& workload, const Environment& env,
                  EngineTrace& trace);

struct TransportProfile {
  // Recorded packets, replayed one run_into at a time.
  std::vector<double> inproc_us;
  std::vector<double> persistent_us;
  std::vector<double> spawn_ms;
  std::uint64_t replay_ns = 0;
  std::uint64_t replay_target_ns = 0;
  // Sequencer streams.
  std::vector<double> session_inproc_us;
  std::vector<double> session_tcp_us;
  std::uint64_t session_messages = 0;
  std::uint64_t sequencer_ns = 0;
  std::uint64_t sequencer_calls = 0;
  /// Executions whose observables differ between transports.
  std::vector<std::string> mismatches;
};

/// Replays the trace's recorded packets in-process and through a
/// persistent fork server, and runs seeded sequencer streams through the
/// in-process session arm and over kTcp, for each of the workload's
/// projects. Both pairs must agree execution by execution.
TransportProfile probe_transport(const Workload& workload,
                                 const Environment& env,
                                 const EngineTrace& trace);

}  // namespace perfbench
