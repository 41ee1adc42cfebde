// The benchmark's workloads and the fixed-seed Peach* campaigns they run.
//
// A campaign fuzzes each of a workload's projects in turn for a fixed
// execution budget, from one process and one fuzzing thread: through
// Fuzzer::step_fast, or through CampaignSupervisor with one worker. Both
// give the same trajectory for a given seed, so the campaign outcome
// (paths, edges, bugs, session states) is a pure function of the seed and
// every repeat of it must reproduce the first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzer/exec_backend.hpp"
#include "fuzzer/fuzzer.hpp"
#include "sanitizer/fault.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace icsfuzz;

struct Workload {
  std::string name;
  std::vector<std::string> projects;
  /// Executions per project in one campaign.
  std::uint64_t budget = 0;
  fuzz::BackendKind backend = fuzz::BackendKind::kInProcess;
  /// Session-sequenced generation (whole message sequences per execution).
  bool session = false;
  /// Run under CampaignSupervisor (W=1) with periodic checkpoints.
  bool supervised = false;
  /// Must find exactly the nine memory faults of the paper's Table I.
  bool table1 = false;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::string workload_names();

/// Where the benchmark may write (checkpoint images) and what it spawns.
struct Environment {
  std::uint64_t seed = 0;
  std::string shim;      // icsfuzz-shim-target
  std::string work_dir;  // writable directory inside the checkout
};

/// Outcome of one project's campaign — deterministic for a given seed.
struct ProjectResult {
  std::string project;
  std::uint64_t executions = 0;
  std::size_t paths = 0;
  std::size_t edges = 0;
  std::size_t session_states = 0;
  /// Unique memory faults (hangs excluded), counted by kind.
  std::map<san::FaultKind, std::size_t> bugs;
  /// Execution index (within this project) of the last new memory fault.
  std::uint64_t last_bug_execution = 0;

  [[nodiscard]] std::size_t bug_count() const;
  bool operator==(const ProjectResult&) const = default;
};

struct CampaignResult {
  std::vector<ProjectResult> projects;
  /// Wall time of the timed executions, and how many there were: every
  /// execution after each project's first, which belongs to set-up.
  double seconds = 0.0;
  std::uint64_t timed_executions = 0;
  /// Summed telemetry counters of every project's fuzzer.
  std::uint64_t counters[telem::kCounterCount] = {};

  [[nodiscard]] std::uint64_t counter(telem::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t executions() const;
  [[nodiscard]] double execs_per_s() const;
  [[nodiscard]] std::size_t paths() const;
  [[nodiscard]] std::size_t edges() const;
  [[nodiscard]] std::size_t bugs() const;
  [[nodiscard]] std::size_t session_states() const;
  /// Sum over projects of the execution index of each one's last new bug.
  [[nodiscard]] std::uint64_t execs_to_all_bugs() const;
  /// Executions lost, retried or hung (telemetry oop counters).
  [[nodiscard]] std::uint64_t failed_executions() const;
};

struct EngineTrace;

/// Executor configuration for `project` on `backend`; `session` splits each
/// execution into the project's framed message sequence.
[[nodiscard]] fuzz::ExecutorConfig executor_config(const std::string& project,
                                                   fuzz::BackendKind backend,
                                                   bool session,
                                                   const Environment& env);

/// FuzzerConfig of `workload` on `project` executed through `backend`
/// (the workload's own or the in-process reference arm).
[[nodiscard]] fuzz::FuzzerConfig fuzzer_config(const Workload& workload,
                                               const std::string& project,
                                               fuzz::BackendKind backend,
                                               const Environment& env);

/// Runs the workload's projects through Fuzzer::step_fast on `backend`.
/// With a trace, every step is timed and the trace records what the
/// layer probes need (see layers.hpp).
CampaignResult run_stepped(const Workload& workload, fuzz::BackendKind backend,
                           const Environment& env, EngineTrace* trace);

/// Runs the workload's projects under CampaignSupervisor (one worker),
/// checkpointing into env.work_dir; checkpoint_path() names each image.
CampaignResult run_supervised(const Workload& workload, const Environment& env);

[[nodiscard]] std::string checkpoint_path(const Environment& env,
                                          const std::string& project);

/// One set-up of the workload: for every project, pit load, target
/// construction (fork-server spawn and handshake for out-of-process
/// backends) and the first execution — for a supervised workload, a
/// one-execution supervised campaign with its checkpoint. Returns seconds.
double setup_once(const Workload& workload, const Environment& env);

}  // namespace perfbench
