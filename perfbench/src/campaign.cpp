#include "campaign.hpp"

#include <filesystem>
#include <memory>

#include "layers.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "report.hpp"
#include "session/framing.hpp"
#include "supervise/supervisor.hpp"

namespace perfbench {

namespace {

// Budgets keep one campaign at a few seconds on a 4-core x86-64 box, so a
// run repeats it several times and reports medians.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"engine-inproc", pits::all_project_names(), 60000,
       fuzz::BackendKind::kInProcess, false, false, true},
      {"engine-checkpointed", pits::all_project_names(), 16384,
       fuzz::BackendKind::kInProcess, false, true, false},
      {"modbus-persistent", {"libmodbus"}, 40000,
       fuzz::BackendKind::kPersistent, false, false, false},
      {"iec104-session-tcp", {"IEC104"}, 3000, fuzz::BackendKind::kTcp, true,
       false, false},
  };
  return kWorkloads;
}

// Generous deadline: a scheduler stall on a busy machine must not turn a
// healthy execution into a hang and fork the trajectory.
constexpr int kExecTimeoutMs = 10000;

void add_counters(CampaignResult& into, const telem::Snapshot& snapshot) {
  for (std::size_t i = 0; i < telem::kCounterCount; ++i) {
    into.counters[i] += snapshot.counters[i];
  }
}

ProjectResult summarize(const std::string& project, std::uint64_t executions,
                        std::size_t paths, std::size_t edges,
                        std::size_t session_states,
                        const fuzz::CrashDb& crashes) {
  ProjectResult result;
  result.project = project;
  result.executions = executions;
  result.paths = paths;
  result.edges = edges;
  result.session_states = session_states;
  for (const fuzz::CrashRecord* record : crashes.records()) {
    if (record->kind == san::FaultKind::Hang) continue;
    ++result.bugs[record->kind];
    result.last_bug_execution =
        std::max(result.last_bug_execution, record->first_execution);
  }
  return result;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& workload : workloads()) {
    if (!names.empty()) names += ", ";
    names += workload.name;
  }
  return names;
}

std::size_t ProjectResult::bug_count() const {
  std::size_t count = 0;
  for (const auto& [kind, n] : bugs) count += n;
  return count;
}

std::uint64_t CampaignResult::executions() const {
  std::uint64_t total = 0;
  for (const ProjectResult& p : projects) total += p.executions;
  return total;
}

double CampaignResult::execs_per_s() const {
  return seconds > 0.0 ? static_cast<double>(timed_executions) / seconds
                       : 0.0;
}

std::size_t CampaignResult::paths() const {
  std::size_t total = 0;
  for (const ProjectResult& p : projects) total += p.paths;
  return total;
}

std::size_t CampaignResult::edges() const {
  std::size_t total = 0;
  for (const ProjectResult& p : projects) total += p.edges;
  return total;
}

std::size_t CampaignResult::bugs() const {
  std::size_t total = 0;
  for (const ProjectResult& p : projects) total += p.bug_count();
  return total;
}

std::size_t CampaignResult::session_states() const {
  std::size_t total = 0;
  for (const ProjectResult& p : projects) total += p.session_states;
  return total;
}

std::uint64_t CampaignResult::execs_to_all_bugs() const {
  std::uint64_t total = 0;
  for (const ProjectResult& p : projects) total += p.last_bug_execution;
  return total;
}

std::uint64_t CampaignResult::failed_executions() const {
  return counter(telem::Counter::kOopServerLost) +
         counter(telem::Counter::kOopRetries) +
         counter(telem::Counter::kOopHangs);
}

fuzz::ExecutorConfig executor_config(const std::string& project,
                                     fuzz::BackendKind backend, bool session,
                                     const Environment& env) {
  fuzz::ExecutorConfig config;
  config.backend.kind = backend;
  config.backend.exec_timeout_ms = kExecTimeoutMs;
  if (backend != fuzz::BackendKind::kInProcess) {
    config.backend.target_cmd = {env.shim, "--project", project};
    if (backend == fuzz::BackendKind::kTcp) {
      config.backend.target_cmd.push_back("--tcp");
    }
  }
  if (session) {
    config.backend.session.framing = session::framing_for_project(project);
  }
  return config;
}

fuzz::FuzzerConfig fuzzer_config(const Workload& workload,
                                 const std::string& project,
                                 fuzz::BackendKind backend,
                                 const Environment& env) {
  fuzz::FuzzerConfig config;
  config.rng_seed = env.seed;
  config.executor = executor_config(project, backend, workload.session, env);
  if (workload.session) {
    config.session.enabled = true;
    config.session.framing = session::framing_for_project(project);
    config.session.project = project;
  }
  return config;
}

CampaignResult run_stepped(const Workload& workload, fuzz::BackendKind backend,
                           const Environment& env, EngineTrace* trace) {
  CampaignResult campaign;
  for (const std::string& project : workload.projects) {
    telem::Telemetry hub;
    fuzz::FuzzerConfig config = fuzzer_config(workload, project, backend, env);
    config.telemetry = telem::Sink(&hub, 0);
    const model::DataModelSet models = pits::pit_for_project(project);
    const std::unique_ptr<ProtocolTarget> target =
        proto::target_factory(project)();
    std::unique_ptr<TimingTarget> timed;
    const bool probe = trace != nullptr && trace->record && !trace->probed;
    if (trace != nullptr && trace->record) {
      timed = std::make_unique<TimingTarget>(
          *target, probe ? trace->new_sample(project) : nullptr);
    }
    fuzz::Fuzzer fuzzer(timed ? *timed : *target, models, config);
    fuzzer.step_fast();  // set-up: lazy spawn and handshake happen here

    const std::uint64_t steps = workload.budget - 1;
    const auto start = Clock::now();
    if (trace != nullptr && trace->time_steps) {
      const std::uint64_t allocations_before = allocation_count();
      for (std::uint64_t i = 0; i < steps; ++i) {
        const auto step_start = Clock::now();
        fuzzer.step_fast();
        trace->iter_ns.push_back(static_cast<double>(ns_since(step_start)));
      }
      trace->allocations += allocation_count() - allocations_before;
      trace->timed_steps += steps;
    } else {
      for (std::uint64_t i = 0; i < steps; ++i) fuzzer.step_fast();
    }
    campaign.seconds += seconds_since(start);
    campaign.timed_executions += steps;

    campaign.projects.push_back(summarize(
        project, fuzzer.executor().executions(), fuzzer.path_count(),
        fuzzer.executor().edge_count(),
        fuzzer.executor().session_state_count(), fuzzer.crashes()));
    add_counters(campaign, hub.snapshot());
    if (timed) {
      trace->target_calls += timed->calls();
      trace->target_ns += timed->ns();
      if (probe) probe_engine(fuzzer, models, workload, env, *trace);
    }
  }
  if (trace != nullptr && trace->record) trace->probed = true;
  return campaign;
}

std::string checkpoint_path(const Environment& env,
                            const std::string& project) {
  return env.work_dir + "/" + project + ".ckpt";
}

namespace {

supervise::SupervisorResult supervise_project(const Workload& workload,
                                              const std::string& project,
                                              std::uint64_t budget,
                                              const std::string& path,
                                              const Environment& env,
                                              telem::Telemetry& hub) {
  const model::DataModelSet models = pits::pit_for_project(project);
  supervise::SupervisorConfig config;
  config.campaign.workers = 1;
  config.campaign.iterations_per_worker = budget;
  config.campaign.base_seed = env.seed;
  config.campaign.fuzzer =
      fuzzer_config(workload, project, fuzz::BackendKind::kInProcess, env);
  config.campaign.fuzzer.telemetry = telem::Sink(&hub, 0);
  config.checkpoint_path = path;
  config.resume = false;
  std::filesystem::remove(path);
  supervise::CampaignSupervisor supervisor(proto::target_factory(project),
                                           models, config);
  return supervisor.run();
}

}  // namespace

CampaignResult run_supervised(const Workload& workload,
                              const Environment& env) {
  CampaignResult campaign;
  for (const std::string& project : workload.projects) {
    telem::Telemetry hub;
    const auto start = Clock::now();
    const supervise::SupervisorResult result = supervise_project(
        workload, project, workload.budget, checkpoint_path(env, project), env,
        hub);
    campaign.seconds += seconds_since(start);
    // The supervisor's own set-up is inside run(); it is small against
    // the chunked campaign and charged to the rate, not to set-up.
    campaign.timed_executions += result.campaign.total_executions;
    campaign.projects.push_back(summarize(
        project, result.campaign.total_executions, result.campaign.global_paths,
        result.campaign.global_edges, 0, result.campaign.pooled_crashes));
    add_counters(campaign, hub.snapshot());
  }
  return campaign;
}

double setup_once(const Workload& workload, const Environment& env) {
  double seconds = 0.0;
  for (const std::string& project : workload.projects) {
    telem::Telemetry hub;
    if (workload.supervised) {
      const auto start = Clock::now();
      (void)supervise_project(workload, project, 1,
                              env.work_dir + "/setup.ckpt", env, hub);
      seconds += seconds_since(start);
      continue;
    }
    const auto start = Clock::now();
    fuzz::FuzzerConfig config =
        fuzzer_config(workload, project, workload.backend, env);
    config.telemetry = telem::Sink(&hub, 0);
    const model::DataModelSet models = pits::pit_for_project(project);
    const std::unique_ptr<ProtocolTarget> target =
        proto::target_factory(project)();
    fuzz::Fuzzer fuzzer(*target, models, config);
    fuzzer.step_fast();
    seconds += seconds_since(start);
  }
  return seconds;
}

}  // namespace perfbench
