// perfbench — fixed-seed Peach* campaign benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//
// Runs the workload's campaign for three repetitions (seeds derived from
// --seed), cycling through them until --seconds have passed and a cycle is
// complete, checks the outputs, and prints one JSON line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run alternates untraced and traced campaigns of the first repetition so
// that it can report its own overhead. See README.md for the workloads and
// metrics.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>

#include "campaign.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "supervise/checkpoint.hpp"
#include "util/strings.hpp"

namespace {

using namespace perfbench;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
};

constexpr std::uint64_t kMaxSeconds = 3600;
// Like the paper's figures, coverage is a mean over repetitions: campaigns
// of the same budget from seeds derived from --seed.
constexpr int kRepetitions = 3;
// A traced run needs this many untraced and traced campaigns each.
constexpr int kMinCampaigns = 2;
// Set-up is sampled before every campaign, so its samples spread over the
// run: at least one, then more until this much time or count is spent.
constexpr double kSetupSecondsPerCampaign = 0.1;
constexpr std::size_t kMaxSetupsPerCampaign = 25;

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = find_workload(value);
      if (options.workload == nullptr) {
        error = "unknown workload '" + std::string(value) + "' (one of " +
                workload_names() + ")";
        return false;
      }
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      const std::optional<std::uint64_t> number =
          icsfuzz::parse_u64(value, flag, &error);
      if (!number) return false;
      if (flag == "--seed") {
        options.seed = *number;
        seen_seed = true;
      } else if (flag == "--seconds") {
        if (*number == 0 || *number > kMaxSeconds) {
          error = "--seconds must be 1.." + std::to_string(kMaxSeconds);
          return false;
        }
        options.seconds = *number;
        seen_seconds = true;
      } else {
        if (*number > 1) {
          error = "--trace must be 0 or 1";
          return false;
        }
        options.trace = *number == 1;
        seen_trace = true;
      }
    } else {
      error = "unknown argument '" + flag + "'";
      return false;
    }
  }
  if (options.workload == nullptr || !seen_seed || !seen_seconds ||
      !seen_trace) {
    error = "--workload, --seed, --seconds and --trace are all required";
    return false;
  }
  return true;
}

/// Seed of repetition `r`; repetition 0 runs on --seed itself.
std::uint64_t repetition_seed(std::uint64_t seed, int r) {
  return seed ^ (static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL);
}

/// Table I of the paper: the memory faults Peach* finds per project.
std::map<san::FaultKind, std::size_t> table1_bugs(const std::string& project) {
  using san::FaultKind;
  if (project == "libmodbus") {
    return {{FaultKind::HeapUseAfterFree, 1}, {FaultKind::Segv, 1}};
  }
  if (project == "lib60870") return {{FaultKind::Segv, 3}};
  if (project == "libiec_iccp_mod") {
    return {{FaultKind::Segv, 3}, {FaultKind::HeapBufferOverflow, 1}};
  }
  return {};
}

/// The supervisor's last image per project loads back and holds the same
/// paths and bugs as the unsupervised reference campaign.
void check_checkpoints(const Workload& workload, const Environment& env,
                       const CampaignResult& reference, Report& report) {
  for (const ProjectResult& expected : reference.projects) {
    const std::optional<supervise::CampaignCheckpoint> image =
        supervise::load_checkpoint(checkpoint_path(env, expected.project));
    report.check(image.has_value(),
                 expected.project + ": last checkpoint loads back");
    if (!image) continue;
    report.check(image->completed_iterations == workload.budget &&
                     image->workers.size() == 1,
                 expected.project + ": checkpoint covers the whole budget");
    if (image->workers.size() != 1) continue;
    const fuzz::FuzzerCheckpoint& fuzzer = image->workers[0].fuzzer;
    std::size_t bugs = 0;
    for (const fuzz::CrashRecord& crash : fuzzer.crashes) {
      if (crash.kind != san::FaultKind::Hang) ++bugs;
    }
    report.check(fuzzer.path_hashes.size() == expected.paths &&
                     bugs == expected.bug_count(),
                 expected.project +
                     ": checkpoint paths/bugs equal the unsupervised run");
  }
}

double traced_overhead_pct(const std::vector<double>& untraced,
                           const std::vector<double>& traced) {
  const double base = median(untraced);
  return base > 0.0 ? (base - median(traced)) / base * 100.0 : 0.0;
}

void per_layer_metrics(const CampaignResult& campaign,
                       const EngineTrace& steps, const EngineTrace& engine,
                       const TransportProfile& transport,
                       const std::vector<double>& untraced_rates,
                       const std::vector<double>& traced_rates,
                       Report& report) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto count = [&](telem::Counter c) {
    return static_cast<double>(campaign.counter(c));
  };

  report.metric("fuzzer.iter_p50_ns", percentile(steps.iter_ns, 0.50), "ns");
  report.metric("fuzzer.iter_p99_ns", percentile(steps.iter_ns, 0.99), "ns");
  report.metric("fuzzer.allocs_per_exec",
                ratio(static_cast<double>(steps.allocations),
                      static_cast<double>(steps.timed_steps)),
                "count");
  report.metric("protocols.target_ns",
                ratio(static_cast<double>(engine.target_ns),
                      static_cast<double>(engine.target_calls)),
                "ns");
  report.metric("coverage.analyze_ns",
                ratio(static_cast<double>(transport.replay_ns) -
                          static_cast<double>(transport.replay_target_ns),
                      static_cast<double>(transport.inproc_us.size())),
                "ns");
  report.metric("model.instantiate_ns", mean(engine.instantiate_ns), "ns");
  report.metric("fuzzer.semantic_gen_ns", mean(engine.semantic_gen_ns), "ns");
  report.metric("fuzzer.crack_ns", mean(engine.crack_ns), "ns");
  report.metric("fuzzer.dedup_insert_ns", mean(engine.dedup_insert_ns), "ns");
  report.metric("fuzzer.dedup_hashes",
                static_cast<double>(engine.dedup_hashes), "count");
  report.metric("fuzzer.valuable_pct",
                100.0 * ratio(count(telem::Counter::kNewCoverageSeeds),
                              count(telem::Counter::kExecutions)),
                "%");
  report.metric("fuzzer.crack_calls", count(telem::Counter::kCrackRuns),
                "count");
  report.metric("fuzzer.batch_seeds", count(telem::Counter::kBatchSeeds),
                "count");
  report.metric("fuzzer.bugs", static_cast<double>(campaign.bugs()), "count");
  report.metric("fuzzer.execs_to_all_bugs",
                static_cast<double>(campaign.execs_to_all_bugs()), "count");

  const double persistent_p50 = percentile(transport.persistent_us, 0.50);
  report.metric("exec_oop.run_p50_us", persistent_p50, "us");
  report.metric("exec_oop.run_p99_us",
                percentile(transport.persistent_us, 0.99), "us");
  report.metric("exec_oop.transport_us",
                persistent_p50 - percentile(transport.inproc_us, 0.50), "us");
  report.metric("exec_oop.spawn_ms", median(transport.spawn_ms), "ms");
  report.metric("exec_oop.recycles", count(telem::Counter::kOopChildRecycles),
                "count");
  report.metric("exec_oop.restarts", count(telem::Counter::kOopRestarts),
                "count");
  report.metric("exec_oop.retries", count(telem::Counter::kOopRetries),
                "count");
  report.metric("exec_oop.hangs", count(telem::Counter::kOopHangs), "count");
  report.metric("exec_oop.fail_pct",
                100.0 * ratio(static_cast<double>(report.failed()),
                              static_cast<double>(report.attempted())),
                "%");

  const double tcp_p50 = percentile(transport.session_tcp_us, 0.50);
  double tcp_total_us = 0.0;
  for (const double us : transport.session_tcp_us) tcp_total_us += us;
  report.metric("session.run_p50_us", tcp_p50, "us");
  report.metric("session.run_p99_us",
                percentile(transport.session_tcp_us, 0.99), "us");
  report.metric("session.message_us",
                ratio(tcp_total_us,
                      static_cast<double>(transport.session_messages)),
                "us");
  report.metric("session.transport_us",
                tcp_p50 - percentile(transport.session_inproc_us, 0.50), "us");
  report.metric("session.sequencer_ns",
                ratio(static_cast<double>(transport.sequencer_ns),
                      static_cast<double>(transport.sequencer_calls)),
                "ns");
  report.metric("session.messages_per_exec",
                ratio(static_cast<double>(transport.session_messages),
                      static_cast<double>(transport.session_tcp_us.size())),
                "count");
  report.metric("session.states",
                static_cast<double>(campaign.session_states()), "count");

  report.metric("supervise.capture_ms", mean(engine.capture_ms), "ms");
  report.metric("supervise.serialize_ms", mean(engine.serialize_ms), "ms");
  report.metric("supervise.save_ms", mean(engine.save_ms), "ms");
  report.metric("supervise.checkpoint_bytes", mean(engine.checkpoint_bytes),
                "bytes");
  report.metric("supervise.checkpoints",
                count(telem::Counter::kCheckpointsSaved), "count");

  report.metric("fuzzer.trace_overhead_pct",
                traced_overhead_pct(untraced_rates, traced_rates), "%");
}

/// Checks a repetition's first campaign: whole budget, coverage, Table I,
/// and — for the supervised, out-of-process and over-TCP workloads — that
/// it equals the same-seed in-process step_fast campaign (recorded into
/// `reference_trace` when given) and, when supervised, that the last
/// checkpoint images load back with the same paths and bugs.
void check_campaign(const Workload& workload, const Environment& env,
                    const CampaignResult& campaign,
                    EngineTrace* reference_trace, Report& report) {
  for (const ProjectResult& project : campaign.projects) {
    report.check(project.executions == workload.budget,
                 project.project + ": ran the whole budget");
    if (workload.table1) {
      report.check(project.bugs == table1_bugs(project.project),
                   project.project + ": memory faults match Table I");
    }
  }
  report.check(campaign.paths() > 0 && campaign.edges() > 0,
               "the campaign covers paths and edges");
  if (!workload.supervised &&
      workload.backend == fuzz::BackendKind::kInProcess) {
    return;
  }
  const CampaignResult reference = run_stepped(
      workload, fuzz::BackendKind::kInProcess, env, reference_trace);
  report.check(reference.projects == campaign.projects,
               "paths/edges/bugs/session states equal the same-seed "
               "in-process step_fast campaign");
  if (workload.supervised) check_checkpoints(workload, env, reference, report);
}

Report run(const Workload& workload, const Environment& env,
           std::uint64_t seconds, bool traced) {
  Report report;
  std::vector<double> setups;

  // Campaigns on the workload's own backend, cycling through the
  // repetitions; every later campaign of a repetition must reproduce its
  // first. A traced run alternates untraced and traced campaigns of
  // repetition 0. The supervisor cannot be traced from outside, so a
  // supervised workload takes its spans from the in-process reference.
  const bool stepped = !workload.supervised;
  const bool in_process = workload.backend == fuzz::BackendKind::kInProcess;
  EngineTrace trace;
  trace.time_steps = stepped;
  trace.record = stepped && in_process;
  EngineTrace reference_trace;
  reference_trace.time_steps = !stepped;
  reference_trace.record = true;
  const int repetitions = traced ? 1 : kRepetitions;
  std::vector<std::optional<CampaignResult>> firsts(repetitions);
  std::vector<double> rates;
  std::vector<double> traced_rates;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const int repetition = i % repetitions;
    Environment repetition_env = env;
    repetition_env.seed = repetition_seed(env.seed, repetition);

    const auto setup_start = Clock::now();
    for (std::size_t n = 0; n < kMaxSetupsPerCampaign; ++n) {
      setups.push_back(setup_once(workload, repetition_env));
      if (seconds_since(setup_start) >= kSetupSecondsPerCampaign) break;
    }
    const bool traced_campaign = traced && i % 2 == 1;
    CampaignResult campaign =
        workload.supervised
            ? run_supervised(workload, repetition_env)
            : run_stepped(workload, workload.backend, repetition_env,
                          traced_campaign ? &trace : nullptr);
    (traced_campaign ? traced_rates : rates).push_back(campaign.execs_per_s());
    std::fprintf(stderr, "perfbench: %s repetition %d%s: %.0f execs/s\n",
                 workload.name.c_str(), repetition,
                 traced_campaign ? " (traced)" : "", campaign.execs_per_s());
    report.add_attempted(campaign.executions());
    report.add_failed(campaign.failed_executions());
    std::optional<CampaignResult>& first = firsts[repetition];
    if (!first) {
      check_campaign(workload, repetition_env, campaign,
                     traced ? &reference_trace : nullptr, report);
      first = std::move(campaign);
    } else {
      report.check(campaign.projects == first->projects,
                   "repetition " + std::to_string(repetition) +
                       " reproduces its first campaign");
    }
    // Stop on a whole cycle, so every repetition (or both halves of a
    // traced pair) weighs the same in the medians.
    const int cycle = traced ? 2 : kRepetitions;
    const int needed = traced ? 2 * kMinCampaigns : kRepetitions;
    if ((i + 1) % cycle == 0 && i + 1 >= needed &&
        seconds_since(start) >= static_cast<double>(seconds)) {
      break;
    }
  }

  if (!traced) {
    double paths = 0.0;
    double edges = 0.0;
    for (const std::optional<CampaignResult>& first : firsts) {
      paths += static_cast<double>(first->paths()) / repetitions;
      edges += static_cast<double>(first->edges()) / repetitions;
    }
    report.metric("execs_per_s", median(rates), "1/s");
    report.metric("setup_s", median(setups), "s");
    report.metric("paths", paths, "count");
    report.metric("edges", edges, "count");
    const double rss = peak_rss_mb();
    report.check(rss > 0.0, "peak RSS is readable from /proc/self/status");
    report.metric("peak_rss_mb", rss, "MiB");
    return report;
  }

  const EngineTrace& steps = stepped ? trace : reference_trace;
  const EngineTrace& engine = trace.record ? trace : reference_trace;
  const TransportProfile transport = probe_transport(workload, env, engine);
  for (const std::string& error : engine.errors) report.check(false, error);
  for (const std::string& mismatch : transport.mismatches) {
    report.check(false, "transport differential: " + mismatch);
  }
  per_layer_metrics(*firsts[0], steps, engine, transport, rates, traced_rates,
                    report);
  return report;
}

/// Restricts this process to the CPU it runs on; the fork servers it
/// spawns inherit the mask. On a virtual machine, a fuzzer and a server
/// ping-ponging across two vCPUs pay a host wake-up per exchange, which
/// made the out-of-process rates several times slower and noisier than the
/// transport itself.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: warning: could not pin to one CPU\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <n> --trace <0|1>\n",
                 error.c_str());
    return 2;
  }
  pin_to_current_cpu();
  Environment env;
  env.seed = options.seed;
  env.shim = PERFBENCH_SHIM_PATH;
  env.work_dir = std::string(PERFBENCH_WORK_DIR) + "/" +
                 options.workload->name + "-" + std::to_string(getpid());
  try {
    std::filesystem::create_directories(env.work_dir);
    const Report report =
        run(*options.workload, env, options.seconds, options.trace);
    std::filesystem::remove_all(env.work_dir);
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(env.work_dir);
    return 1;
  }
}
