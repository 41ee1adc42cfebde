#include "layers.hpp"

#include <memory>

// Defines the counting global operator new/delete for this binary.
#include "bench/counting_allocator.hpp"
#include "fuzzer/cracker.hpp"
#include "fuzzer/dedup.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "parallel/parallel_campaign.hpp"
#include "pits/pits.hpp"
#include "protocols/target_registry.hpp"
#include "report.hpp"
#include "session/framing.hpp"
#include "session/sequencer.hpp"
#include "supervise/checkpoint.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::uint64_t allocation_count() {
  return bench_alloc::g_allocations.load(std::memory_order_relaxed);
}

void TimingTarget::reset() {
  const auto start = Clock::now();
  inner_.reset();
  ns_ += ns_since(start);
}

Bytes TimingTarget::process(ByteSpan packet) {
  Bytes response;
  process_into(packet, response);
  return response;
}

void TimingTarget::process_into(ByteSpan packet, Bytes& response) {
  if (samples_ != nullptr && calls_ % kSampleEvery == 0 &&
      samples_->size() < kSampleCap) {
    samples_->emplace_back(packet.begin(), packet.end());
  }
  ++calls_;
  const auto start = Clock::now();
  inner_.process_into(packet, response);
  ns_ += ns_since(start);
}

namespace {

constexpr int kGenerateCalls = 4096;
constexpr std::uint64_t kProbeSeedSalt = 0x5EED0F1A7E5ULL;
/// Sequencer streams per workload for the session probe (split across its
/// projects): enough that the p99 has more than ten samples beyond it.
constexpr std::size_t kSessionProbeStreams = 1200;

double per_call_ns(Clock::time_point start, std::uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(ns_since(start)) /
                          static_cast<double>(calls);
}

double us_since(Clock::time_point start) {
  return static_cast<double>(ns_since(start)) / 1e3;
}

double ms_since(Clock::time_point start) {
  return static_cast<double>(ns_since(start)) / 1e6;
}

}  // namespace

void probe_engine(const fuzz::Fuzzer& fuzzer, const model::DataModelSet& models,
                  const Workload& workload, const Environment& env,
                  EngineTrace& trace) {
  const fuzz::FuzzerConfig& config = fuzzer.config();
  Rng rng(env.seed ^ kProbeSeedSalt);
  Bytes out;

  const fuzz::ModelInstantiator instantiator(config.mutators);
  auto start = Clock::now();
  for (int i = 0; i < kGenerateCalls; ++i) {
    instantiator.generate_into(models.at(rng.index(models.size())), rng, out);
  }
  trace.instantiate_ns.push_back(per_call_ns(start, kGenerateCalls));

  if (!fuzzer.corpus().empty()) {
    const fuzz::SemanticGenerator semantic(config.semantic, config.mutators);
    start = Clock::now();
    for (int i = 0; i < kGenerateCalls; ++i) {
      semantic.generate_into(models.at(rng.index(models.size())),
                             fuzzer.corpus(), rng, out);
    }
    trace.semantic_gen_ns.push_back(per_call_ns(start, kGenerateCalls));
  }

  // Crack every retained valuable seed again, into a copy of the corpus
  // the campaign built.
  fuzz::PuzzleCorpus corpus = fuzzer.corpus();
  const fuzz::FileCracker cracker;
  start = Clock::now();
  for (const fuzz::RetainedSeed& seed : fuzzer.retained_seeds()) {
    (void)cracker.crack(models, seed.bytes, corpus, rng);
  }
  if (!fuzzer.retained_seeds().empty()) {
    trace.crack_ns.push_back(
        per_call_ns(start, fuzzer.retained_seeds().size()));
  }

  start = Clock::now();
  fuzz::FuzzerCheckpoint checkpoint = fuzzer.capture_checkpoint();
  trace.capture_ms.push_back(ms_since(start));

  // The executed-packet hashes the campaign deduplicated, older
  // generation first, into a fresh dedup of the campaign's capacity.
  std::vector<std::uint64_t> hashes = checkpoint.dedup_previous;
  hashes.insert(hashes.end(), checkpoint.dedup_current.begin(),
                checkpoint.dedup_current.end());
  fuzz::GenerationalDedup dedup(config.dedup_capacity);
  start = Clock::now();
  for (const std::uint64_t hash : hashes) (void)dedup.insert(hash);
  trace.dedup_insert_ns.push_back(per_call_ns(start, hashes.size()));
  trace.dedup_hashes += hashes.size();

  supervise::CampaignCheckpoint image;
  image.completed_iterations = checkpoint.executions;
  image.base_seed = env.seed;
  image.iterations_per_worker = workload.budget;
  image.sync_interval = par::ParallelCampaignConfig{}.sync_interval;
  image.workers.emplace_back();
  image.workers.back().fuzzer = std::move(checkpoint);

  start = Clock::now();
  const std::string text = supervise::serialize_checkpoint(image);
  trace.serialize_ms.push_back(ms_since(start));
  trace.checkpoint_bytes.push_back(static_cast<double>(text.size()));

  start = Clock::now();
  const auto error =
      supervise::save_checkpoint(image, env.work_dir + "/probe.ckpt");
  trace.save_ms.push_back(ms_since(start));
  if (error) trace.errors.push_back("save_checkpoint: " + *error);
}

namespace {

/// Observables an execution must reproduce on any transport.
bool same_execution(const fuzz::ExecResult& a, const fuzz::ExecResult& b) {
  return a.trace_hash == b.trace_hash && a.trace_edges == b.trace_edges &&
         a.faults.size() == b.faults.size() &&
         a.session_states == b.session_states &&
         a.session_messages == b.session_messages;
}

void replay_packets(const PacketSample& sample, const Environment& env,
                    TransportProfile& profile) {
  if (sample.packets.empty()) return;
  const auto factory = proto::target_factory(sample.project);
  const std::unique_ptr<ProtocolTarget> target = factory();
  TimingTarget timed(*target, nullptr);
  fuzz::Executor inproc(executor_config(
      sample.project, fuzz::BackendKind::kInProcess, false, env));
  std::vector<fuzz::ExecResult> reference(sample.packets.size());
  for (std::size_t i = 0; i < sample.packets.size(); ++i) {
    const auto start = Clock::now();
    inproc.run_into(timed, sample.packets[i], reference[i]);
    const std::uint64_t ns = ns_since(start);
    profile.inproc_us.push_back(static_cast<double>(ns) / 1e3);
    profile.replay_ns += ns;
  }
  profile.replay_target_ns += timed.ns();

  // The first execution spawns the fork server and shakes hands.
  const std::unique_ptr<ProtocolTarget> placeholder = factory();
  fuzz::Executor persistent(executor_config(
      sample.project, fuzz::BackendKind::kPersistent, false, env));
  fuzz::ExecResult result;
  for (std::size_t i = 0; i < sample.packets.size(); ++i) {
    const auto start = Clock::now();
    persistent.run_into(*placeholder, sample.packets[i], result);
    if (i == 0) {
      profile.spawn_ms.push_back(ms_since(start));
    } else {
      profile.persistent_us.push_back(us_since(start));
    }
    if (!same_execution(result, reference[i])) {
      profile.mismatches.push_back(sample.project + " persistent packet " +
                                   std::to_string(i));
    }
  }
}

void replay_sessions(const std::string& project, std::size_t count,
                     const Environment& env, TransportProfile& profile) {
  const model::DataModelSet models = pits::pit_for_project(project);
  const fuzz::ModelInstantiator instantiator;
  session::SequencerConfig config;
  config.enabled = true;
  config.framing = session::framing_for_project(project);
  config.project = project;
  session::SessionSequencer sequencer(config, models, instantiator);
  Rng rng(env.seed ^ kProbeSeedSalt);
  std::vector<Bytes> streams(count + 1);
  const auto generate_start = Clock::now();
  for (Bytes& stream : streams) sequencer.generate_into(rng, stream);
  profile.sequencer_ns += ns_since(generate_start);
  profile.sequencer_calls += streams.size();

  const auto factory = proto::target_factory(project);
  const std::unique_ptr<ProtocolTarget> target = factory();
  const std::unique_ptr<ProtocolTarget> placeholder = factory();
  fuzz::Executor inproc(
      executor_config(project, fuzz::BackendKind::kInProcess, true, env));
  fuzz::Executor tcp(
      executor_config(project, fuzz::BackendKind::kTcp, true, env));
  fuzz::ExecResult expected;
  fuzz::ExecResult result;
  // Stream 0 warms up both arms (server spawn, buffer capacities).
  inproc.run_into(*target, streams[0], expected);
  tcp.run_into(*placeholder, streams[0], result);
  for (std::size_t i = 1; i < streams.size(); ++i) {
    auto start = Clock::now();
    inproc.run_into(*target, streams[i], expected);
    profile.session_inproc_us.push_back(us_since(start));
    start = Clock::now();
    tcp.run_into(*placeholder, streams[i], result);
    profile.session_tcp_us.push_back(us_since(start));
    profile.session_messages += result.session_messages;
    if (!same_execution(result, expected)) {
      profile.mismatches.push_back(project + " tcp session " +
                                   std::to_string(i));
    }
  }
}

}  // namespace

TransportProfile probe_transport(const Workload& workload,
                                 const Environment& env,
                                 const EngineTrace& trace) {
  TransportProfile profile;
  for (const PacketSample& sample : trace.samples) {
    replay_packets(sample, env, profile);
  }
  const std::size_t per_project =
      kSessionProbeStreams / workload.projects.size();
  for (const std::string& project : workload.projects) {
    replay_sessions(project, per_project, env, profile);
  }
  return profile;
}

}  // namespace perfbench
