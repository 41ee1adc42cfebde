// icsfuzz-triage — CLI front end of the on-disk crash-triage store.
//
//   # fold a session's crash db into a store, re-verifying every reproducer
//   icsfuzz-triage ingest STORE --crashes SESSION/crashes.jsonl
//       --project libmodbus [--minimize] [--no-verify]   (one command)
//
//   # inspect the store
//   icsfuzz-triage list STORE
//   icsfuzz-triage show STORE BUCKET
//
//   # replay / shrink one bucket's reproducer against a live target
//   icsfuzz-triage repro STORE BUCKET --project libmodbus
//   icsfuzz-triage minimize STORE BUCKET --project libmodbus
//
// Every mode prints one JSON document to stdout; repro/ingest exit nonzero
// when a reproducer fails to reproduce, so the tool slots into CI gates.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fuzzer/persistence.hpp"
#include "protocols/target_registry.hpp"
#include "supervise/triage_store.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace icsfuzz;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> <store-dir> [args] [options]\n"
      "  commands:\n"
      "    ingest STORE --crashes FILE --project P  fold a crashes.jsonl\n"
      "        into the store (re-verifies each reproducer; --no-verify\n"
      "        skips, --minimize tmin-shrinks verified reproducers)\n"
      "    list STORE                 all buckets, first-seen order\n"
      "    show STORE BUCKET          one bucket's full record\n"
      "    repro STORE BUCKET --project P     replay the reproducer\n"
      "    minimize STORE BUCKET --project P  replay + tmin-shrink\n"
      "  options:\n"
      "    --limit N          list/ingest: stop after N buckets/records\n"
      "  projects: libmodbus IEC104 libiec61850 lib60870 libiec_iccp_mod"
      " opendnp3\n",
      argv0);
  return 2;
}

void print_record(const supervise::TriageRecord& record,
                  const char* indent, const char* trailing) {
  std::printf(
      "%s{\"bucket\": \"%s\", \"kind\": \"%s\", \"site\": \"%08x\", "
      "\"trace_hash\": \"%016llx\", \"hits\": %llu, "
      "\"first_execution\": %llu, \"ingests\": %llu, \"verified\": %s, "
      "\"minimized\": %s, \"bytes\": %zu, \"original_bytes\": %zu, "
      "\"detail\": \"%s\"}%s\n",
      indent, record.bucket.c_str(), san::to_slug(record.kind).c_str(),
      record.site, static_cast<unsigned long long>(record.trace_hash),
      static_cast<unsigned long long>(record.hits),
      static_cast<unsigned long long>(record.first_execution),
      static_cast<unsigned long long>(record.ingests),
      record.verified ? "true" : "false",
      record.minimized ? "true" : "false", record.reproducer_bytes,
      record.original_bytes, json_escape(record.detail).c_str(), trailing);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string command = argv[1];
  const std::string store_dir = argv[2];

  std::string bucket;
  std::string crashes_path;
  std::string project;
  std::size_t limit = SIZE_MAX;
  bool minimize = false;
  bool verify = true;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--crashes") {
      if (const char* v = next()) crashes_path = v;
    } else if (arg == "--project") {
      if (const char* v = next()) project = v;
    } else if (arg == "--limit") {
      const char* v = next();
      std::string error;
      const auto parsed =
          v ? parse_u64(v, "--limit", &error) : std::nullopt;
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--limit: expected a positive count"
                                   : error.c_str());
        return usage(argv[0]);
      }
      limit = static_cast<std::size_t>(*parsed);
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg[0] != '-' && bucket.empty()) {
      bucket = arg;
    } else {
      return usage(argv[0]);
    }
  }

  supervise::TriageStore store(store_dir);
  if (!store.open()) {
    std::fprintf(stderr, "cannot open store: %s\n", store.error().c_str());
    return 1;
  }

  if (command == "list") {
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"list\", "
                "\"store\": \"%s\",\n  \"buckets\": [\n",
                json_escape(store_dir).c_str());
    const std::vector<supervise::TriageRecord>& records = store.records();
    const std::size_t shown = records.size() < limit ? records.size() : limit;
    for (std::size_t i = 0; i < shown; ++i) {
      print_record(records[i], "    ", i + 1 < shown ? "," : "");
    }
    std::printf("  ],\n  \"shown\": %zu, \"total\": %zu\n}\n", shown,
                records.size());
    return 0;
  }

  if (command == "show") {
    if (bucket.empty()) return usage(argv[0]);
    const supervise::TriageRecord* record = store.find(bucket);
    if (record == nullptr) {
      std::fprintf(stderr, "no bucket '%s'\n", bucket.c_str());
      return 1;
    }
    print_record(*record, "", "");
    return 0;
  }

  if (command == "ingest") {
    if (crashes_path.empty()) return usage(argv[0]);
    fuzz::TargetFactory factory;
    if (verify || minimize) {
      factory = proto::target_factory(project);
      if (!factory) {
        std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
        return usage(argv[0]);
      }
    }
    fuzz::CrashDb db;
    const std::size_t loaded = fuzz::load_crash_db(crashes_path, db);
    std::size_t fresh = 0;
    std::size_t failed = 0;
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"ingest\", "
                "\"store\": \"%s\",\n  \"ingested\": [\n",
                json_escape(store_dir).c_str());
    const std::vector<const fuzz::CrashRecord*> records = db.records();
    const std::size_t taken = records.size() < limit ? records.size() : limit;
    for (std::size_t i = 0; i < taken; ++i) {
      const auto target = factory ? factory() : nullptr;
      const supervise::TriageStore::IngestOutcome outcome =
          store.ingest(*records[i], target.get(), minimize);
      fresh += outcome.is_new;
      failed += outcome.verify_failed;
      std::printf("    {\"bucket\": \"%s\", \"new\": %s, \"reproduced\": "
                  "%s, \"minimized\": %s}%s\n",
                  outcome.bucket.c_str(), outcome.is_new ? "true" : "false",
                  outcome.reproduced ? "true" : "false",
                  outcome.minimized ? "true" : "false",
                  i + 1 < taken ? "," : "");
    }
    std::printf("  ],\n  \"loaded\": %zu, \"new_buckets\": %zu, "
                "\"verify_failed\": %zu\n}\n",
                loaded, fresh, failed);
    return failed == 0 ? 0 : 1;
  }

  if (command == "repro" || command == "minimize") {
    if (bucket.empty()) return usage(argv[0]);
    const fuzz::TargetFactory factory = proto::target_factory(project);
    if (!factory) {
      std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
      return usage(argv[0]);
    }
    const auto target = factory();
    const auto outcome = store.reverify(bucket, *target,
                                        command == "minimize" || minimize);
    if (!outcome) {
      std::fprintf(stderr, "no bucket or reproducer for '%s'\n",
                   bucket.c_str());
      return 1;
    }
    const supervise::TriageRecord* record = store.find(bucket);
    std::printf("{\n  \"tool\": \"icsfuzz-triage\", \"mode\": \"%s\",\n  ",
                command.c_str());
    print_record(*record, "", ",");
    std::printf("  \"reproduced\": %s, \"minimized\": %s\n}\n",
                outcome->reproduced ? "true" : "false",
                outcome->minimized ? "true" : "false");
    return outcome->reproduced ? 0 : 1;
  }

  return usage(argv[0]);
}
