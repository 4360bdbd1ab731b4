// maya_serve: stdio front-end for the Maya prediction service.
//
// Reads newline-delimited JSON requests from stdin, writes one JSON response
// line per request to stdout (in submission order), and serves them from a
// single warm ServiceEngine hosting a registry of deployments. On startup
// the engine either loads a persistent artifact bundle (--artifacts=DIR,
// when present) — skipping estimator training and warm-starting the estimate
// caches of every bundled deployment — or trains estimators from profiling
// sweeps (one bank per requested deployment) and, with --save_artifacts,
// persists the whole fleet as a v2 bundle on exit so the next start is warm.
//
// Usage:
//   maya_serve [--cluster=h100x8] [--deployments=v100x8,a40] [--workers=4]
//              [--queue_weight=64] [--search_weight=16]
//              [--execution_threads=0] [--artifacts=DIR] [--save_artifacts]
//              [--sweep=full|small|tiny] [--no_sim_cache]
//              [--fault_spec=SPEC] [--fault_seed=N]
//              [--trace_out=DIR] [--metrics_out=FILE] [--slow_trace_ms=N]
//              [--listen=HOST:PORT] [--state_dir=DIR] [--checkpoint_every=N]
//
// --state_dir=DIR arms crash-consistent fleet durability (see
// src/service/fleet_journal.h): every acknowledged add/remove_deployment is
// appended to an fsync'd journal before its response resolves, and the fleet
// is periodically checkpointed into an atomic v2 bundle under DIR (every
// --checkpoint_every journaled mutations, plus once at graceful exit). On
// startup the server loads the latest checkpoint, replays the journal tail
// through the normal admin path, and serves the exact pre-crash fleet — a
// kill -9 at any point loses at most the mutations whose responses were
// never sent, and warm predicts answer bit-identically to the dead server.
//
// --listen=HOST:PORT serves the same NDJSON protocol over TCP instead of
// stdio: an epoll event loop multiplexes many concurrent connections into
// the one engine (see src/net/tcp_server.h), each with ordered responses and
// bounded per-connection write buffers (slow readers are shed, not waited
// on). PORT 0 binds an ephemeral port; the actual endpoint is announced on
// stderr as "maya_serve: listening on HOST:PORT". SIGTERM drains: stops
// accepting, answers in-flight requests, flushes, then exits. Responses are
// byte-identical to stdio serving — the transports share codec and engine.
//
// --no_sim_cache disables the cross-trial simulation cache (stage 4 replays
// every job fresh; output-preserving either way).
//
// --trace_out=DIR enables span tracing: every request records queue-wait and
// per-stage spans, "dump_trace" requests write Chrome trace-event JSON files
// (openable in Perfetto / chrome://tracing) under DIR, and — with
// --slow_trace_ms=N — any request slower than N ms automatically writes its
// span tree to DIR/slow_trace_<id>.json. --slow_trace_ms without --trace_out
// still arms span recording and slow-request counting; the traces are only
// reachable via "dump_trace" (returned inline).
//
// --metrics_out=FILE writes the metrics registry + service counters in
// Prometheus text exposition format: refreshed after every "metrics" request
// and once more at shutdown after the final drain.
//
// --fault_spec arms deterministic fault injection (testing only): a comma-
// separated list of site=probability[@max_fires] clauses, sites matching
// the names in src/common/fault_injection.h ("pipeline.*", "artifact.*",
// "service.submit", "service.worker"; trailing '*' wildcards allowed).
// Seeded by --fault_seed: same spec + seed + request order = same faults.
//
// SIGTERM (and EOF / a "shutdown" line) triggers a graceful drain: no new
// requests admitted, in-flight requests finish and answer, artifacts flush
// (--save_artifacts), then the process exits.
//
// --cluster is the default deployment; --deployments registers additional
// per-arch banks (each trains its own estimators on a cold start), enabling
// cross-arch what-ifs: a predict carrying "deployment":"v100x16" answers
// from the v100 bank even when the default deployment is H100.
//
// Protocol examples (one line each; see src/service/protocol.h):
//   {"id":1,"kind":"predict","model":{"name":"gpt3-2.7b","family":"Gpt",
//    "num_layers":32,"hidden_size":2560,"num_heads":32,"vocab_size":51200,
//    "seq_length":2048},"config":{"global_batch_size":256,"tensor_parallel":2,
//    "pipeline_parallel":2,"microbatch_multiplier":2}}
//   {"id":2,"kind":"stats"}
// EOF (or a line "shutdown") stops the server.
#include <unistd.h>

#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/telemetry.h"
#include "src/core/estimator_bank.h"
#include "src/core/execution_context.h"
#include "src/net/tcp_server.h"
#include "src/service/artifact_store.h"
#include "src/service/fleet_journal.h"
#include "src/service/metrics_exporter.h"
#include "src/service/protocol.h"
#include "src/service/service_engine.h"

namespace {

struct ServeFlags {
  std::string cluster = "h100x8";
  std::string deployments;  // comma-separated extra deployment cluster names
  int workers = 4;
  double queue_weight = 64.0;
  double search_weight = 16.0;
  int execution_threads = 0;
  std::string artifacts;
  bool save_artifacts = false;
  std::string sweep = "small";
  bool sim_cache = true;
  std::string fault_spec;
  uint64_t fault_seed = 1;
  std::string trace_out;
  std::string metrics_out;
  double slow_trace_ms = 0.0;
  std::string listen;     // HOST:PORT; empty = stdio serving
  std::string state_dir;  // durable fleet state; empty = no journal
  uint64_t checkpoint_every = 4;
};

// SIGTERM → graceful drain. The handler only sets a flag; it is installed
// WITHOUT SA_RESTART so the blocking getline on stdin fails with EINTR and
// the read loop falls through to the drain path.
volatile std::sig_atomic_t g_sigterm = 0;
void HandleSigterm(int) { g_sigterm = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t end = list.find(',', begin);
    const std::string item =
        list.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!item.empty()) {
      items.push_back(item);
    }
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maya;

  ServeFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--cluster", &flags.cluster)) {
    } else if (ParseFlag(argv[i], "--deployments", &flags.deployments)) {
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      flags.workers = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--queue_weight", &value) ||
               ParseFlag(argv[i], "--queue", &value)) {
      flags.queue_weight = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--search_weight", &value)) {
      flags.search_weight = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--execution_threads", &value)) {
      flags.execution_threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--artifacts", &flags.artifacts)) {
    } else if (std::strcmp(argv[i], "--save_artifacts") == 0) {
      flags.save_artifacts = true;
    } else if (std::strcmp(argv[i], "--no_sim_cache") == 0) {
      flags.sim_cache = false;
    } else if (ParseFlag(argv[i], "--sweep", &flags.sweep)) {
    } else if (ParseFlag(argv[i], "--fault_spec", &flags.fault_spec)) {
    } else if (ParseFlag(argv[i], "--fault_seed", &value)) {
      flags.fault_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--trace_out", &flags.trace_out)) {
    } else if (ParseFlag(argv[i], "--metrics_out", &flags.metrics_out)) {
    } else if (ParseFlag(argv[i], "--slow_trace_ms", &value)) {
      flags.slow_trace_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--listen", &flags.listen)) {
    } else if (ParseFlag(argv[i], "--state_dir", &flags.state_dir)) {
    } else if (ParseFlag(argv[i], "--checkpoint_every", &value)) {
      flags.checkpoint_every = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  Result<ClusterSpec> cluster = ClusterSpecByName(flags.cluster);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 2;
  }
  // The same presets back the add_deployment protocol kind (see
  // ProfileSweepPreset), so the flag and the wire accept the same names.
  Result<ProfileSweepOptions> sweep = ProfileSweepPreset(flags.sweep);
  if (!sweep.ok()) {
    std::fprintf(stderr, "--sweep: %s\n", sweep.status().ToString().c_str());
    return 2;
  }
  std::string listen_host;
  int listen_port = -1;
  if (!flags.listen.empty()) {
    const size_t colon = flags.listen.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == flags.listen.size()) {
      std::fprintf(stderr, "--listen expects HOST:PORT, got '%s'\n", flags.listen.c_str());
      return 2;
    }
    listen_host = flags.listen.substr(0, colon);
    listen_port = std::atoi(flags.listen.c_str() + colon + 1);
  }
  if (!flags.fault_spec.empty()) {
    const Status armed = FaultInjection::Instance().Configure(flags.fault_spec, flags.fault_seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "--fault_spec: %s\n", armed.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "maya_serve: fault injection armed (%s, seed %llu)\n",
                 flags.fault_spec.c_str(), static_cast<unsigned long long>(flags.fault_seed));
  }
  if (flags.save_artifacts && flags.artifacts.empty()) {
    std::fprintf(stderr, "--save_artifacts requires --artifacts=DIR\n");
    return 2;  // fail before paying minutes of training for a save that can't happen
  }
  if (!flags.trace_out.empty() || flags.slow_trace_ms > 0.0) {
    Telemetry::Options telemetry;
    telemetry.tracing = !flags.trace_out.empty();
    telemetry.slow_request_threshold_ms = flags.slow_trace_ms;
    Telemetry::Instance().Configure(telemetry);
    if (!flags.trace_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(flags.trace_out, ec);
      if (ec) {
        std::fprintf(stderr, "--trace_out: cannot create %s: %s\n", flags.trace_out.c_str(),
                     ec.message().c_str());
        return 2;
      }
      if (flags.slow_trace_ms > 0.0) {
        const std::string trace_dir = flags.trace_out;
        Telemetry::Instance().SetTraceSink(
            [trace_dir](uint64_t trace_id, const std::string& trace_json) {
              const std::string path = trace_dir + "/slow_trace_" +
                                       std::to_string(trace_id) + ".json";
              if (const Status written = WriteTextFile(path, trace_json); !written.ok()) {
                std::fprintf(stderr, "maya_serve: slow-trace write failed: %s\n",
                             written.ToString().c_str());
              }
            });
      }
      std::fprintf(stderr, "maya_serve: tracing spans to %s%s\n", flags.trace_out.c_str(),
                   flags.slow_trace_ms > 0.0 ? " (slow requests auto-dump)" : "");
    }
  }
  const std::vector<std::string> extra_deployments = SplitCommaList(flags.deployments);
  for (const std::string& name : extra_deployments) {
    if (Result<ClusterSpec> spec = ClusterSpecByName(name); !spec.ok()) {
      std::fprintf(stderr, "--deployments: %s\n", spec.status().ToString().c_str());
      return 2;
    }
  }

  ServiceEngineOptions options;
  options.worker_threads = flags.workers;
  options.max_queue_weight = flags.queue_weight;
  options.weights.search = flags.search_weight;
  // One shared pool drives stage 1 (emulation), stage 2 (the collator's
  // fingerprint pass) and stage 3 (estimation) of every deployment's pipeline.
  options.pipeline.context = ExecutionContext::Create(flags.execution_threads);
  options.pipeline.enable_sim_cache = flags.sim_cache;
  options.trace_dir = flags.trace_out;

  // Durable fleet state: open (and repair) the journal BEFORE building the
  // engine, because its checkpoint is the preferred warm-start source.
  std::unique_ptr<FleetJournal> journal;
  if (!flags.state_dir.empty()) {
    FleetJournalOptions journal_options;
    journal_options.checkpoint_every = std::max<uint64_t>(1, flags.checkpoint_every);
    journal = std::make_unique<FleetJournal>(flags.state_dir, journal_options);
    if (const Status opened = journal->Open(); !opened.ok()) {
      std::fprintf(stderr, "--state_dir: %s\n", opened.ToString().c_str());
      return 2;
    }
    const FleetRecoveryPlan& plan = journal->plan();
    std::fprintf(stderr,
                 "maya_serve: state dir %s (%s, %zu journal record(s) to replay%s)\n",
                 flags.state_dir.c_str(),
                 plan.has_checkpoint ? plan.checkpoint_dir.c_str() : "no checkpoint",
                 plan.replay.size(),
                 plan.torn_records_dropped > 0 ? ", torn tail repaired" : "");
  }

  std::unique_ptr<ServiceEngine> engine;
  ArtifactStore store(flags.artifacts.empty() ? "." : flags.artifacts);
  if (journal != nullptr && journal->plan().has_checkpoint) {
    // Checkpoint warm start: the bundle snapshots the fleet as of the
    // checkpointed journal seq; the tail replay below brings it current.
    const ArtifactStore checkpoint(journal->plan().checkpoint_dir);
    Result<std::unique_ptr<ServiceEngine>> loaded =
        ServiceEngine::FromArtifacts(*cluster, checkpoint, options);
    if (loaded.ok()) {
      engine = *std::move(loaded);
      std::fprintf(stderr, "maya_serve: restored %zu deployment(s) from checkpoint\n",
                   engine->registry().Registered().size());
    } else {
      // Externally damaged checkpoint: degrade to cold start + tail replay
      // (mutations compacted into the checkpoint cannot be recovered, but
      // the server still comes up) rather than refusing to serve.
      std::fprintf(stderr, "maya_serve: checkpoint unusable (%s); cold start + replay\n",
                   loaded.status().ToString().c_str());
    }
  }
  if (engine == nullptr && !flags.artifacts.empty() && store.Exists()) {
    Result<std::unique_ptr<ServiceEngine>> loaded =
        ServiceEngine::FromArtifacts(*cluster, store, options);
    if (loaded.ok()) {
      engine = *std::move(loaded);
      std::fprintf(
          stderr, "maya_serve: warm start from %s (%zu deployments, %llu cached estimates)\n",
          flags.artifacts.c_str(), engine->registry().Registered().size(),
          static_cast<unsigned long long>(engine->pipeline().KernelCacheStats().entries +
                                          engine->pipeline().CollectiveCacheStats().entries));
    } else {
      // A corrupt/incompatible bundle degrades to a cold start instead of
      // refusing to serve.
      std::fprintf(stderr, "maya_serve: artifact bundle unusable (%s); falling back to cold start\n",
                   loaded.status().ToString().c_str());
    }
  }
  if (engine == nullptr) {
    std::fprintf(stderr, "maya_serve: cold start, training estimators (%s sweep)...\n",
                 flags.sweep.c_str());
    GroundTruthExecutor profiling_hardware(*cluster, /*seed=*/0x9f0f);
    EstimatorBank bank = TrainEstimators(*cluster, profiling_hardware, *sweep);
    Result<std::unique_ptr<ServiceEngine>> created =
        ServiceEngine::Create(*cluster, std::move(bank), options);
    if (!created.ok()) {
      std::fprintf(stderr, "maya_serve: %s\n", created.status().ToString().c_str());
      return 2;
    }
    engine = *std::move(created);
  }
  // Requested deployments missing from the engine (cold start: all of them;
  // warm start: any the bundle did not carry) train their own per-arch bank.
  for (const std::string& name : extra_deployments) {
    if (engine->registry().IsResident(name)) {
      continue;  // restored from the bundle
    }
    const ClusterSpec spec = *ClusterSpecByName(name);
    std::fprintf(stderr, "maya_serve: training %s bank for deployment '%s'...\n",
                 GpuArchName(spec.gpu.arch), name.c_str());
    GroundTruthExecutor deployment_hardware(spec, /*seed=*/0x9f0f);
    Result<std::shared_ptr<const Deployment>> added = engine->AddDeployment(
        name, spec, TrainEstimators(spec, deployment_hardware, *sweep));
    if (!added.ok()) {
      std::fprintf(stderr, "maya_serve: %s\n", added.status().ToString().c_str());
      return 2;
    }
  }

  // Per-deployment usage counters for checkpoint/save bundles, so a restored
  // server's stats continue instead of resetting.
  const auto collect_usage = [&engine] {
    std::map<std::string, DeploymentUsage> usage;
    const ServiceStats stats = engine->stats();
    for (const DeploymentStats& deployment : stats.per_deployment) {
      DeploymentUsage& entry = usage[deployment.name];
      entry.stage_totals = deployment.stage_totals;
      entry.timed_requests = deployment.timed_requests;
    }
    return usage;
  };

  if (journal != nullptr) {
    // Replay the journal tail through the normal admin path — the journal is
    // not attached yet, so replayed mutations are not re-journaled. Replay
    // is idempotent: a record the checkpoint already reflects (the
    // checkpoint raced an unjournaled registration) is skipped.
    uint64_t replayed = 0;
    for (const FleetJournalRecord& record : journal->plan().replay) {
      ServiceRequest request;
      if (record.op == FleetJournalRecord::Op::kAdd) {
        if (engine->registry().IsResident(record.name)) {
          continue;
        }
        AddDeploymentPayload add;
        add.name = record.name;
        add.cluster = record.cluster;
        add.sweep = record.sweep;
        add.bundle_dir = record.bundle_dir;
        request.payload = std::move(add);
        std::fprintf(stderr, "maya_serve: replaying add '%s' (%s)...\n",
                     record.name.c_str(),
                     record.bundle_dir.empty() ? "cold train" : "bundle restore");
      } else {
        if (!engine->registry().IsResident(record.name)) {
          continue;
        }
        request.payload = RemoveDeploymentPayload{record.name};
      }
      const ServiceResponse response = engine->Submit(std::move(request)).get();
      if (!response.ok) {
        // A record that no longer applies (its bundle was deleted, say)
        // degrades to a warning: the rest of the fleet still recovers.
        std::fprintf(stderr, "maya_serve: journal replay of '%s' failed: %s\n",
                     record.name.c_str(), response.error.c_str());
        continue;
      }
      ++replayed;
    }
    engine->AttachJournal(journal.get());
    if (replayed > 0) {
      std::fprintf(stderr, "maya_serve: replayed %llu journal record(s)\n",
                   static_cast<unsigned long long>(replayed));
    }
    // A long replayed tail means the journal is due for compaction: take the
    // checkpoint now so the NEXT restart is cheap.
    if (journal->CheckpointDue()) {
      if (const Status checkpointed = journal->Checkpoint(engine->registry(), collect_usage());
          !checkpointed.ok()) {
        std::fprintf(stderr, "maya_serve: post-recovery checkpoint failed: %s\n",
                     checkpointed.ToString().c_str());
      }
    }
  }
  std::fprintf(stderr,
               "maya_serve: serving %s with %d workers (queue weight bound %.0f, "
               "%zu registered deployments)\n",
               cluster->ToString().c_str(), flags.workers, flags.queue_weight,
               engine->registry().Registered().size());

  // Graceful-drain signal: no SA_RESTART, so a SIGTERM interrupts the
  // blocking stdin read below instead of being deferred to the next line.
  struct sigaction drain_action;
  std::memset(&drain_action, 0, sizeof(drain_action));
  drain_action.sa_handler = HandleSigterm;
  sigemptyset(&drain_action.sa_mask);
  drain_action.sa_flags = 0;
  sigaction(SIGTERM, &drain_action, nullptr);

  // Responses print in submission order: a writer drains futures FIFO while
  // workers execute concurrently behind them.
  std::deque<std::future<ServiceResponse>> inflight;
  auto drain_ready = [&inflight](bool block) {
    while (!inflight.empty()) {
      if (!block && inflight.front().wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      std::printf("%s\n", SerializeServiceResponse(inflight.front().get()).c_str());
      std::fflush(stdout);
      inflight.pop_front();
    }
  };

  std::unique_ptr<TcpServer> server;
  if (!flags.listen.empty()) {
    TcpServerOptions net;
    net.host = listen_host;
    net.port = listen_port;
    server = std::make_unique<TcpServer>(engine.get(), net);
    if (const Status started = server->Start(); !started.ok()) {
      std::fprintf(stderr, "--listen: %s\n", started.ToString().c_str());
      return 2;
    }
    // Announced on stderr (with the resolved port) so wrappers using
    // --listen=HOST:0 can discover the endpoint.
    std::fprintf(stderr, "maya_serve: listening on %s:%d\n", listen_host.c_str(),
                 server->port());
    while (!g_sigterm) {
      pause();  // SIGTERM (no SA_RESTART) interrupts
    }
    std::fprintf(stderr, "maya_serve: SIGTERM, draining...\n");
    // Connection-level drain first (stop accepting, answer and flush
    // in-flight frames), then the engine-level drain below is a formality.
    server->Drain();
  }

  std::string line;
  while (server == nullptr && !g_sigterm && std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    if (line == "shutdown") {
      break;
    }
    Result<ServiceRequest> request = ParseServiceRequest(line);
    if (!request.ok()) {
      const ServiceResponse error = ParseFailureResponse(line, request.status());
      drain_ready(/*block=*/true);  // keep ordering even for parse failures
      std::printf("%s\n", SerializeServiceResponse(error).c_str());
      std::fflush(stdout);
      continue;
    }
    const ServiceRequestKind kind = request->kind();
    if (kind == ServiceRequestKind::kMetrics || kind == ServiceRequestKind::kDumpTrace) {
      // Read-your-writes on one stream: these answer synchronously inside
      // Submit, so settle every earlier pipelined request first — a client
      // that sent predict-then-metrics sees its predict in the snapshot.
      drain_ready(/*block=*/true);
    }
    inflight.push_back(engine->Submit(*std::move(request)));
    if (kind == ServiceRequestKind::kMetrics && !flags.metrics_out.empty()) {
      // "metrics" answers synchronously, so the exposition written here is at
      // least as fresh as the response the client is about to read.
      if (const Status written = MetricsExporter(*engine).WriteToFile(flags.metrics_out);
          !written.ok()) {
        std::fprintf(stderr, "maya_serve: --metrics_out write failed: %s\n",
                     written.ToString().c_str());
      }
    }
    drain_ready(/*block=*/false);
  }
  if (server == nullptr && g_sigterm) {
    std::fprintf(stderr, "maya_serve: SIGTERM, draining...\n");
  }
  // Graceful lifecycle: stop admitting, let queued + in-flight work finish
  // and answer, THEN flush artifacts over a quiet engine and shut down.
  engine->Drain();
  drain_ready(/*block=*/true);

  if (!flags.metrics_out.empty()) {
    // Final exposition over the drained engine: every completed request is in.
    if (const Status written = MetricsExporter(*engine).WriteToFile(flags.metrics_out);
        !written.ok()) {
      std::fprintf(stderr, "maya_serve: --metrics_out write failed: %s\n",
                   written.ToString().c_str());
    } else {
      std::fprintf(stderr, "maya_serve: wrote metrics exposition to %s\n",
                   flags.metrics_out.c_str());
    }
  }

  if (journal != nullptr) {
    // Final checkpoint over the drained fleet: the next start replays nothing.
    // Failure is advisory — the journal alone still recovers the fleet.
    if (const Status checkpointed = journal->Checkpoint(engine->registry(), collect_usage());
        !checkpointed.ok()) {
      std::fprintf(stderr, "maya_serve: shutdown checkpoint failed: %s\n",
                   checkpointed.ToString().c_str());
    }
  }

  if (flags.save_artifacts && !flags.artifacts.empty()) {
    // Persist cumulative per-deployment stage totals alongside the caches so
    // a restarted server's stats continue instead of resetting.
    const Status saved = store.SaveRegistry(engine->registry(), collect_usage());
    if (!saved.ok()) {
      std::fprintf(stderr, "failed to save artifact bundle: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "maya_serve: saved v2 artifact bundle (%zu deployments) to %s\n",
                 engine->registry().Registered().size(), flags.artifacts.c_str());
  }
  if (server != nullptr) {
    // The engine drained above, so no response callbacks are outstanding;
    // Stop() just joins the event loop.
    server->Stop();
  }
  engine->Shutdown();
  return 0;
}
