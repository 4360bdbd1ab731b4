// perfbench: drives fresh maya_serve processes over TCP with one workload,
// checks every answer, and prints the workload's metrics as one JSON line.
//
//   perfbench --workload=predict|trace_predict|hyperscale|search --seed=N
//             --seconds=S --trace=0|1 --serve=PATH --reference=FILE --out=DIR
//             [--revision=R]
//
// --trace=0 prints the end-to-end metrics: the server (one worker) is started
// three times (setup_s), and the last starts each serve one round of the
// timed load on one connection. --trace=1 replays the same inputs in process
// with spans around each layer, then starts the server (default flags) once
// for the probes that need it (the predict open loop, the 4-connection
// phases, round trips), and prints the per-layer metrics. See
// perfbench/README.md.
// Exit codes: 0 all checks passed, 1 a correctness check failed (the result
// is still printed), 2 bad usage or setup failure, 3 the open-loop generator
// fell behind (no result printed).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/load_client.h"
#include "perfbench/server_process.h"
#include "perfbench/stats.h"
#include "perfbench/traced_replay.h"
#include "src/common/json_writer.h"
#include "src/core/estimator_bank.h"
#include "src/core/execution_context.h"
#include "src/service/protocol.h"
#include "src/service/service_engine.h"

namespace perfbench {
namespace {

// Server starts per untraced run; setup_s is their median. The last of them
// each serve one round of the timed load.
constexpr size_t kServerStarts = 3;
static_assert(kServerStarts >= kPassRounds && kServerStarts >= kHyperscaleRounds &&
              kServerStarts >= kSearchRounds);
// The open loop is invalid when its p90 send lateness exceeds this: the
// generator fell behind. (A single late send is a scheduling hiccup of a
// shared machine, charged to that request's latency anyway.)
constexpr double kMaxLateP90Ms = 20.0;
// Lines per workload re-executed in process and compared with the TCP answer.
constexpr size_t kCheckSamples = 6;
// Bounds that keep a hung server from holding a run past its time limit.
constexpr double kStartTimeoutS = 60.0;
constexpr double kDrainS = 30.0;
// The timed load sends a fixed amount of work that takes about --seconds; a
// round stops early only after this many times --seconds over the rounds, so
// a slow spell of the machine lengthens a run instead of cutting its sample
// short.
constexpr double kClosedLoopCap = 3.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string serve;
  std::string reference;
  std::string out;
  std::string revision = "unknown";
};

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      flags.workload = value;
    } else if (key == "seed") {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      flags.seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      flags.trace = std::atoi(value.c_str());
    } else if (key == "serve") {
      flags.serve = value;
    } else if (key == "reference") {
      flags.reference = value;
    } else if (key == "out") {
      flags.out = value;
    } else if (key == "revision") {
      flags.revision = value;
    } else {
      return false;
    }
  }
  return (flags.workload == "predict" || flags.workload == "trace_predict" ||
          flags.workload == "hyperscale" || flags.workload == "search") &&
         flags.seconds > 0.0 && (flags.trace == 0 || flags.trace == 1) && !flags.serve.empty() &&
         !flags.reference.empty() && !flags.out.empty();
}

// The engine maya_serve builds on a cold start with the benchmark's flags:
// the same clusters, sweep, training seeds and options.
maya::Result<std::unique_ptr<maya::ServiceEngine>> BuildEngine(SpanRecorder& recorder) {
  maya::ServiceEngineOptions options;
  options.pipeline.context = maya::ExecutionContext::Create(0);
  MAYA_ASSIGN_OR_RETURN(maya::ProfileSweepOptions sweep, maya::ProfileSweepPreset("small"));
  const auto train = [&](const maya::ClusterSpec& cluster) {
    ScopedSpan span(recorder, "TrainEstimators", -1, 0);
    const maya::GroundTruthExecutor hardware(cluster, 0x9f0f);
    return maya::TrainEstimators(cluster, hardware, sweep);
  };
  MAYA_ASSIGN_OR_RETURN(maya::ClusterSpec cluster, maya::ClusterSpecByName(kServerCluster));
  MAYA_ASSIGN_OR_RETURN(std::unique_ptr<maya::ServiceEngine> engine,
                        maya::ServiceEngine::Create(cluster, train(cluster), options));
  MAYA_ASSIGN_OR_RETURN(maya::ClusterSpec extra, maya::ClusterSpecByName(kServerDeployments));
  MAYA_RETURN_IF_ERROR(engine->AddDeployment(kServerDeployments, extra, train(extra)).status());
  return engine;
}

// Attempted/failed bookkeeping shared by every phase.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& note) {
    ++failed;
    if (notes.size() < 20) {
      notes.push_back(note);
    }
  }
};

// The reference row of the config a search chose, or null.
const RefRow* ChosenRow(const maya::ServiceResponse& response, const std::string& setup,
                        const std::vector<RefRow>& ref) {
  const std::string key = response.best_config.CacheKey();
  for (const RefRow& row : ref) {
    if (row.set == "table5" && row.setup == setup && row.config.CacheKey() == key) {
      return &row;
    }
  }
  return nullptr;
}

// Validates one TCP answer into `parsed`; false (and a failure) when unusable.
bool CheckAnswer(const Outcome& outcome, const WorkloadInputs& inputs,
                 const std::vector<RefRow>& ref, maya::ServiceResponse& parsed, Checks& checks) {
  ++checks.attempted;
  const std::string what = "line " + std::to_string(outcome.line + 1);
  if (!outcome.answered()) {
    checks.Fail(what + ": no response");
    return false;
  }
  maya::Result<maya::ServiceResponse> response = maya::ParseServiceResponse(outcome.response);
  if (!response.ok()) {
    checks.Fail(what + ": malformed response: " + response.status().ToString());
    return false;
  }
  parsed = *std::move(response);
  if (!parsed.ok) {
    checks.Fail(what + ": " + parsed.error_code + " " + parsed.error);
    return false;
  }
  const int row = inputs.line_ref[outcome.line];
  if (parsed.kind == maya::ServiceRequestKind::kSearch) {
    if (!parsed.found || !(parsed.best_iteration_us > 0.0)) {
      checks.Fail(what + ": the search found no config");
      return false;
    }
    const RefRow* chosen = ChosenRow(parsed, ref[static_cast<size_t>(row)].setup, ref);
    if (chosen == nullptr || chosen->oom) {
      checks.Fail(what + ": the chosen config " + parsed.best_config.Summary() +
                  " is not a feasible reference config");
      return false;
    }
    return true;
  }
  if (parsed.kind == maya::ServiceRequestKind::kPredict && row >= 0 &&
      parsed.oom != ref[static_cast<size_t>(row)].oom) {
    checks.Fail(what + ": OOM verdict disagrees with the reference");
    return false;
  }
  if (!parsed.oom && !(parsed.iteration_time_us > 0.0)) {
    checks.Fail(what + ": no iteration time");
    return false;
  }
  return true;
}

struct PhaseSummary {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double bytes = 0.0;
  uint64_t answered = 0;

  void Add(const PhaseSummary& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    wall_s += other.wall_s;
    bytes += other.bytes;
    answered += other.answered;
  }
  double PerSecond(double amount) const { return wall_s > 0.0 ? amount / wall_s : 0.0; }
};

// `planned` is how many requests the phase was to send. Requests a closed loop
// left unsent at its time cap count as attempted and failed, so every run that
// passes its checks has done the same work.
PhaseSummary Check(const std::vector<Outcome>& outcomes, size_t planned,
                   const WorkloadInputs& inputs, const std::vector<RefRow>& ref, Checks& checks,
                   std::map<uint32_t, maya::ServiceResponse>& answers) {
  PhaseSummary summary;
  if (outcomes.size() < planned) {
    checks.attempted += planned - outcomes.size();
    checks.failed += planned - outcomes.size();
    checks.notes.push_back(std::to_string(planned - outcomes.size()) +
                           " requests not sent within the phase's time cap");
  }
  for (const Outcome& outcome : outcomes) {
    maya::ServiceResponse parsed;
    if (!CheckAnswer(outcome, inputs, ref, parsed, checks)) {
      continue;
    }
    summary.latency_ms.push_back(outcome.latency_s() * 1e3);
    summary.wall_s = std::max(summary.wall_s, outcome.done_s);
    summary.bytes += static_cast<double>(inputs.lines[outcome.line].size() + 1);
    ++summary.answered;
    answers.emplace(outcome.line, std::move(parsed));
  }
  return summary;
}

// |predicted - reference| / reference over the accuracy pass's feasible
// configs (percent).
std::vector<double> Errors(const std::map<uint32_t, maya::ServiceResponse>& answers,
                           const WorkloadInputs& pool, const std::vector<RefRow>& ref) {
  std::vector<double> errors;
  for (const auto& [line, response] : answers) {
    const RefRow& row = ref[static_cast<size_t>(pool.line_ref[line])];
    if (!row.oom && !response.oom) {
      errors.push_back(std::fabs(response.iteration_time_us - row.iteration_us) /
                       row.iteration_us * 100.0);
    }
  }
  return errors;
}

// Per search, (best reference MFU of the setup - reference MFU of the chosen
// config) / best (percent).
std::vector<double> Regrets(const std::map<uint32_t, maya::ServiceResponse>& answers,
                            const WorkloadInputs& inputs, const std::vector<RefRow>& ref) {
  std::vector<double> regrets;
  for (const auto& [line, response] : answers) {
    const RefRow& best = ref[static_cast<size_t>(inputs.line_ref[line])];
    const RefRow* chosen = ChosenRow(response, best.setup, ref);
    if (chosen != nullptr) {
      regrets.push_back((best.mfu - chosen->mfu) / best.mfu * 100.0);
    }
  }
  return regrets;
}

// Re-executes a sample of the lines in process and compares the hex
// iteration time (and OOM verdict) with the TCP answer; for a search, the
// chosen config and its hex iteration time.
void CompareInProcess(const maya::ServiceEngine& engine, const WorkloadInputs& inputs,
                      const std::map<uint32_t, maya::ServiceResponse>& answers,
                      const std::vector<uint32_t>& sample, Checks& checks) {
  for (const uint32_t line : sample) {
    const auto answer = answers.find(line);
    if (answer == answers.end()) {
      continue;  // already counted as failed
    }
    maya::Result<maya::ServiceRequest> request = maya::ParseServiceRequest(inputs.lines[line]);
    if (!request.ok()) {
      checks.Fail("line " + std::to_string(line + 1) + " does not parse in process");
      continue;
    }
    const maya::ServiceResponse local = engine.Execute(*request);
    const maya::ServiceResponse& remote = answer->second;
    if (!local.ok || local.oom != remote.oom ||
        std::bit_cast<uint64_t>(local.iteration_time_us) !=
            std::bit_cast<uint64_t>(remote.iteration_time_us) ||
        local.best_config.CacheKey() != remote.best_config.CacheKey() ||
        std::bit_cast<uint64_t>(local.best_iteration_us) !=
            std::bit_cast<uint64_t>(remote.best_iteration_us)) {
      checks.Fail("line " + std::to_string(line + 1) +
                  ": TCP answer differs from in-process ServiceEngine::Execute");
    }
  }
}

std::vector<uint32_t> SampleLines(const std::map<uint32_t, maya::ServiceResponse>& answers,
                                  uint64_t seed, size_t count) {
  std::vector<uint32_t> lines;
  for (const auto& [line, response] : answers) {
    lines.push_back(line);
  }
  SplitMix rng(seed ^ 0x636865636b733031ull);
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.Next() % i]);
  }
  lines.resize(std::min(count, lines.size()));
  return lines;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  maya::JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", checks.attempted);
  w.Field("failed", checks.failed);
  w.KeyedBeginObject("metrics");
  for (const Metric& metric : metrics) {
    w.KeyedBeginObject(metric.name);
    w.Field("value", metric.value);
    w.Field("unit", std::string_view(metric.unit));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

// TCP round trip minus the in-process parse + execute + serialize of the
// same line, per sampled line, on an otherwise idle server: best of five each,
// alternating which goes first. Both sides subtract the pipeline stage time
// their engine reports for the request (none for trace_predict), so that
// run-to-run noise in the stages themselves does not swamp the transport cost.
std::vector<double> RttOverheadMs(LoadClient& client, maya::ServiceEngine& engine,
                                  const WorkloadInputs& inputs,
                                  const std::vector<uint32_t>& sample, Checks& checks) {
  std::vector<double> overhead_ms;
  for (size_t i = 0; i < std::min<size_t>(4, sample.size()); ++i) {
    const std::string& line = inputs.lines[sample[i]];
    double tcp = 1e30;
    double local = 1e30;
    const auto over_tcp = [&] {
      const double t = Now();
      ++checks.attempted;
      maya::Result<std::string> reply = client.RoundTrip(line, kDrainS);
      const double elapsed = Now() - t;
      maya::Result<maya::ServiceResponse> parsed = reply.status();
      if (reply.ok()) {
        parsed = maya::ParseServiceResponse(*reply);
      }
      if (!parsed.ok() || !parsed->ok) {
        checks.Fail("round-trip probe got no usable response");
        return;
      }
      tcp = std::min(tcp, elapsed - parsed->timings.total_ms() / 1e3);
    };
    const auto in_process = [&] {
      // Executed on the engine's workers, as the server executes it.
      const double t = Now();
      maya::Result<maya::ServiceRequest> request = maya::ParseServiceRequest(line);
      if (!request.ok()) {
        return;  // counted by CompareInProcess
      }
      const maya::ServiceResponse response = engine.Submit(*std::move(request)).get();
      (void)maya::SerializeServiceResponse(response);
      local = std::min(local, Now() - t - response.timings.total_ms() / 1e3);
    };
    for (int rep = 0; rep < 5; ++rep) {
      if (rep % 2 == 0) {
        over_tcp();
        in_process();
      } else {
        in_process();
        over_tcp();
      }
    }
    overhead_ms.push_back((tcp - local) * 1e3);
  }
  return overhead_ms;
}

// The engine's own queue-wait p50 and p95 (ms) for requests of `kind`, from
// the `stats` latency block.
std::pair<double, double> QueueWaitMs(LoadClient& client, const std::string& kind,
                                      Checks& checks) {
  ++checks.attempted;
  maya::Result<std::string> stats =
      client.RoundTrip(R"({"id":900000001,"kind":"stats"})", kDrainS);
  maya::Result<maya::ServiceResponse> parsed = stats.status();
  if (stats.ok()) {
    parsed = maya::ParseServiceResponse(*stats);
  }
  if (!parsed.ok() || !parsed->ok) {
    checks.Fail("stats request failed");
    return {0.0, 0.0};
  }
  for (const maya::KindLatencyStats& entry : parsed->stats.latency) {
    if (entry.kind == kind) {
      return {entry.queue_wait.p50_us / 1e3, entry.queue_wait.p95_us / 1e3};
    }
  }
  return {0.0, 0.0};
}

// What every phase of a run shares.
struct Bench {
  const Flags& flags;
  const std::vector<RefRow>& ref;
  const WorkloadInputs& inputs;
  const WorkloadInputs& pool;
  maya::ServiceEngine& engine;
  std::vector<std::string> server_argv;
  std::string log_path;
  Checks checks;
  // The last pool pass's answers: the accuracy metrics' source.
  std::map<uint32_t, maya::ServiceResponse> pool_answers;

  bool search() const { return flags.workload == "search"; }
  bool predict() const { return flags.workload == "predict"; }
};

maya::Result<std::unique_ptr<ServerProcess>> StartServer(const Bench& bench) {
  return ServerProcess::Start(bench.server_argv, bench.log_path, kStartTimeoutS);
}

void StopServer(Bench& bench, ServerProcess& server) {
  if (const maya::Status stopped = server.Stop(); !stopped.ok()) {
    bench.checks.Fail(stopped.ToString());
  }
}

// The pool pass: every pool config once, on four connections. It warms a
// server before timing, and its answers give the accuracy metrics.
void PoolPass(Bench& bench, LoadClient& client) {
  bench.pool_answers.clear();
  Check(client.ClosedLoop(bench.pool.lines, bench.pool.rounds[0], 4, kDrainS, kDrainS),
        bench.pool.rounds[0].size(), bench.pool, bench.ref, bench.checks, bench.pool_answers);
}

// Compares a sample of the answers and of the pool pass's answers with
// in-process executions of the same lines. A search costs seconds, so only
// the cheapest one (the first setup, GPT-3 2.7B on 8 V100s) is re-executed.
void CompareSample(Bench& bench, const std::map<uint32_t, maya::ServiceResponse>& answers) {
  const std::vector<uint32_t> sample =
      bench.search() ? std::vector<uint32_t>{0}
                     : SampleLines(answers, bench.flags.seed,
                                   bench.flags.workload == "trace_predict" ? kCheckSamples / 2
                                                                           : kCheckSamples);
  CompareInProcess(bench.engine, bench.inputs, answers, sample, bench.checks);
  CompareInProcess(bench.engine, bench.pool, bench.pool_answers,
                   SampleLines(bench.pool_answers, bench.flags.seed, 2), bench.checks);
}

// Fingerprint: what ran, on what, with which inputs.
void PrintFingerprint(const Bench& bench) {
  const Flags& flags = bench.flags;
  maya::JsonWriter w;
  w.BeginObject();
  w.KeyedBeginObject("fingerprint");
  w.Field("workload", std::string_view(flags.workload));
  w.Field("seed", flags.seed);
  w.Field("seconds", flags.seconds);
  w.Field("trace", static_cast<int64_t>(flags.trace));
  w.Field("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Field("compiler", std::string_view(__VERSION__));
  w.Field("build_type", std::string_view(PERFBENCH_BUILD_TYPE));
  w.Field("revision", std::string_view(flags.revision));
  std::string command;
  for (size_t i = 1; i < bench.server_argv.size(); ++i) {
    command += (i > 1 ? " " : "") + bench.server_argv[i];
  }
  w.Field("server_command", std::string_view("maya_serve " + command));
  w.Field("input_digest", std::string_view(InputDigest(bench.inputs)));
  w.Field("accuracy_digest", std::string_view(InputDigest(bench.pool)));
  w.Field("rounds", static_cast<int64_t>(bench.inputs.rounds.size()));
  w.Field("round_requests", static_cast<int64_t>(bench.inputs.rounds[0].size()));
  w.Field("load_threads", static_cast<int64_t>(1));
  w.Field("timed_connections", static_cast<int64_t>(1));
  w.Field("max_connections", static_cast<int64_t>(4));
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  for (const std::string& note : bench.checks.notes) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", note.c_str());
  }
}

int Finish(const Bench& bench, const std::vector<Metric>& metrics) {
  PrintFingerprint(bench);
  const bool correct = bench.checks.failed == 0;
  PrintResult(correct, bench.checks, metrics);
  return correct ? 0 : 1;
}

// The end-to-end run: kServerStarts fresh servers; each of the last ones
// serves one round of the timed load on one connection, a closed loop.
int TimedRun(Bench& bench) {
  const WorkloadInputs& inputs = bench.inputs;
  const double cap_s =
      bench.flags.seconds / static_cast<double>(inputs.rounds.size()) * kClosedLoopCap;
  std::vector<double> setups;
  std::vector<double> rss_mb;
  PhaseSummary timed;
  std::map<uint32_t, maya::ServiceResponse> answers;
  const size_t first_loaded = kServerStarts - inputs.rounds.size();
  for (size_t start = 0; start < kServerStarts; ++start) {
    maya::Result<std::unique_ptr<ServerProcess>> server = StartServer(bench);
    if (!server.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", server.status().ToString().c_str());
      return 2;
    }
    setups.push_back((*server)->setup_s());
    // The pool pass warms every predict round's server (its rounds are passes
    // over the pool); the other workloads share no caches with it and send it
    // once, on the first start, for the accuracy metrics.
    const bool loaded = start >= first_loaded;
    const bool pool_pass = bench.predict() ? loaded : start == 0;
    if (loaded || pool_pass) {
      maya::Result<std::unique_ptr<LoadClient>> client = LoadClient::Connect((*server)->port(), 4);
      if (!client.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", client.status().ToString().c_str());
        return 2;
      }
      if (pool_pass) {
        PoolPass(bench, **client);
      }
      if (loaded) {
        const std::vector<uint32_t>& order = inputs.rounds[start - first_loaded];
        answers.clear();
        timed.Add(Check((*client)->ClosedLoop(inputs.lines, order, 1, cap_s, kDrainS),
                        order.size(), inputs, bench.ref, bench.checks, answers));
        maya::Result<double> peak = (*server)->PeakRssMb();
        if (peak.ok()) {
          rss_mb.push_back(*peak);
        } else {
          bench.checks.Fail(peak.status().ToString());
        }
      }
    }
    StopServer(bench, **server);
  }
  CompareSample(bench, answers);

  // The searches of a run are a fixed set of four jobs, so their p90 needs no
  // tail-sample minimum: it describes that set, not a sampled tail.
  const maya::Result<double> p90 = bench.search()
                                       ? maya::Result<double>(HarrellDavis(timed.latency_ms, 0.9))
                                       : TailPercentile(timed.latency_ms, 0.9);
  if (!p90.ok()) {
    bench.checks.Fail("latency p90: " + p90.status().ToString());
  }
  const std::vector<double> errors = Errors(bench.pool_answers, bench.pool, bench.ref);
  return Finish(bench,
                {
                    {"setup_s", Median(setups), "s"},
                    {"peak_rss_mb", Median(rss_mb), "MB"},
                    {"latency_p50_ms", HarrellDavis(timed.latency_ms, 0.5), "ms"},
                    {"latency_p90_ms", p90.ok() ? *p90 : 0.0, "ms"},
                    {"throughput_rps", timed.PerSecond(static_cast<double>(timed.answered)), "1/s"},
                    {"mb_per_s", timed.PerSecond(timed.bytes / 1e6), "MB/s"},
                    // Exact order statistics of a fixed config set, not
                    // estimates of a sampled distribution, so they need no
                    // tail-sample minimum.
                    {"predict_error_p50_pct", Quantile(errors, 0.5), "%"},
                    {"predict_error_p90_pct", Quantile(errors, 0.9), "%"},
                });
}

// The per-layer run: the in-process traced replay, then one server for the
// probes that need one.
int TracedRun(Bench& bench, SpanRecorder& recorder) {
  const WorkloadInputs& inputs = bench.inputs;
  const bool predict = bench.predict();
  const bool search = bench.search();
  // The traced replay runs first, on the fresh engine, so its caches evolve
  // like the traced run's server: the pool lines (untraced), then the start
  // of the first round (all of a search round), traced.
  const std::vector<uint32_t>& first = inputs.rounds[0];
  const size_t timed_lines = predict                                ? 48
                             : bench.flags.workload == "hyperscale" ? 24
                             : search                               ? first.size()
                                                                    : 16;
  std::vector<std::string> replay_lines;
  for (size_t i = 0; i < std::min(timed_lines, first.size()); ++i) {
    replay_lines.push_back(inputs.lines[first[i]]);
  }
  SpanRecorder pool_recorder(false);
  const ReplayResult pool_replay = Replay(bench.engine, bench.pool.lines, pool_recorder);
  const ReplayResult traced = Replay(bench.engine, replay_lines, recorder);

  maya::Result<std::unique_ptr<ServerProcess>> started = StartServer(bench);
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", started.status().ToString().c_str());
    return 2;
  }
  ServerProcess& server = **started;
  maya::Result<std::unique_ptr<LoadClient>> connected = LoadClient::Connect(server.port(), 4);
  if (!connected.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", connected.status().ToString().c_str());
    return 2;
  }
  LoadClient& client = **connected;
  PoolPass(bench, client);

  // The workload's load on this server: predict's open loop, else the first
  // round of the timed load.
  std::map<uint32_t, maya::ServiceResponse> answers;
  std::vector<double> lateness_ms;
  PhaseSummary open;
  if (predict) {
    const std::vector<Outcome> outcomes = client.OpenLoop(inputs.lines, inputs.arrivals, kDrainS);
    for (const Outcome& outcome : outcomes) {
      lateness_ms.push_back((outcome.sent_s - outcome.due_s) * 1e3);
    }
    open = Check(outcomes, inputs.arrivals.size(), inputs, bench.ref, bench.checks, answers);
  } else {
    Check(client.ClosedLoop(inputs.lines, first, 1, bench.flags.seconds * kClosedLoopCap, kDrainS),
          first.size(), inputs, bench.ref, bench.checks, answers);
  }
  // Read before the 4-connection phase, which would swamp the open loop's.
  // The request kind of the workload's lines (hyperscale sends predicts).
  const std::string kind =
      bench.flags.workload == "trace_predict" || search ? bench.flags.workload : "predict";
  const auto [queue_p50_ms, queue_p95_ms] = QueueWaitMs(client, kind, bench.checks);
  PhaseSummary wide;
  if (!inputs.wide.empty()) {
    wide = Check(client.ClosedLoop(inputs.lines, inputs.wide, 4,
                                   bench.flags.seconds * kClosedLoopCap, kDrainS),
                 inputs.wide.size(), inputs, bench.ref, bench.checks, answers);
  }
  const std::vector<uint32_t> sample = SampleLines(answers, bench.flags.seed, kCheckSamples);
  CompareSample(bench, answers);
  // Not probed on search, whose seconds of execution would swamp the
  // transport's share.
  const std::vector<double> rtt_overhead_ms =
      search ? std::vector<double>{}
             : RttOverheadMs(client, bench.engine, inputs, sample, bench.checks);
  StopServer(bench, server);

  const double late_p90_ms = Quantile(lateness_ms, 0.9);
  if (late_p90_ms > kMaxLateP90Ms) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the open-loop generator fell behind (p90 send %.1f ms "
                 "late, bound %.0f ms)\n",
                 late_p90_ms, kMaxLateP90Ms);
    return 3;
  }

  // Tracing overhead: the same lines replayed warm, untraced then traced (on
  // the search workload, only the cheapest search, which takes seconds).
  const std::vector<std::string> overhead_lines =
      search ? std::vector<std::string>{inputs.lines[0]} : replay_lines;
  SpanRecorder untraced_recorder(false);
  const ReplayResult untraced = Replay(bench.engine, overhead_lines, untraced_recorder);
  SpanRecorder overhead_recorder(true);
  const ReplayResult traced_again = Replay(bench.engine, overhead_lines, overhead_recorder);
  for (const ReplayResult* replay : std::initializer_list<const ReplayResult*>{
           &pool_replay, &traced, &untraced, &traced_again}) {
    bench.checks.attempted += replay->requests;
    for (const std::string& note : replay->failure_notes) {
      bench.checks.Fail(note);
    }
  }
  const std::string spans_path = bench.flags.out + "/spans-" + bench.flags.workload + "-" +
                                 std::to_string(bench.flags.seed) + ".json";
  if (const maya::Status written = recorder.WriteJson(spans_path); !written.ok()) {
    bench.checks.Fail(written.ToString());
  }

  const ReplayCounters& c = traced.counters;
  // A search's stages run inside RunSearch, which is one span: its stage
  // metrics are the search's own stage timings per executed trial.
  const double trials = static_cast<double>(std::max<uint64_t>(c.search_trials, 1));
  using Names = std::vector<std::string>;
  const auto self = [&](const Names& names) { return Median(recorder.SelfMsPerRequest(names)); };
  const auto stage_ms = [&](const Names& names, double search_ms) {
    return search ? search_ms / trials : self(names);
  };
  double request_ms = 0.0;
  for (const double ms : recorder.DurationsMs("request")) {
    request_ms += ms;
  }
  const auto pct = [&](double ms) { return request_ms > 0.0 ? ms / request_ms * 100.0 : 0.0; };
  const auto stage_share = [&](const Names& names, double search_ms) {
    return pct(search ? search_ms : recorder.TotalSelfMs(names));
  };
  const maya::StageTimings& st = c.search_stages;
  const std::vector<double> regrets = Regrets(answers, inputs, bench.ref);
  return Finish(
      bench,
      {
          {"net.rtt_overhead_ms", Median(rtt_overhead_ms), "ms"},
          {"service.parse_ms", self({"ParseServiceRequest"}), "ms"},
          {"service.serialize_ms", self({"SerializeServiceResponse"}), "ms"},
          {"service.queue_wait_p50_ms", queue_p50_ms, "ms"},
          {"service.queue_wait_p95_ms", queue_p95_ms, "ms"},
          {"service.capacity_rps", wide.PerSecond(static_cast<double>(wide.answered)), "1/s"},
          {"service.capacity_mb_per_s", wide.PerSecond(wide.bytes / 1e6), "MB/s"},
          {"core.train_s", Median(recorder.DurationsMs("TrainEstimators")) / 1e3, "s"},
          // Predict's work: its four stages, composed.
          {"core.predict_ms",
           stage_ms({"EmulateJob", "TraceCollator::Collate", "MayaPipeline::AnnotateDurations",
                     "MayaPipeline::Simulate"},
                    st.total_ms()),
           "ms"},
          {"dlf.emulate_ms", stage_ms({"EmulateJob"}, st.emulation_ms), "ms"},
          {"dlf.ranks_emulated", Median(c.ranks_emulated), "count"},
          {"trace.collate_ms", stage_ms({"TraceCollator::Collate"}, st.collation_ms), "ms"},
          {"trace.unique_workers", Median(c.unique_workers), "count"},
          {"estimator.annotate_ms",
           stage_ms({"MayaPipeline::AnnotateDurations"}, st.estimation_ms), "ms"},
          {"estimator.unique_keys", Median(c.unique_keys), "count"},
          {"estimator.cache_hit_rate",
           c.estimate_lookups > 0 ? static_cast<double>(c.estimate_hits) / c.estimate_lookups
                                  : 0.0,
           "ratio"},
          {"estimator.cache_lookups", static_cast<double>(c.estimate_lookups), "count"},
          {"sim.simulate_ms", stage_ms({"MayaPipeline::Simulate"}, st.simulation_ms), "ms"},
          {"sim.components", Median(c.components), "count"},
          {"sim.cache_hit_rate",
           c.sim_lookups > 0 ? static_cast<double>(c.sim_hits) / c.sim_lookups : 0.0, "ratio"},
          {"sim.cache_lookups", static_cast<double>(c.sim_lookups), "count"},
          {"search.trials_executed", Median(c.trials_executed), "count"},
          {"search.trials_cached", Median(c.trials_cached), "count"},
          {"search.trials_pruned", Median(c.trials_pruned), "count"},
          {"search.trial_ms", Median(c.trial_ms), "ms"},
          {"search.regret_pct", search ? Mean(regrets) : 0.0, "%"},
          {"share.emulate_collate_pct",
           stage_share({"EmulateJob", "TraceCollator::Collate"},
                       st.emulation_ms + st.collation_ms),
           "%"},
          {"share.parse_pct", pct(recorder.TotalSelfMs({"ParseServiceRequest"})), "%"},
          {"share.simulate_pct", stage_share({"MayaPipeline::Simulate"}, st.simulation_ms), "%"},
          {"bench.open_loop_p50_ms", HarrellDavis(open.latency_ms, 0.5), "ms"},
          {"bench.open_loop_p90_ms", HarrellDavis(open.latency_ms, 0.9), "ms"},
          {"bench.gen_late_p90_ms", late_p90_ms, "ms"},
          {"bench.trace_overhead_pct",
           untraced.wall_s > 0
               ? (traced_again.wall_s - untraced.wall_s) / untraced.wall_s * 100.0
               : 0.0,
           "%"},
          {"bench.replayed_requests", static_cast<double>(replay_lines.size()), "count"},
      });
}

int Run(const Flags& flags) {
  maya::Result<std::vector<RefRow>> loaded = LoadReference(flags.reference);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.status().ToString().c_str());
    return 2;
  }
  const std::vector<RefRow>& ref = *loaded;
  WorkloadInputs inputs;
  if (flags.workload == "predict") {
    inputs = PredictInputs(ref, flags.seed, flags.seconds);
  } else if (flags.workload == "hyperscale") {
    inputs = HyperscaleInputs(ref, flags.seed);
  } else if (flags.workload == "search") {
    inputs = SearchInputs(ref, flags.seed);
  } else {
    maya::Result<WorkloadInputs> traces = TracePredictInputs(ref, flags.seed, flags.seconds);
    if (!traces.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", traces.status().ToString().c_str());
      return 2;
    }
    inputs = *std::move(traces);
  }
  const WorkloadInputs pool = PoolInputs(ref);

  SpanRecorder recorder(flags.trace == 1);
  maya::Result<std::unique_ptr<maya::ServiceEngine>> engine = BuildEngine(recorder);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", engine.status().ToString().c_str());
    return 2;
  }
  Bench bench{flags,
              ref,
              inputs,
              pool,
              **engine,
              {flags.serve, "--listen=127.0.0.1:0", std::string("--cluster=") + kServerCluster,
               std::string("--deployments=") + kServerDeployments},
              flags.out + "/maya_serve-" + flags.workload + ".log",
              {},
              {}};
  if (flags.trace == 1) {
    return TracedRun(bench, recorder);
  }
  // The timed load keeps one request in flight, so the timed runs start one
  // worker. With the default four, each request lands on whichever worker is
  // free and every worker thread grows its own malloc arena: peak RSS of
  // identical work read 550-870 MB from run to run, against 197-201 MB (on
  // predict) with one worker, whose latencies were also steadier. The traced
  // run keeps four workers for its open loop and 4-connection phases.
  bench.server_argv.push_back("--workers=1");
  return TimedRun(bench);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, flags)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=predict|trace_predict|hyperscale|search "
                 "--seed=N --seconds=S --trace=0|1 --serve=PATH --reference=FILE --out=DIR "
                 "[--revision=R]\n");
    return 2;
  }
  return perfbench::Run(flags);
}
