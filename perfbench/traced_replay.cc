#include "perfbench/traced_replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>

#include "src/common/json_writer.h"
#include "src/dlf/worker_launcher.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"
#include "src/search/search_driver.h"
#include "src/trace/collator.h"

namespace perfbench {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

maya::Result<std::shared_ptr<const maya::Deployment>> DeploymentFor(
    const maya::ServiceEngine& engine, const std::string& name) {
  if (name.empty()) {
    return engine.default_deployment();
  }
  return engine.registry().Resolve(name);
}

struct Composed {
  maya::ServiceResponse response;
  std::string failure;
};

// Stages 1-4 of a predict, composed as MayaPipeline::Predict composes them
// (trace cache aside, which is off by default and not used by maya_serve).
Composed ComposePredict(const maya::MayaPipeline& pipeline, const maya::PredictPayload& payload,
                        SpanRecorder& recorder, int parent, uint64_t request,
                        ReplayCounters& counters) {
  Composed out;
  maya::ServiceResponse& response = out.response;
  response.kind = maya::ServiceRequestKind::kPredict;
  maya::ThreadPool* pool =
      pipeline.options().context != nullptr ? pipeline.options().context->pool() : nullptr;

  maya::LaunchOptions launch;
  launch.selective_launch = payload.selective_launch;
  launch.virtual_folds = payload.virtual_folds;
  launch.emulation_pool = pool;
  launch.min_parallel_ranks = pipeline.options().min_parallel_emulation_ranks;
  maya::Result<maya::LaunchResult> launched = [&] {
    ScopedSpan span(recorder, "EmulateJob", parent, request);
    return maya::EmulateJob(payload.model, payload.config, pipeline.cluster(), launch);
  }();
  if (!launched.ok()) {
    out.failure = launched.status().ToString();
    return out;
  }
  counters.ranks_emulated.push_back(launched->full_workers_emulated);
  response.ok = true;
  if (launched->oom) {
    response.oom = true;
    response.oom_detail = launched->oom_detail;
    return out;
  }

  maya::CollationOptions collation;
  collation.deduplicate = payload.deduplicate_workers;
  collation.pool = pool;
  maya::TraceCollator collator(collation);
  maya::Result<maya::JobTrace> job = [&] {
    ScopedSpan span(recorder, "TraceCollator::Collate", parent, request);
    return collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
  }();
  if (!job.ok()) {
    out.failure = job.status().ToString();
    return out;
  }
  counters.unique_workers.push_back(collator.stats().unique_workers);

  const maya::EstimationStats estimation = [&] {
    ScopedSpan span(recorder, "MayaPipeline::AnnotateDurations", parent, request);
    return pipeline.AnnotateDurations(*job, nullptr);
  }();
  maya::Result<maya::SimReport> sim = [&] {
    ScopedSpan span(recorder, "MayaPipeline::Simulate", parent, request);
    return pipeline.Simulate(*job, payload.deduplicate_workers);
  }();
  if (!sim.ok()) {
    out.failure = sim.status().ToString();
    return out;
  }
  response.iteration_time_us = sim->total_time_us;
  response.mfu = maya::ComputeMfu(payload.model, payload.config.global_batch_size,
                                  pipeline.cluster(), sim->total_time_us);
  response.peak_memory_bytes = sim->peak_memory_bytes;
  response.estimation = estimation;
  response.simulation = sim->stats;
  return out;
}

Composed ComposeTracePredict(const maya::MayaPipeline& pipeline,
                             const maya::TracePredictPayload& payload, SpanRecorder& recorder,
                             int parent, uint64_t request) {
  Composed out;
  maya::ServiceResponse& response = out.response;
  response.kind = maya::ServiceRequestKind::kTracePredict;
  maya::JobTrace job = payload.trace;
  const maya::EstimationStats estimation = [&] {
    ScopedSpan span(recorder, "MayaPipeline::AnnotateDurations", parent, request);
    return pipeline.AnnotateDurations(job, nullptr);
  }();
  maya::Result<maya::SimReport> sim = [&] {
    ScopedSpan span(recorder, "MayaPipeline::Simulate", parent, request);
    return pipeline.Simulate(job);
  }();
  if (!sim.ok()) {
    out.failure = sim.status().ToString();
    return out;
  }
  response.ok = true;
  response.iteration_time_us = sim->total_time_us;
  response.peak_memory_bytes = sim->peak_memory_bytes;
  response.estimation = estimation;
  response.simulation = sim->stats;
  return out;
}

// A search as ServiceEngine::ExecuteSearch runs it: RunSearch over the
// model's Table-5 space on the deployment's pipeline.
Composed ComposeSearch(const maya::MayaPipeline& pipeline, const maya::SearchPayload& payload,
                       SpanRecorder& recorder, int parent, uint64_t request,
                       ReplayCounters& counters) {
  Composed out;
  maya::ServiceResponse& response = out.response;
  response.kind = maya::ServiceRequestKind::kSearch;
  const int64_t global_batch =
      payload.global_batch > 0 ? payload.global_batch : maya::DefaultGlobalBatch(payload.model);
  const maya::ConfigSpace space = maya::ConfigSpace::MegatronTable5(global_batch);
  const double start = Now();
  maya::Result<maya::SearchOutcome> search = [&] {
    ScopedSpan span(recorder, "RunSearch", parent, request);
    return maya::RunSearch(pipeline, payload.model, space, payload.search);
  }();
  const double wall_ms = (Now() - start) * 1e3;
  if (!search.ok()) {
    out.failure = search.status().ToString();
    return out;
  }
  response.ok = true;
  response.found = search->found;
  response.best_config = search->best_config;
  response.best_mfu = search->best_mfu;
  response.best_iteration_us = search->best_iteration_us;
  response.samples = search->samples;
  response.executed = search->executed;
  response.cached = search->cached;
  response.skipped = search->skipped;
  response.search_oom = search->oom;
  response.estimation = search->estimation_totals;
  response.simulation = search->simulation_totals;
  response.timings = search->stage_totals;

  counters.trials_executed.push_back(search->executed);
  counters.trials_cached.push_back(search->cached);
  counters.trials_pruned.push_back(search->skipped);
  if (search->executed > 0) {
    counters.trial_ms.push_back(wall_ms / search->executed);
  }
  counters.search_trials += static_cast<uint64_t>(search->executed);
  maya::StageTimings& stages = counters.search_stages;
  stages.emulation_ms += search->stage_totals.emulation_ms;
  stages.collation_ms += search->stage_totals.collation_ms;
  stages.estimation_ms += search->stage_totals.estimation_ms;
  stages.simulation_ms += search->stage_totals.simulation_ms;
  const maya::EstimationStats& estimation = search->estimation_totals;
  const maya::SimulationStats& simulation = search->simulation_totals;
  counters.estimate_hits += estimation.cache_hits;
  counters.estimate_lookups += estimation.cache_hits + estimation.cache_misses;
  counters.sim_hits += simulation.cache_hits;
  counters.sim_lookups += simulation.cache_hits + simulation.cache_misses;
  return out;
}

}  // namespace

int SpanRecorder::Begin(const char* name, int parent, uint64_t request) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back({name, Now(), 0.0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int span) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end_s = Now();
  }
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += (spans_[i].end_s - spans_[i].start_s) * 1e3;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= (spans_[i].end_s - spans_[i].start_s) * 1e3;
    }
  }
  return self;
}

std::vector<double> SpanRecorder::SelfMsPerRequest(const std::vector<std::string>& names) const {
  const std::vector<double> self = SelfMs();
  std::map<uint64_t, double> per_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::find(names.begin(), names.end(), spans_[i].name) != names.end()) {
      per_request[spans_[i].request] += self[i];
    }
  }
  std::vector<double> values;
  for (const auto& [request, ms] : per_request) {
    values.push_back(ms);
  }
  return values;
}

double SpanRecorder::TotalSelfMs(const std::vector<std::string>& names) const {
  double total = 0.0;
  for (const double ms : SelfMsPerRequest(names)) {
    total += ms;
  }
  return total;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.name == name) {
      durations.push_back((span.end_s - span.start_s) * 1e3);
    }
  }
  return durations;
}

maya::Status SpanRecorder::WriteJson(const std::string& path) const {
  maya::JsonWriter w;
  w.BeginArray();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& span : spans_) {
    w.BeginObject();
    w.Field("name", std::string_view(span.name));
    w.Field("start_us", (span.start_s - origin) * 1e6);
    w.Field("end_us", (span.end_s - origin) * 1e6);
    w.Field("parent", static_cast<int64_t>(span.parent));
    w.Field("request", span.request);
    w.EndObject();
  }
  w.EndArray();
  std::ofstream out(path);
  out << w.str() << '\n';
  out.close();
  return out ? maya::Status::Ok() : maya::Status::Internal("cannot write " + path);
}

ReplayResult Replay(const maya::ServiceEngine& engine, const std::vector<std::string>& lines,
                    SpanRecorder& recorder) {
  ReplayResult result;
  // Cache-free copies of the deployments' pipelines, for the reference check.
  std::map<std::string, std::unique_ptr<maya::MayaPipeline>> uncached;
  for (const std::string& line : lines) {
    const uint64_t request = ++result.requests;
    const auto fail = [&result, request](const std::string& why) {
      ++result.failures;
      result.failure_notes.push_back("replay request " + std::to_string(request) + ": " + why);
    };
    // Set for a composed predict, checked after its spans have closed.
    std::optional<maya::PredictPayload> check;
    std::shared_ptr<const maya::Deployment> check_deployment;
    Composed composed;
    const double start = Now();
    {
      ScopedSpan root(recorder, "request", -1, request);
      maya::Result<maya::ServiceRequest> parsed = [&] {
        ScopedSpan span(recorder, "ParseServiceRequest", root.id(), request);
        return maya::ParseServiceRequest(line);
      }();
      if (!parsed.ok()) {
        fail(parsed.status().ToString());
        continue;
      }
      if (const auto* predict = std::get_if<maya::PredictPayload>(&parsed->payload)) {
        maya::Result<std::shared_ptr<const maya::Deployment>> deployment =
            DeploymentFor(engine, predict->deployment);
        if (!deployment.ok()) {
          fail(deployment.status().ToString());
          continue;
        }
        composed = ComposePredict(*(*deployment)->pipeline, *predict, recorder, root.id(),
                                  request, result.counters);
        check = *predict;
        check_deployment = *deployment;
      } else if (const auto* trace = std::get_if<maya::TracePredictPayload>(&parsed->payload)) {
        maya::Result<std::shared_ptr<const maya::Deployment>> deployment =
            DeploymentFor(engine, trace->deployment);
        if (!deployment.ok()) {
          fail(deployment.status().ToString());
          continue;
        }
        composed = ComposeTracePredict(*(*deployment)->pipeline, *trace, recorder, root.id(),
                                       request);
      } else if (const auto* search = std::get_if<maya::SearchPayload>(&parsed->payload)) {
        maya::Result<std::shared_ptr<const maya::Deployment>> deployment =
            DeploymentFor(engine, search->deployment);
        if (!deployment.ok()) {
          fail(deployment.status().ToString());
          continue;
        }
        composed = ComposeSearch(*(*deployment)->pipeline, *search, recorder, root.id(), request,
                                 result.counters);
      } else {
        fail("the traced run replays only predict, trace_predict and search lines");
        continue;
      }
      if (!composed.failure.empty()) {
        fail(composed.failure);
        continue;
      }
      if (!composed.response.oom && composed.response.kind != maya::ServiceRequestKind::kSearch) {
        const maya::EstimationStats& estimation = composed.response.estimation;
        const maya::SimulationStats& simulation = composed.response.simulation;
        ReplayCounters& counters = result.counters;
        counters.unique_keys.push_back(static_cast<double>(estimation.unique_ops()));
        counters.components.push_back(static_cast<double>(simulation.components));
        counters.estimate_hits += estimation.cache_hits;
        counters.estimate_lookups += estimation.cache_hits + estimation.cache_misses;
        counters.sim_hits += simulation.cache_hits;
        counters.sim_lookups += simulation.cache_hits + simulation.cache_misses;
      }
      composed.response.id = parsed->id;
      ScopedSpan span(recorder, "SerializeServiceResponse", root.id(), request);
      if (maya::SerializeServiceResponse(composed.response).empty()) {
        fail("empty serialized response");
      }
    }
    result.wall_s += Now() - start;
    if (!check.has_value()) {
      continue;
    }
    std::unique_ptr<maya::MayaPipeline>& twin = uncached[check_deployment->name];
    if (twin == nullptr) {
      const maya::MayaPipeline& pipeline = *check_deployment->pipeline;
      maya::MayaPipelineOptions options = pipeline.options();
      options.enable_estimate_cache = false;
      options.enable_trace_cache = false;
      options.enable_sim_cache = false;
      twin = std::make_unique<maya::MayaPipeline>(pipeline.cluster(),
                                                  check_deployment->kernel_estimator,
                                                  check_deployment->collective_estimator, options);
    }
    maya::PredictionRequest reference_request;
    reference_request.model = check->model;
    reference_request.config = check->config;
    reference_request.deduplicate_workers = check->deduplicate_workers;
    reference_request.selective_launch = check->selective_launch;
    reference_request.virtual_folds = check->virtual_folds;
    const maya::Result<maya::PredictionReport> reference = twin->Predict(reference_request);
    if (!reference.ok() || reference->oom != composed.response.oom ||
        std::bit_cast<uint64_t>(reference->iteration_time_us) !=
            std::bit_cast<uint64_t>(composed.response.iteration_time_us)) {
      fail("composed stages differ from MayaPipeline::Predict");
    }
  }
  return result;
}

}  // namespace perfbench
