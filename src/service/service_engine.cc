#include "src/service/service_engine.h"

#include <algorithm>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/groundtruth/executor.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"
#include "src/service/artifact_store.h"
#include "src/service/fleet_journal.h"
#include "src/service/metrics_exporter.h"

namespace maya {
namespace {

// The first bundle record trained for `cluster`.
std::vector<DeploymentRecord>::const_iterator FindByCluster(
    const std::vector<DeploymentRecord>& records, const ClusterSpec& cluster) {
  const std::string expected = ArtifactStore::ClusterSignature(cluster);
  return std::find_if(records.begin(), records.end(), [&expected](const DeploymentRecord& record) {
    return ArtifactStore::ClusterSignature(record.cluster) == expected;
  });
}

DeploymentRegistryOptions RegistryOptionsFor(const ServiceEngineOptions& options) {
  DeploymentRegistryOptions registry;
  registry.pipeline = options.pipeline;
  return registry;
}

// Maps an execution-path status onto the wire's failure taxonomy: statuses
// the caller provoked with the request's own content are INVALID_REQUEST
// (resubmitting unchanged will fail again); everything the server did to
// itself — including injected faults — is INTERNAL_ERROR (a retry may
// succeed).
const char* ErrorCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return kErrInvalidRequest;
    // Governance outcomes keep their typed wire codes: the caller must be
    // able to tell "the server refused/failed" from "my own deadline or
    // cancel interrupted the work".
    case StatusCode::kCancelled:
      return kErrCancelled;
    case StatusCode::kDeadlineExceeded:
      return kErrDeadlineExceeded;
    case StatusCode::kOk:  // not an error; defensive default
    case StatusCode::kOutOfMemory:
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal:
      return kErrInternalError;
  }
  return kErrInternalError;
}

}  // namespace

ServiceEngine::ServiceEngine(ServiceEngineOptions options)
    : options_(std::move(options)),
      registry_(RegistryOptionsFor(options_)),
      journal_(options_.journal) {}

Result<std::unique_ptr<ServiceEngine>> ServiceEngine::Create(const ClusterSpec& cluster,
                                                             EstimatorBank bank,
                                                             ServiceEngineOptions options) {
  std::unique_ptr<ServiceEngine> engine(new ServiceEngine(std::move(options)));
  MAYA_ASSIGN_OR_RETURN(
      engine->default_deployment_,
      engine->registry_.Register(kDefaultDeploymentName, cluster,
                                 std::make_shared<const EstimatorBank>(std::move(bank))));
  engine->Start();
  return engine;
}

Result<std::unique_ptr<ServiceEngine>> ServiceEngine::Create(
    const ClusterSpec& cluster, const KernelRuntimeEstimator* kernel_estimator,
    const CollectiveEstimator* collective_estimator, ServiceEngineOptions options) {
  std::unique_ptr<ServiceEngine> engine(new ServiceEngine(std::move(options)));
  MAYA_ASSIGN_OR_RETURN(engine->default_deployment_,
                        engine->registry_.RegisterBorrowed(kDefaultDeploymentName, cluster,
                                                           kernel_estimator,
                                                           collective_estimator));
  engine->Start();
  return engine;
}

void ServiceEngine::Start() {
  // A zero bound would reject every request; a service with no queue is a
  // misconfiguration, not a mode.
  options_.max_queue_weight = std::max(1.0, options_.max_queue_weight);
  paused_ = options_.start_paused;
  const int workers = std::max(1, options_.worker_threads);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Result<std::shared_ptr<const Deployment>> ServiceEngine::AddDeployment(
    const std::string& name, const ClusterSpec& cluster, EstimatorBank bank) {
  return registry_.Register(name, cluster, std::make_shared<const EstimatorBank>(std::move(bank)));
}

Result<std::unique_ptr<ServiceEngine>> ServiceEngine::FromArtifacts(
    const ClusterSpec& cluster, const ArtifactStore& store, ServiceEngineOptions options) {
  MAYA_ASSIGN_OR_RETURN(const std::vector<DeploymentRecord> records, store.LoadDeployments());
  // The requested cluster selects the default deployment.
  const auto default_it = FindByCluster(records, cluster);
  if (default_it == records.end()) {
    return Status::FailedPrecondition("artifact bundle holds no deployment for cluster " +
                                      cluster.ToString());
  }
  std::unique_ptr<ServiceEngine> engine(new ServiceEngine(std::move(options)));
  MAYA_ASSIGN_OR_RETURN(engine->default_deployment_,
                        engine->Restore(kDefaultDeploymentName, cluster, *default_it));
  for (auto it = records.begin(); it != records.end(); ++it) {
    if (it == default_it) {
      continue;
    }
    // The chosen default was registered under kDefaultDeploymentName, so a
    // bundle entry carrying that name (the saving engine's own default, when
    // a different cluster was selected here) would collide — keep it
    // addressable under a distinct name instead of failing the warm start.
    std::string name = it->name;
    int suffix = 2;
    while (engine->registry().IsResident(name)) {
      name = it->name + "@bundle" + (suffix > 2 ? std::to_string(suffix) : "");
      ++suffix;
    }
    MAYA_RETURN_IF_ERROR(engine->Restore(name, it->cluster, *it).status());
  }
  engine->Start();
  return engine;
}

Result<std::shared_ptr<const Deployment>> ServiceEngine::Restore(const std::string& name,
                                                                 const ClusterSpec& cluster,
                                                                 const DeploymentRecord& record) {
  MAYA_ASSIGN_OR_RETURN(std::shared_ptr<const Deployment> deployment,
                        registry_.Register(name, cluster, record.bank));
  deployment->pipeline->ImportKernelEstimates(record.kernel_cache);
  deployment->pipeline->ImportCollectiveEstimates(record.collective_cache);
  deployment->pipeline->ImportSimCache(record.sim_cache);
  const DeploymentUsage& usage = record.usage;
  if (usage.timed_requests > 0) {
    std::lock_guard<std::mutex> lock(timings_mutex_);
    stage_totals_.emulation_ms += usage.stage_totals.emulation_ms;
    stage_totals_.collation_ms += usage.stage_totals.collation_ms;
    stage_totals_.estimation_ms += usage.stage_totals.estimation_ms;
    stage_totals_.simulation_ms += usage.stage_totals.simulation_ms;
    timed_requests_ += usage.timed_requests;
    DeploymentTimings& per_deployment = deployment_timings_[deployment.get()];
    per_deployment.totals = usage.stage_totals;
    per_deployment.requests = usage.timed_requests;
  }
  return deployment;
}

ServiceEngine::~ServiceEngine() { Shutdown(); }

void ServiceEngine::Resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void ServiceEngine::Drain() {
  // Drain progress is observable out-of-band (the engine is busy quiescing):
  // the gauge holds queued + in-flight work remaining and drops to 0 when
  // the drain completes.
  Gauge& drain_remaining = MetricsRegistry::Instance().GetGauge(
      "maya_drain_remaining", "Queued + in-flight requests still draining");
  MetricsRegistry::Instance()
      .GetCounter("maya_drains_total", "Graceful drains started")
      .Increment();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  draining_ = true;
  paused_ = false;  // a paused engine's backlog must still drain
  drain_remaining.Set(static_cast<double>(ready_jobs_ + in_flight_));
  queue_cv_.notify_all();
  drained_cv_.wait(lock, [this, &drain_remaining] {
    drain_remaining.Set(static_cast<double>(ready_jobs_ + in_flight_));
    return ready_jobs_ == 0 && in_flight_ == 0;
  });
}

void ServiceEngine::Shutdown() {
  // Claim the worker threads under the lock: concurrent Shutdown callers
  // must never join the same std::thread twice.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    shutting_down_ = true;
    paused_ = false;  // a paused engine must still drain on shutdown
    workers.swap(workers_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers) {
    worker.join();
  }
}

ServiceResponse ServiceEngine::ErrorResponse(const ServiceRequest& request, const char* code,
                                             std::string message) {
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.ok = false;
  response.error_code = code;
  response.error = std::move(message);
  return response;
}

double ServiceEngine::WeightOf(const ServiceRequest& request) const {
  const RequestWeights& weights = options_.weights;
  switch (request.kind()) {
    case ServiceRequestKind::kPredict:
      return weights.predict;
    case ServiceRequestKind::kBatchPredict: {
      const auto& payload = std::get<BatchPredictPayload>(request.payload);
      // An empty batch still occupies one queue slot's worth of bookkeeping.
      return weights.batch_predict_item *
             static_cast<double>(std::max<size_t>(1, payload.configs.size()));
    }
    case ServiceRequestKind::kSearch:
      return weights.search;
    case ServiceRequestKind::kWhatIfOom:
      return weights.whatif_oom;
    case ServiceRequestKind::kTracePredict:
      return weights.trace_predict;
    case ServiceRequestKind::kAddDeployment:
      return weights.add_deployment;
    case ServiceRequestKind::kStats:
    case ServiceRequestKind::kCancel:
    case ServiceRequestKind::kMetrics:
    case ServiceRequestKind::kDumpTrace:
    case ServiceRequestKind::kRemoveDeployment:
    case ServiceRequestKind::kHealth:
      return 0.0;  // control kinds never queue
  }
  return 0.0;
}

std::string ServiceEngine::TargetNameOf(const ServiceRequest& request) const {
  const auto resolved = [this](const std::string& deployment) {
    return deployment.empty() ? default_deployment_->name : deployment;
  };
  switch (request.kind()) {
    case ServiceRequestKind::kPredict:
      return resolved(std::get<PredictPayload>(request.payload).deployment);
    case ServiceRequestKind::kBatchPredict:
      return resolved(std::get<BatchPredictPayload>(request.payload).deployment);
    case ServiceRequestKind::kSearch:
      return resolved(std::get<SearchPayload>(request.payload).deployment);
    case ServiceRequestKind::kWhatIfOom:
      return resolved(std::get<WhatIfOomPayload>(request.payload).deployment);
    case ServiceRequestKind::kTracePredict:
      return resolved(std::get<TracePredictPayload>(request.payload).deployment);
    case ServiceRequestKind::kAddDeployment:
      // The name being registered: a concurrent remove of a half-added
      // deployment is refused as busy rather than racing the registration.
      return std::get<AddDeploymentPayload>(request.payload).name;
    case ServiceRequestKind::kStats:
    case ServiceRequestKind::kCancel:
    case ServiceRequestKind::kMetrics:
    case ServiceRequestKind::kDumpTrace:
    case ServiceRequestKind::kRemoveDeployment:
    case ServiceRequestKind::kHealth:
      return std::string();
  }
  return std::string();
}

void ServiceEngine::PushReady(std::shared_ptr<Job> job) {
  ReadyClass& ready = ready_[job->request.payload.index()];
  if (ready.jobs.empty()) {
    // Re-entry after idling starts at the current virtual time — a class
    // cannot bank credit while it has nothing queued.
    ready.pass = std::max(ready.pass, virtual_time_);
  }
  job->sequence = ++enqueue_sequence_;
  ready.jobs.push_back(std::move(job));
  ++ready_jobs_;
}

std::shared_ptr<ServiceEngine::Job> ServiceEngine::PopReady() {
  ReadyClass* best = nullptr;
  for (ReadyClass& ready : ready_) {
    if (ready.jobs.empty()) {
      continue;
    }
    if (best == nullptr || ready.pass < best->pass ||
        (ready.pass == best->pass &&
         ready.jobs.front()->sequence < best->jobs.front()->sequence)) {
      best = &ready;
    }
  }
  std::shared_ptr<Job> job = std::move(best->jobs.front());
  best->jobs.pop_front();
  --ready_jobs_;
  // The chosen class pays for its service: its pass advances by the job's
  // weight, so a search-class dequeue cedes the next 16 weight-1 slots to
  // lighter classes before its next turn.
  virtual_time_ = best->pass;
  best->pass += job->weight;
  return job;
}

std::future<ServiceResponse> ServiceEngine::Submit(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  Submit(std::move(request),
         [promise](ServiceResponse response) { promise->set_value(std::move(response)); });
  return future;
}

void ServiceEngine::Submit(ServiceRequest request, ResponseCallback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Control kinds answer synchronously: they read or mutate engine state and
  // must not queue behind compute work.
  if (request.kind() == ServiceRequestKind::kHealth) {
    // Health is the failover probe: it must answer (and answer fast) even
    // when the queue is saturated or the engine is draining, so it never
    // takes a queue slot and is exempt from the admission fault site.
    ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind();
    response.ok = true;
    response.health = Health();
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  if (request.kind() == ServiceRequestKind::kStats) {
    ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind();
    response.ok = true;
    response.stats = stats();
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  if (request.kind() == ServiceRequestKind::kCancel) {
    ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind();
    response.ok = true;
    response.cancel_found = Cancel(std::get<CancelPayload>(request.payload).target_id);
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  if (request.kind() == ServiceRequestKind::kMetrics) {
    ServiceResponse response = ExecuteMetrics(request);
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  if (request.kind() == ServiceRequestKind::kDumpTrace) {
    ServiceResponse response = ExecuteDumpTrace(request);
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  if (request.kind() == ServiceRequestKind::kRemoveDeployment) {
    ServiceResponse response = ExecuteRemoveDeployment(
        request, std::get<RemoveDeploymentPayload>(request.payload));
    completed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }

  // Admission fault site: an injected failure refuses this one submission
  // (never touching queue state) and leaves the engine serving.
  const Status submit_fault = FaultInjection::Instance().MaybeFail("service.submit");
  if (!submit_fault.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    done(ErrorResponse(request, kErrInternalError, submit_fault.ToString()));
    return;
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->done = std::move(done);
  job->weight = WeightOf(job->request);
  job->target = TargetNameOf(job->request);
  job->enqueued = std::chrono::steady_clock::now();
  job->deadline = job->request.deadline_ms > 0.0
                      ? job->enqueued +
                            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    job->request.deadline_ms))
                      : std::chrono::steady_clock::time_point::max();
  // Every queued job carries a CancelToken so cancel/deadline reach it even
  // mid-execution; the deadline is armed before the job is shared with any
  // worker thread.
  job->cancel = std::make_shared<CancelToken>();
  if (job->deadline != std::chrono::steady_clock::time_point::max()) {
    job->cancel->ArmDeadline(job->deadline);
  }
  if (Telemetry::IsActive()) {
    job->trace_id = Telemetry::Instance().NextTraceId();
  }
  job->conn_id = Telemetry::CurrentContext().conn_id;
  // Rejections resolve OUTSIDE the lock: the callback may re-enter transport
  // state (the TCP server's connection mutex) that must never nest inside
  // queue_mutex_ the other way around.
  ServiceResponse rejection;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutting_down_ || draining_) {
      rejected = true;
      rejection =
          ErrorResponse(job->request, kErrShuttingDown,
                        draining_ ? "engine is draining" : "engine is shutting down");
    } else if (ready_jobs_ != 0 &&
               queued_weight_ + job->weight > options_.max_queue_weight) {
      // Weighted admission: the queue admits while summed weight stays under
      // the bound. An empty queue admits anything — otherwise one request
      // heavier than the whole bound (a search against a small bound) could
      // never be served.
      rejected = true;
      rejection = ErrorResponse(
          job->request, kErrQueueFull,
          StrFormat("queued weight %.1f + %.1f (%s) exceeds bound %.1f", queued_weight_,
                    job->weight, ServiceRequestKindName(job->request.kind()),
                    options_.max_queue_weight));
    } else {
      queued_weight_ += job->weight;
      PushReady(job);
    }
  }
  if (rejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    job->done(std::move(rejection));
    return;
  }
  queue_cv_.notify_one();
}

bool ServiceEngine::Cancel(uint64_t id) {
  std::shared_ptr<Job> victim;
  std::shared_ptr<CancelToken> executing;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (ReadyClass& ready : ready_) {
      for (auto it = ready.jobs.begin(); it != ready.jobs.end(); ++it) {
        if ((*it)->request.id == id) {
          victim = *it;
          ready.jobs.erase(it);
          --ready_jobs_;
          queued_weight_ -= victim->weight;
          break;
        }
      }
      if (victim != nullptr) {
        break;
      }
    }
    if (victim == nullptr) {
      // Not queued — maybe a worker is executing it right now. Signalling
      // the token under the same lock that registered it means the request
      // either observes the cancel at its next stage checkpoint or has
      // already deregistered (finished) and we report not-found.
      if (auto it = executing_.find(id); it != executing_.end()) {
        executing = it->second;
      }
    }
  }
  if (victim != nullptr) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    NoteGovernance(victim->target, /*was_cancelled=*/true);
    victim->done(ErrorResponse(victim->request, kErrCancelled, "cancelled while queued"));
    return true;
  }
  if (executing != nullptr) {
    // The executing worker counts the outcome when its CANCELLED response
    // resolves (the request may still complete if it was past its last
    // checkpoint — then this cancel was simply too late).
    executing->Cancel();
    return true;
  }
  return false;
}

void ServiceEngine::WorkerLoop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return (ready_jobs_ != 0 && !paused_) || (shutting_down_ && ready_jobs_ == 0);
      });
      if (ready_jobs_ == 0) {
        return;  // shutting down, queue drained
      }
      job = PopReady();
      queued_weight_ -= job->weight;
      ++in_flight_;
      if (!job->target.empty()) {
        ++active_targets_[job->target];
      }
    }
    const auto dequeued_at = std::chrono::steady_clock::now();
    // Release the busy-tracking claim BEFORE resolving the response: a
    // caller that has observed the response must be able to
    // remove_deployment without a spurious DEPLOYMENT_BUSY. Late holders
    // are safe — deployments are shared_ptr-owned.
    const auto release_target = [this, &job] {
      if (job->target.empty()) {
        return;
      }
      std::lock_guard<std::mutex> lock(queue_mutex_);
      auto active = active_targets_.find(job->target);
      if (active != active_targets_.end() && --active->second == 0) {
        active_targets_.erase(active);
      }
    };
    const double queue_wait_us =
        std::chrono::duration<double, std::micro>(dequeued_at - job->enqueued).count();
    const size_t kind_index = job->request.payload.index();
    kind_latency_[kind_index].queue_wait.Record(queue_wait_us);
    if (job->trace_id != 0) {
      // The queue-wait span is recorded retroactively at dequeue (its start
      // is back-dated to admission) — a queued request has no thread to
      // carry a live span.
      TraceEvent event;
      event.name = "queue_wait";
      event.category = "request";
      event.trace_id = job->trace_id;
      event.conn_id = job->conn_id;
      event.ts_us = Telemetry::NowUs() - queue_wait_us;
      event.dur_us = queue_wait_us;
      Telemetry::Instance().Record(event);
    }
    if (dequeued_at > job->deadline) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      NoteGovernance(job->target, /*was_cancelled=*/false);
      release_target();
      job->done(
          ErrorResponse(job->request, kErrDeadlineExceeded, "deadline expired in queue"));
    } else {
      // Register the token so Cancel(id) reaches this executing request.
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        executing_[job->request.id] = job->cancel;
      }
      ServiceResponse response;
      {
        // Root span of the request: every span the pipeline (and the pool
        // tasks it fans out) records below runs under this trace id and
        // carries the submitting connection's id.
        ScopedTraceContext trace_context(TraceContext{job->trace_id, job->conn_id});
        ScopedSpan span(ServiceRequestKindName(job->request.kind()), "request");
        // Worker fault site: an injected failure here loses exactly this
        // job — its response still resolves (INTERNAL_ERROR), the worker
        // survives.
        const Status worker_fault = FaultInjection::Instance().MaybeFail("service.worker");
        if (!worker_fault.ok()) {
          response = ErrorResponse(job->request, kErrInternalError, worker_fault.ToString());
        } else if (job->request.kind() == ServiceRequestKind::kAddDeployment) {
          // Fleet mutation runs on the worker, outside the const Execute().
          response = ExecuteAddDeployment(
              job->request, std::get<AddDeploymentPayload>(job->request.payload));
        } else {
          response = Execute(job->request, job->cancel.get());
        }
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        executing_.erase(job->request.id);
      }
      // Governance accounting for requests interrupted mid-execution (the
      // queued paths count themselves at their resolve sites).
      if (!response.ok) {
        if (response.error_code == kErrCancelled) {
          cancelled_.fetch_add(1, std::memory_order_relaxed);
          NoteGovernance(job->target, /*was_cancelled=*/true);
        } else if (response.error_code == kErrDeadlineExceeded) {
          deadline_expired_.fetch_add(1, std::memory_order_relaxed);
          NoteGovernance(job->target, /*was_cancelled=*/false);
        }
      }
      const double latency_us = std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - job->enqueued)
                                    .count();
      kind_latency_[kind_index].latency.Record(latency_us);
      // Count before publishing: a caller that observed the response must
      // also observe the completion in stats().
      completed_.fetch_add(1, std::memory_order_relaxed);
      release_target();
      job->done(std::move(response));
      // Slow-request accounting: flushes this request's span tree to the
      // trace sink when the threshold is armed and exceeded.
      Telemetry::Instance().OnRequestComplete(job->trace_id, latency_us / 1000.0);
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
    }
    drained_cv_.notify_all();
  }
}

Result<std::shared_ptr<const Deployment>> ServiceEngine::ResolveDeployment(
    const std::string& name) const {
  if (name.empty() || name == default_deployment_->name) {
    return default_deployment_;
  }
  return registry_.Resolve(name);
}

Result<PredictResult> ServiceEngine::RunPredict(const Deployment& deployment,
                                                const ModelConfig& model,
                                                const TrainConfig& config,
                                                bool deduplicate_workers, bool virtual_folds,
                                                const CancelToken* cancel) const {
  PredictionRequest predict;
  predict.model = model;
  predict.config = config;
  predict.deduplicate_workers = deduplicate_workers;
  predict.virtual_folds = virtual_folds;
  predict.cancel = cancel;
  Result<PredictionReport> report = deployment.pipeline->Predict(predict);
  if (!report.ok()) {
    return report.status();
  }
  PredictResult result;
  result.oom = report->oom;
  result.oom_detail = report->oom_detail;
  if (!report->oom) {
    result.iteration_time_us = report->iteration_time_us;
    result.mfu = report->mfu;
    result.peak_memory_bytes = report->sim.peak_memory_bytes;
  }
  result.timings = report->timings;
  result.estimation = report->estimation;
  result.simulation = report->simulation;
  result.trace_cache_hit = report->trace_cache_hit;
  AccumulateStageTimings(deployment, report->timings);
  return result;
}

template <typename Payload>
ServiceResponse ServiceEngine::ExecutePredictLike(const ServiceRequest& request,
                                                  const Payload& payload,
                                                  const CancelToken* cancel) const {
  Result<std::shared_ptr<const Deployment>> deployment = ResolveDeployment(payload.deployment);
  if (!deployment.ok()) {
    return ErrorResponse(request, ErrorCodeFor(deployment.status()),
                         deployment.status().ToString());
  }
  bool virtual_folds = payload.virtual_folds;
  if constexpr (std::is_same_v<Payload, PredictPayload>) {
    virtual_folds = virtual_folds || payload.selective_launch;
  }
  Result<PredictResult> result = RunPredict(**deployment, payload.model, payload.config,
                                            payload.deduplicate_workers, virtual_folds, cancel);
  if (!result.ok()) {
    return ErrorResponse(request, ErrorCodeFor(result.status()), result.status().ToString());
  }
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.ok = true;
  AssignPredictResult(response, *result);
  return response;
}

ServiceResponse ServiceEngine::ExecuteBatchPredict(const ServiceRequest& request,
                                                   const BatchPredictPayload& payload,
                                                   const CancelToken* cancel) const {
  Result<std::shared_ptr<const Deployment>> deployment = ResolveDeployment(payload.deployment);
  if (!deployment.ok()) {
    return ErrorResponse(request, ErrorCodeFor(deployment.status()),
                         deployment.status().ToString());
  }
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.batch.resize(payload.configs.size());
  // Items run sequentially against the one resolved pipeline, so the batch
  // is bit-identical to the same predicts issued as N sequential requests
  // (asserted in tests) — the batch buys one queue slot and one resolve, not
  // a different execution semantics.
  //
  // Execution order is cache-aware: items are stable-grouped by config cache
  // key, so fingerprint twins (repeated or near-identical configurations,
  // whose cache keys sort adjacently) run back to back and the first of each
  // group warms the trace/sim/estimate caches for the rest. All pipeline
  // caches are output-preserving, so any execution order yields the same
  // per-item results; response slots keep submission order regardless.
  std::vector<size_t> order(payload.configs.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::vector<std::string> keys(payload.configs.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = payload.configs[i].CacheKey();
  }
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  for (size_t index : order) {
    // Each item re-threads the token, so a cancelled batch stops at the next
    // stage checkpoint of the item in flight (never mid-cache-publish).
    Result<PredictResult> result =
        RunPredict(**deployment, payload.model, payload.configs[index],
                   payload.deduplicate_workers, payload.virtual_folds, cancel);
    if (!result.ok()) {
      return ErrorResponse(request, ErrorCodeFor(result.status()),
                           StrFormat("batch item %zu: ", index) + result.status().ToString());
    }
    response.batch[index] = *std::move(result);
  }
  response.ok = true;
  return response;
}

void ServiceEngine::AccumulateStageTimings(const Deployment& deployment,
                                           const StageTimings& timings) const {
  std::lock_guard<std::mutex> lock(timings_mutex_);
  stage_totals_.emulation_ms += timings.emulation_ms;
  stage_totals_.collation_ms += timings.collation_ms;
  stage_totals_.estimation_ms += timings.estimation_ms;
  stage_totals_.simulation_ms += timings.simulation_ms;
  ++timed_requests_;
  DeploymentTimings& per_deployment = deployment_timings_[&deployment];
  per_deployment.totals.emulation_ms += timings.emulation_ms;
  per_deployment.totals.collation_ms += timings.collation_ms;
  per_deployment.totals.estimation_ms += timings.estimation_ms;
  per_deployment.totals.simulation_ms += timings.simulation_ms;
  ++per_deployment.requests;
}

ServiceResponse ServiceEngine::ExecuteSearch(const ServiceRequest& request,
                                             const SearchPayload& payload,
                                             const CancelToken* cancel) const {
  Result<std::shared_ptr<const Deployment>> deployment = ResolveDeployment(payload.deployment);
  if (!deployment.ok()) {
    return ErrorResponse(request, ErrorCodeFor(deployment.status()),
                         deployment.status().ToString());
  }
  const int64_t global_batch =
      payload.global_batch > 0 ? payload.global_batch : DefaultGlobalBatch(payload.model);
  const ConfigSpace space = ConfigSpace::MegatronTable5(global_batch);
  SearchOptions search_options = payload.search;
  search_options.cancel = cancel;
  Result<SearchOutcome> search =
      RunSearch(*(*deployment)->pipeline, payload.model, space, search_options);
  if (!search.ok()) {
    // A partially-failed search would silently diverge from the fault-free
    // outcome, so a trial failure fails the whole request.
    return ErrorResponse(request, ErrorCodeFor(search.status()), search.status().ToString());
  }
  const SearchOutcome& outcome = *search;
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.ok = true;
  response.found = outcome.found;
  response.best_config = outcome.best_config;
  response.best_mfu = outcome.best_mfu;
  response.best_iteration_us = outcome.best_iteration_us;
  response.samples = outcome.samples;
  response.executed = outcome.executed;
  response.cached = outcome.cached;
  response.skipped = outcome.skipped;
  response.search_oom = outcome.oom;
  response.estimation = outcome.estimation_totals;
  response.simulation = outcome.simulation_totals;
  response.timings = outcome.stage_totals;
  AccumulateStageTimings(**deployment, outcome.stage_totals);
  return response;
}

ServiceResponse ServiceEngine::ExecuteTracePredict(const ServiceRequest& request,
                                                   const TracePredictPayload& payload,
                                                   const CancelToken* cancel) const {
  Result<std::shared_ptr<const Deployment>> deployment = ResolveDeployment(payload.deployment);
  if (!deployment.ok()) {
    return ErrorResponse(request, ErrorCodeFor(deployment.status()),
                         deployment.status().ToString());
  }
  // The trace arrives pre-collated: run stages 3+4 only. Stage 4 goes
  // through the deployment pipeline's simulator, so repeated trace_predicts
  // share its cross-trial sim cache.
  JobTrace job = payload.trace;
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  Result<EstimationStats> annotated =
      (*deployment)->pipeline->AnnotateDurations(job, nullptr, cancel);
  if (!annotated.ok()) {
    return ErrorResponse(request, ErrorCodeFor(annotated.status()),
                         annotated.status().ToString());
  }
  response.estimation = *annotated;
  Result<SimReport> sim =
      (*deployment)->pipeline->Simulate(job, /*unused=*/true, cancel);
  if (!sim.ok()) {
    return ErrorResponse(request, ErrorCodeFor(sim.status()), sim.status().ToString());
  }
  response.ok = true;
  response.oom = false;
  response.iteration_time_us = sim->total_time_us;
  response.peak_memory_bytes = sim->peak_memory_bytes;
  response.simulation = sim->stats;
  // MFU needs a model + batch; a raw trace carries neither, so it stays 0.
  return response;
}

ServiceResponse ServiceEngine::Execute(const ServiceRequest& request,
                                       const CancelToken* cancel) const {
  switch (request.kind()) {
    case ServiceRequestKind::kPredict:
      return ExecutePredictLike(request, std::get<PredictPayload>(request.payload), cancel);
    case ServiceRequestKind::kWhatIfOom:
      return ExecutePredictLike(request, std::get<WhatIfOomPayload>(request.payload),
                                cancel);
    case ServiceRequestKind::kBatchPredict:
      return ExecuteBatchPredict(request, std::get<BatchPredictPayload>(request.payload),
                                 cancel);
    case ServiceRequestKind::kSearch:
      return ExecuteSearch(request, std::get<SearchPayload>(request.payload), cancel);
    case ServiceRequestKind::kTracePredict:
      return ExecuteTracePredict(request, std::get<TracePredictPayload>(request.payload),
                                 cancel);
    case ServiceRequestKind::kHealth: {
      ServiceResponse response;
      response.id = request.id;
      response.kind = request.kind();
      response.ok = true;
      response.health = Health();
      return response;
    }
    case ServiceRequestKind::kStats: {
      ServiceResponse response;
      response.id = request.id;
      response.kind = request.kind();
      response.ok = true;
      response.stats = stats();
      return response;
    }
    case ServiceRequestKind::kCancel:
      return ErrorResponse(request, kErrInvalidRequest,
                           "cancel is a control request; submit it through the engine");
    case ServiceRequestKind::kMetrics:
      return ExecuteMetrics(request);
    case ServiceRequestKind::kDumpTrace:
      return ExecuteDumpTrace(request);
    case ServiceRequestKind::kAddDeployment:
      return ErrorResponse(request, kErrInvalidRequest,
                           "add_deployment mutates the fleet; submit it through the engine");
    case ServiceRequestKind::kRemoveDeployment:
      return ErrorResponse(
          request, kErrInvalidRequest,
          "remove_deployment is a control request; submit it through the engine");
  }
  return ErrorResponse(request, kErrInvalidRequest, "unknown request kind");
}

ServiceResponse ServiceEngine::ExecuteAddDeployment(const ServiceRequest& request,
                                                    const AddDeploymentPayload& payload) {
  if (payload.name.empty()) {
    return ErrorResponse(request, kErrInvalidRequest,
                         "add_deployment requires a non-empty deployment name");
  }
  if (registry_.IsResident(payload.name)) {
    return ErrorResponse(request, kErrInvalidRequest,
                         "deployment '" + payload.name + "' is already resident");
  }
  Result<ClusterSpec> cluster = ClusterSpecByName(payload.cluster);
  if (!cluster.ok()) {
    return ErrorResponse(request, ErrorCodeFor(cluster.status()),
                         cluster.status().ToString());
  }
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.deployment = payload.name;
  if (!payload.bundle_dir.empty()) {
    // Bundle-backed add: restore the matching deployment's estimators and
    // warm caches instead of re-training. The whole bundle is parsed and
    // validated before anything is registered, so a damaged bundle leaves
    // the registry (and the journal) untouched.
    const Result<std::vector<DeploymentRecord>> records =
        ArtifactStore(payload.bundle_dir).LoadDeployments();
    if (!records.ok()) {
      return ErrorResponse(request, ErrorCodeFor(records.status()),
                           records.status().ToString());
    }
    const auto match = FindByCluster(*records, *cluster);
    if (match == records->end()) {
      return ErrorResponse(
          request, kErrInvalidRequest,
          "bundle '" + payload.bundle_dir + "' holds no deployment for cluster '" +
              payload.cluster + "'");
    }
    Result<std::shared_ptr<const Deployment>> added = Restore(payload.name, *cluster, *match);
    if (!added.ok()) {
      return ErrorResponse(request, ErrorCodeFor(added.status()), added.status().ToString());
    }
    response.warmed_entries = match->cache_entries();
  } else {
    // Cold-start add: the same deterministic training path maya_serve uses,
    // so two engines that add the same deployment answer bit-identically.
    Result<ProfileSweepOptions> sweep = ProfileSweepPreset(payload.sweep);
    if (!sweep.ok()) {
      return ErrorResponse(request, ErrorCodeFor(sweep.status()), sweep.status().ToString());
    }
    const GroundTruthExecutor executor(*cluster, /*seed=*/0x9f0f);
    Result<std::shared_ptr<const Deployment>> added =
        AddDeployment(payload.name, *cluster, TrainEstimators(*cluster, executor, *sweep));
    if (!added.ok()) {
      return ErrorResponse(request, ErrorCodeFor(added.status()), added.status().ToString());
    }
    response.trained = true;
  }
  // Durability barrier: the add is acknowledged only once its journal record
  // is fsync'd. A failed append rolls the registration back — an
  // unacknowledged mutation must not outlive a restart the journal cannot
  // replay it into.
  if (journal_ != nullptr) {
    if (Status logged = journal_->AppendAdd(payload); !logged.ok()) {
      registry_.Remove(payload.name);
      return ErrorResponse(
          request, kErrJournal,
          "fleet journal append failed (add rolled back): " + logged.ToString());
    }
  }
  response.ok = true;
  MaybeCheckpoint();
  return response;
}

ServiceResponse ServiceEngine::ExecuteRemoveDeployment(
    const ServiceRequest& request, const RemoveDeploymentPayload& payload) {
  if (payload.name.empty() || payload.name == default_deployment_->name) {
    return ErrorResponse(request, kErrInvalidRequest,
                         "cannot remove the default deployment");
  }
  {
    // The busy check and the unregistration are atomic with admission and
    // dequeue: a job targeting the name is either still queued/executing
    // (refused busy here) or was never admitted (later submissions fail to
    // resolve the name). In-flight holders of the Deployment shared_ptr
    // finish safely after removal either way.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    uint64_t queued = 0;
    for (const ReadyClass& ready : ready_) {
      for (const std::shared_ptr<Job>& job : ready.jobs) {
        if (job->target == payload.name) {
          ++queued;
        }
      }
    }
    uint64_t executing = 0;
    if (auto active = active_targets_.find(payload.name); active != active_targets_.end()) {
      executing = active->second;
    }
    if (queued + executing > 0) {
      return ErrorResponse(
          request, kErrDeploymentBusy,
          StrFormat("deployment '%s' is busy: %llu queued + %llu executing request(s) "
                    "target it; retry after they settle",
                    payload.name.c_str(), static_cast<unsigned long long>(queued),
                    static_cast<unsigned long long>(executing)));
    }
    // Journal BEFORE the in-memory removal (lock order: queue_mutex_ →
    // journal mutex): a failed append refuses the remove with the registry
    // untouched, so an unjournaled removal can never be acknowledged. The
    // converse window — record journaled, Remove then fails NotFound (the
    // name was never a pinned registration) — leaves a remove record for an
    // absent name, which recovery replays as a no-op.
    if (journal_ != nullptr) {
      if (Status logged = journal_->AppendRemove(payload.name); !logged.ok()) {
        return ErrorResponse(request, kErrJournal,
                             "fleet journal append failed (remove refused): " +
                                 logged.ToString());
      }
    }
    const Status removed = registry_.Remove(payload.name);
    if (!removed.ok()) {
      return ErrorResponse(request, ErrorCodeFor(removed), removed.ToString());
    }
  }
  ServiceResponse response;
  response.id = request.id;
  response.kind = request.kind();
  response.ok = true;
  response.deployment = payload.name;
  response.removed = true;
  MaybeCheckpoint();
  return response;
}

void ServiceEngine::NoteGovernance(const std::string& target, bool was_cancelled) const {
  if (target.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(timings_mutex_);
  GovernanceCounters& counters = deployment_governance_[target];
  if (was_cancelled) {
    ++counters.cancelled;
  } else {
    ++counters.deadline_expired;
  }
}

void ServiceEngine::MaybeCheckpoint() {
  if (journal_ == nullptr || !journal_->CheckpointDue()) {
    return;
  }
  // Assemble per-deployment usage (the same counters SaveRegistry persists
  // at graceful shutdown) so checkpointed bundles restore stage totals too.
  std::map<std::string, DeploymentUsage> usage;
  const std::vector<std::shared_ptr<const Deployment>> resident =
      registry_.ResidentDeployments();
  {
    std::lock_guard<std::mutex> lock(timings_mutex_);
    for (const std::shared_ptr<const Deployment>& deployment : resident) {
      auto timed = deployment_timings_.find(deployment.get());
      if (timed != deployment_timings_.end()) {
        usage[deployment->name] = {timed->second.totals, timed->second.requests};
      }
    }
  }
  // Advisory: a failed checkpoint (disk, injected fault) keeps the previous
  // checkpoint + full journal — the fleet stays durable, replay just costs
  // more. The journal's failure counters surface it via health/metrics.
  (void)journal_->Checkpoint(registry_, usage);
}

HealthStatus ServiceEngine::Health() const {
  HealthStatus health;
  health.live = true;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    health.draining = draining_ || shutting_down_;
    health.queue_depth = ready_jobs_;
    // Ready = willing to admit new compute work: not quiescing, and the
    // transport has not flipped readiness off ahead of its own drain. A
    // paused engine still admits (it queues), so pause does not unready.
    health.ready = !draining_ && !shutting_down_ &&
                   transport_ready_.load(std::memory_order_acquire);
  }
  if (journal_ != nullptr) {
    const FleetJournalStats journal = journal_->stats();
    health.journal_enabled = true;
    health.journal_appends = journal.appends;
    health.journal_lag = journal.lag;
    health.journal_append_failures = journal.append_failures;
    health.checkpoints = journal.checkpoints;
    health.last_checkpoint_age_s = journal.last_checkpoint_age_s;
    health.replayed_records = journal.replayed_records;
    health.torn_records_dropped = journal.torn_records_dropped;
  }
  return health;
}

ServiceResponse ServiceEngine::ExecuteMetrics(const ServiceRequest& request) const {
  ServiceResponse response;
  response.id = request.id;
  response.kind = ServiceRequestKind::kMetrics;
  response.ok = true;
  response.metrics = MetricsExporter(*this).Collect();
  return response;
}

ServiceResponse ServiceEngine::ExecuteDumpTrace(const ServiceRequest& request) const {
  ServiceResponse response;
  response.id = request.id;
  response.kind = ServiceRequestKind::kDumpTrace;
  size_t exported = 0;
  std::string trace_json = Telemetry::Instance().ExportChromeTrace(0, &exported);
  response.trace_events = exported;
  if (options_.trace_dir.empty()) {
    response.trace_json = std::move(trace_json);
    response.ok = true;
    return response;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.trace_dir, ec);
  const uint64_t sequence = trace_dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string path =
      options_.trace_dir + "/trace_" + std::to_string(sequence) + ".json";
  const Status written = WriteTextFile(path, trace_json);
  if (!written.ok()) {
    return ErrorResponse(request, kErrInternalError, written.ToString());
  }
  response.trace_path = path;
  response.ok = true;
  return response;
}

ServiceStats ServiceEngine::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = ready_jobs_;
    stats.queued_weight = queued_weight_;
  }
  stats.max_queue_weight = options_.max_queue_weight;
  stats.deployments = registry_.ResidentNames();
  stats.registered_deployments = registry_.registered_count();
  stats.derived_deployments = registry_.derived_count();
  const MayaPipeline& pipeline = *default_deployment_->pipeline;
  stats.kernel_cache = pipeline.KernelCacheStats();
  stats.collective_cache = pipeline.CollectiveCacheStats();
  stats.trace_cache = pipeline.TraceCacheStats();
  stats.sim_cache = pipeline.SimCacheStats();
  // Per-deployment cache/stage counters for every resident entry (PR 4
  // follow-up: previously only the default deployment's caches surfaced).
  const std::vector<std::shared_ptr<const Deployment>> resident =
      registry_.ResidentDeployments();
  stats.per_deployment.reserve(resident.size());
  for (const std::shared_ptr<const Deployment>& deployment : resident) {
    DeploymentStats entry;
    entry.name = deployment->name;
    entry.derived = !deployment->derived_from.empty();
    entry.kernel_cache = deployment->pipeline->KernelCacheStats();
    entry.collective_cache = deployment->pipeline->CollectiveCacheStats();
    entry.trace_cache = deployment->pipeline->TraceCacheStats();
    entry.sim_cache = deployment->pipeline->SimCacheStats();
    stats.per_deployment.push_back(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(timings_mutex_);
    stats.stage_totals = stage_totals_;
    stats.timed_requests = timed_requests_;
    for (size_t i = 0; i < resident.size(); ++i) {
      auto timed = deployment_timings_.find(resident[i].get());
      if (timed != deployment_timings_.end()) {
        stats.per_deployment[i].stage_totals = timed->second.totals;
        stats.per_deployment[i].timed_requests = timed->second.requests;
      }
      auto governed = deployment_governance_.find(resident[i]->name);
      if (governed != deployment_governance_.end()) {
        stats.per_deployment[i].cancelled = governed->second.cancelled;
        stats.per_deployment[i].deadline_expired = governed->second.deadline_expired;
      }
    }
    // Evicted deployments' totals are dead weight (their identity can never
    // recur); drop them so name churn on derived entries stays bounded.
    for (auto it = deployment_timings_.begin(); it != deployment_timings_.end();) {
      const bool is_resident =
          std::any_of(resident.begin(), resident.end(),
                      [&it](const std::shared_ptr<const Deployment>& deployment) {
                        return deployment.get() == it->first;
                      });
      it = is_resident ? std::next(it) : deployment_timings_.erase(it);
    }
    // Same pruning for governance counters (keyed by name, so a re-added
    // name starts fresh — matching its fresh caches and timings).
    for (auto it = deployment_governance_.begin(); it != deployment_governance_.end();) {
      const bool is_resident =
          std::any_of(resident.begin(), resident.end(),
                      [&it](const std::shared_ptr<const Deployment>& deployment) {
                        return deployment->name == it->first;
                      });
      it = is_resident ? std::next(it) : deployment_governance_.erase(it);
    }
  }
  // Queue-wait + end-to-end latency percentiles per kind; kinds never
  // executed by the worker pool are omitted.
  const auto summarize = [](const LatencyHistogram& histogram) {
    LatencyPercentiles p;
    p.count = histogram.count();
    p.p50_us = histogram.Percentile(50.0);
    p.p95_us = histogram.Percentile(95.0);
    p.p99_us = histogram.Percentile(99.0);
    return p;
  };
  for (size_t i = 0; i < kind_latency_.size(); ++i) {
    const KindLatency& kind = kind_latency_[i];
    if (kind.queue_wait.count() == 0 && kind.latency.count() == 0) {
      continue;
    }
    KindLatencyStats entry;
    entry.kind = ServiceRequestKindName(static_cast<ServiceRequestKind>(i));
    entry.queue_wait = summarize(kind.queue_wait);
    entry.latency = summarize(kind.latency);
    stats.latency.push_back(std::move(entry));
  }
  return stats;
}

}  // namespace maya
