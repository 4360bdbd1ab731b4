// Multi-tenant prediction service over a fleet of deployments: a
// DeploymentRegistry of warm pipelines (per-arch trained estimator banks +
// sharded estimate caches) behind a weighted, bounded job queue and a worker
// pool, so many callers share the cost of training and cache warm-up instead
// of each paying cold-start (§5's many-what-ifs-per-estimator usage pattern
// at service scale — across every registered architecture, not just the
// cluster the engine was trained on).
//
// Concurrency model: Submit() enqueues and returns a future; worker threads
// drain the queue and execute requests against the shared pipelines (Predict
// is thread-safe; caches are lock-striped). Backpressure is weighted
// admission control: every compute kind carries a weight (search occupies a
// worker for seconds, a predict for milliseconds), the queue admits work
// while the summed weight stays under the bound, and an over-bound request
// is answered QUEUE_FULL immediately rather than building unbounded latency.
// An over-weight request still admits when the queue is idle — otherwise a
// small bound could never serve a search at all. Per-request deadlines are
// re-checked at dequeue, so requests that aged out in the queue never burn
// worker time. Queued requests can be cancelled by id; executing requests
// carry a CancelToken threaded through every pipeline stage boundary, so
// cancel and deadline expiry interrupt them at the next stage checkpoint
// (typed CANCELLED / DEADLINE_EXCEEDED responses, bounded worker-release
// latency) without publishing anything into the shared caches.
//
// Dequeue order is weighted virtual-time scheduling across per-kind ready
// classes (see ReadyClass below), not FIFO: cheap queued predicts overtake a
// backlog of heavy searches in proportion to the same weights admission
// uses, while a single-kind workload still executes in submission order.
#ifndef SRC_SERVICE_SERVICE_ENGINE_H_
#define SRC_SERVICE_SERVICE_ENGINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/core/deployment_registry.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/service/protocol.h"

namespace maya {

class ArtifactStore;
struct DeploymentRecord;
class FleetJournal;

// Admission-control weights: how much of the queue bound one queued request
// of each kind occupies. Ratios should track execution cost (search runs
// thousands of trials; a predict runs one).
struct RequestWeights {
  double predict = 1.0;
  // Per config in the batch: a 10-config batch_predict weighs 10 predicts.
  double batch_predict_item = 1.0;
  double whatif_oom = 1.0;
  double trace_predict = 1.0;
  double search = 16.0;
  // add_deployment cold-start trains estimators — it occupies a worker the
  // way a search does.
  double add_deployment = 16.0;
};

struct ServiceEngineOptions {
  int worker_threads = 4;
  // Queue bound in summed request weight (NOT a raw request count).
  double max_queue_weight = 64.0;
  RequestWeights weights;
  // Pipeline knobs — including the shared ExecutionContext whose single pool
  // both the emulation and estimation stages (of every deployment) borrow.
  MayaPipelineOptions pipeline;
  // Construct with the queue paused (workers idle until Resume()) — lets
  // tests and staged startups fill the queue deterministically.
  bool start_paused = false;
  // When non-empty, `dump_trace` requests write their Chrome trace JSON to
  // `trace_dir/trace_<n>.json` and answer with the path; when empty the
  // trace is returned inline in the response.
  std::string trace_dir;
  // Optional durable fleet journal (must be Open()ed and outlive the
  // engine): every acknowledged add/remove_deployment is appended before its
  // response resolves, and checkpoints are taken when the journal says one
  // is due. Null = no durability (the pre-journal behavior).
  FleetJournal* journal = nullptr;
};

class ServiceEngine {
 public:
  // Takes ownership of the trained bank; it becomes the default deployment.
  // Fails (with the registry's status) instead of aborting when the bank
  // cannot back a deployment — e.g. untrained estimators.
  static Result<std::unique_ptr<ServiceEngine>> Create(const ClusterSpec& cluster,
                                                       EstimatorBank bank,
                                                       ServiceEngineOptions options = {});
  // Borrowed-estimator variant (estimators must outlive the engine) — for
  // callers that already own a trained bank (benches, test fixtures).
  static Result<std::unique_ptr<ServiceEngine>> Create(
      const ClusterSpec& cluster, const KernelRuntimeEstimator* kernel_estimator,
      const CollectiveEstimator* collective_estimator, ServiceEngineOptions options = {});
  // Warm start from an artifact bundle: restores the whole fleet (every saved
  // deployment, estimators + caches + usage totals). `cluster` selects the
  // default deployment and must match one of the bundle's clusters.
  static Result<std::unique_ptr<ServiceEngine>> FromArtifacts(
      const ClusterSpec& cluster, const ArtifactStore& store,
      ServiceEngineOptions options = {});
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  // Registers an additional pinned deployment with its own per-arch trained
  // bank, enabling cross-arch what-ifs targeted at `name` (or at any cluster
  // name of the same arch). Call before serving traffic that targets it.
  Result<std::shared_ptr<const Deployment>> AddDeployment(const std::string& name,
                                                          const ClusterSpec& cluster,
                                                          EstimatorBank bank);

  // Enqueues a compute request (predict / batch_predict / search /
  // whatif_oom / trace_predict / add_deployment) and returns a future for
  // its response. Control kinds (stats, cancel, metrics, dump_trace,
  // remove_deployment) resolve synchronously. Rejections (queue weight
  // bound, shutting down) resolve immediately with ok=false.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  // Callback form of Submit, for transports that must never park a thread on
  // a future (the TCP server resolves responses from worker threads into
  // per-connection outbound queues). `done` is invoked exactly once — inline
  // on the calling thread for synchronous control kinds and rejections,
  // or on a worker thread for queued compute work — so it must be safe to
  // run from either and should stay cheap (hand off, don't compute).
  using ResponseCallback = std::function<void(ServiceResponse)>;
  void Submit(ServiceRequest request, ResponseCallback done);

  // Executes a request synchronously on the caller's thread against the same
  // shared deployments — the sequential reference path for tests, and the
  // substrate workers run on.
  ServiceResponse Execute(const ServiceRequest& request) const {
    return Execute(request, nullptr);
  }
  // Cancellable form: `cancel` (may be null) is probed at every pipeline
  // stage checkpoint of the executed request.
  ServiceResponse Execute(const ServiceRequest& request, const CancelToken* cancel) const;

  // Cancellation by request id: a still-queued request resolves CANCELLED
  // immediately; an executing request has its CancelToken signalled and
  // resolves CANCELLED at its next stage checkpoint. Returns true when the
  // id was found in either state.
  bool Cancel(uint64_t id);

  // Attaches the durable fleet journal after construction — maya_serve
  // replays the recovery plan through a journal-less engine first, then
  // attaches, so replayed mutations are not re-journaled. Call before the
  // engine serves admin traffic.
  void AttachJournal(FleetJournal* journal) { journal_ = journal; }
  const FleetJournal* journal() const { return journal_; }

  // Liveness/readiness snapshot for the `health` protocol kind — answered
  // synchronously, never taking a queue slot.
  HealthStatus Health() const;
  // Transport-readiness override: the TCP server flips this to false at the
  // start of Drain (before the listen socket closes), so health probes
  // observe not-ready while in-flight work finishes.
  void SetReady(bool ready) { transport_ready_.store(ready, std::memory_order_release); }

  // Releases a paused engine's workers.
  void Resume();

  // Graceful quiesce: stops admitting new compute work (submissions answer
  // SHUTTING_DOWN), then blocks until every queued and in-flight request has
  // resolved its future. Workers stay alive — control requests (stats) still
  // answer, and the caller can snapshot/flush artifacts over a quiet engine.
  // Idempotent; a paused engine is unpaused so its backlog can drain.
  void Drain();

  // Stops accepting work, drains the queue, joins workers. Idempotent.
  void Shutdown();

  ServiceStats stats() const;

  // Engine-owned latency histograms, one pair per request kind: queue wait
  // (submit → dequeue) and end-to-end latency (submit → future resolved) of
  // requests executed by the worker pool. They feed both `stats().latency`
  // and the MetricsExporter exposition, so the two always reconcile.
  const LatencyHistogram& QueueWaitHistogram(ServiceRequestKind kind) const {
    return kind_latency_[static_cast<size_t>(kind)].queue_wait;
  }
  const LatencyHistogram& RequestLatencyHistogram(ServiceRequestKind kind) const {
    return kind_latency_[static_cast<size_t>(kind)].latency;
  }

  const DeploymentRegistry& registry() const { return registry_; }
  std::shared_ptr<const Deployment> default_deployment() const { return default_deployment_; }
  // The default deployment's warm pipeline.
  const MayaPipeline& pipeline() const { return *default_deployment_->pipeline; }
  MayaPipeline& pipeline() { return *default_deployment_->pipeline; }
  const ClusterSpec& cluster() const { return default_deployment_->cluster; }

 private:
  struct Job {
    ServiceRequest request;
    ResponseCallback done;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    double weight = 0.0;
    // Admission timestamp: queue-wait and end-to-end latency are measured
    // from here (always, independent of tracing).
    std::chrono::steady_clock::time_point enqueued;
    // Nonzero only while telemetry is active: the id every span recorded on
    // behalf of this request carries.
    uint64_t trace_id = 0;
    // Connection id propagated from the submitting transport's trace context
    // (0 for stdio / in-process submissions); workers restore it so every
    // span of this request is annotated with the connection it came from.
    uint64_t conn_id = 0;
    // Admission order across all ready classes: the scheduler's FIFO
    // tie-break, so equal-pass classes never reorder same-kind arrivals.
    uint64_t sequence = 0;
    // Resolved target deployment name (compute kinds only) for the
    // remove_deployment busy check.
    std::string target;
    // Cooperative cancellation handle, created at submit (deadline armed
    // from request.deadline_ms) and registered in executing_ while a worker
    // runs the job, so Cancel(id) reaches executing requests too.
    std::shared_ptr<CancelToken> cancel;
  };

  // Registration can fail (untrained banks), so construction happens in the
  // Create factories: the constructor only fixes options; Create registers
  // the default deployment and starts the workers.
  explicit ServiceEngine(ServiceEngineOptions options);

  // Shared constructor tail: clamps options and spawns the worker pool.
  void Start();
  void WorkerLoop();
  double WeightOf(const ServiceRequest& request) const;
  // Resolves the target deployment: empty name = the default deployment;
  // otherwise registry resolution (registered entries, then derived
  // same-arch what-if pipelines).
  Result<std::shared_ptr<const Deployment>> ResolveDeployment(const std::string& name) const;
  Result<PredictResult> RunPredict(const Deployment& deployment, const ModelConfig& model,
                                   const TrainConfig& config, bool deduplicate_workers,
                                   bool virtual_folds, const CancelToken* cancel) const;
  // Shared executor for predict and whatif_oom (identical execution; only
  // the response kind differs).
  template <typename Payload>
  ServiceResponse ExecutePredictLike(const ServiceRequest& request, const Payload& payload,
                                     const CancelToken* cancel) const;
  ServiceResponse ExecuteBatchPredict(const ServiceRequest& request,
                                      const BatchPredictPayload& payload,
                                      const CancelToken* cancel) const;
  ServiceResponse ExecuteSearch(const ServiceRequest& request, const SearchPayload& payload,
                                const CancelToken* cancel) const;
  ServiceResponse ExecuteTracePredict(const ServiceRequest& request,
                                      const TracePredictPayload& payload,
                                      const CancelToken* cancel) const;
  ServiceResponse ExecuteMetrics(const ServiceRequest& request) const;
  ServiceResponse ExecuteDumpTrace(const ServiceRequest& request) const;
  // Admin kinds. add_deployment mutates the fleet, so it runs through the
  // worker pool as a heavy compute request (WorkerLoop dispatches here, not
  // through the const Execute()); remove_deployment is a synchronous control
  // request handled inside Submit so its busy check is atomic with admission
  // and dequeue.
  ServiceResponse ExecuteAddDeployment(const ServiceRequest& request,
                                       const AddDeploymentPayload& payload);
  ServiceResponse ExecuteRemoveDeployment(const ServiceRequest& request,
                                          const RemoveDeploymentPayload& payload);
  // Resolved target deployment name of a compute request (empty payload
  // deployment = the default deployment's name; add_deployment targets the
  // name it registers); empty for control kinds. Matching is by exact name:
  // requests addressing a registered deployment through a derived what-if
  // alias do not pin the base entry (the alias holds the bank alive anyway).
  std::string TargetNameOf(const ServiceRequest& request) const;

  static ServiceResponse ErrorResponse(const ServiceRequest& request, const char* code,
                                       std::string message);

  ServiceEngineOptions options_;
  DeploymentRegistry registry_;
  std::shared_ptr<const Deployment> default_deployment_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  // Signals Drain(): fires whenever the queue empties or an in-flight job
  // resolves its future.
  std::condition_variable drained_cv_;
  // Weighted virtual-time (stride-style) ready queue, one class per request
  // kind. Each class carries a `pass`; dequeue picks the non-empty class
  // with the smallest pass (FIFO sequence breaks ties) and advances that
  // class's pass by the job's weight. Light kinds therefore get
  // proportionally more dequeues: four queued predicts (weight 1) all
  // overtake a second queued search (weight 16) instead of sitting FIFO
  // behind it, while an uncontended engine still dequeues in exact
  // submission order. A class going idle re-enters at
  // max(its pass, virtual time), so sleeping never banks credit.
  struct ReadyClass {
    std::deque<std::shared_ptr<Job>> jobs;
    double pass = 0.0;
  };
  // Callers hold queue_mutex_.
  void PushReady(std::shared_ptr<Job> job);
  std::shared_ptr<Job> PopReady();
  std::array<ReadyClass, std::variant_size_v<ServicePayload>> ready_;
  double virtual_time_ = 0.0;
  uint64_t enqueue_sequence_ = 0;
  size_t ready_jobs_ = 0;  // total queued jobs across classes
  // Target deployment names of jobs a worker dequeued but has not finished
  // (guarded by queue_mutex_): the executing half of the remove_deployment
  // busy check.
  std::map<std::string, uint64_t> active_targets_;
  // CancelTokens of jobs a worker is executing right now, by request id
  // (guarded by queue_mutex_): the executing half of Cancel(id).
  std::map<uint64_t, std::shared_ptr<CancelToken>> executing_;
  double queued_weight_ = 0.0;
  // Jobs dequeued by a worker whose future has not resolved yet.
  uint64_t in_flight_ = 0;
  bool paused_ = false;
  bool draining_ = false;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_expired_{0};

  // Cumulative per-stage wall time across executed requests (see
  // ServiceStats::stage_totals), engine-wide and per target deployment.
  // Mutable: Execute() is const but observably so — timings are
  // observability, not results. Per-deployment totals are keyed by the
  // (immutable) Deployment object, not its name: a derived entry that is
  // LRU-evicted and later re-derived is a NEW object whose counters start at
  // zero, matching its fresh caches; stats() prunes entries for deployments
  // no longer resident.
  void AccumulateStageTimings(const Deployment& deployment,
                              const StageTimings& timings) const;
  // Registers a bundle record (already fully parsed) as pinned deployment
  // `name` on `cluster`, seeds its pipeline's caches from the record, and
  // its cumulative totals from the record's usage, so stage totals survive
  // a save/restore cycle the way cache contents do.
  Result<std::shared_ptr<const Deployment>> Restore(const std::string& name,
                                                    const ClusterSpec& cluster,
                                                    const DeploymentRecord& record);
  mutable std::mutex timings_mutex_;
  mutable StageTimings stage_totals_;
  mutable uint64_t timed_requests_ = 0;
  struct DeploymentTimings {
    StageTimings totals;
    uint64_t requests = 0;
  };
  mutable std::map<const Deployment*, DeploymentTimings> deployment_timings_;
  // Per-deployment governance counters, keyed by TARGET NAME (unlike
  // timings: a deadline can expire while the request is still queued, before
  // any Deployment object is resolved). Guarded by timings_mutex_; stats()
  // prunes names no longer resident.
  struct GovernanceCounters {
    uint64_t cancelled = 0;
    uint64_t deadline_expired = 0;
  };
  mutable std::map<std::string, GovernanceCounters> deployment_governance_;
  // Records a cancelled / deadline-expired outcome against `target`.
  void NoteGovernance(const std::string& target, bool was_cancelled) const;

  // Journals an acknowledged admin mutation's checkpoint when one is due
  // (called by the admin executors with no engine lock held).
  void MaybeCheckpoint();
  FleetJournal* journal_ = nullptr;
  std::atomic<bool> transport_ready_{true};

  // Per-kind latency histograms (see QueueWaitHistogram): lock-free atomic
  // buckets, recorded by workers, read by stats()/MetricsExporter.
  struct KindLatency {
    LatencyHistogram queue_wait;
    LatencyHistogram latency;
  };
  mutable std::array<KindLatency, std::variant_size_v<ServicePayload>> kind_latency_;
  // Monotonic dump_trace sequence for trace_dir file names.
  mutable std::atomic<uint64_t> trace_dumps_{0};
};

}  // namespace maya

#endif  // SRC_SERVICE_SERVICE_ENGINE_H_
