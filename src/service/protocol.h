// Maya-as-a-service wire protocol v2: newline-delimited JSON request/response
// messages (one object per line) over any byte stream — stdio for the
// `maya_serve` tool, an in-process loopback for tests and benches.
//
// Every request carries a caller-chosen `id` echoed in the response, so a
// client may pipeline many requests and match completions out of order. An
// optional `deadline_ms` bounds queue wait + execution; expired requests are
// answered with DEADLINE_EXCEEDED instead of running stale what-ifs.
//
// Scenario model: a request is an envelope (id, deadline) plus exactly one
// typed payload held in a std::variant — no union-struct whose meaning
// depends on `kind`. Every compute payload carries an optional `deployment`
// name targeting an entry of the engine's DeploymentRegistry, which is how
// cross-deployment what-ifs work: "predict on h100x32" is just a predict
// targeted at another deployment, not a special request kind.
//
// Payloads:
//   PredictPayload      — full pipeline run for (model, config); reports
//                         iteration time, MFU, per-stage timings, cache hits.
//   BatchPredictPayload — one model, many configs evaluated under a single
//                         queue slot; per-item reports, bit-identical to the
//                         same predicts issued sequentially.
//   SearchPayload       — Maya-Search over the Table-5 Megatron space.
//   WhatIfOomPayload    — feasibility probe: does (model, config) fit device
//                         memory? OOM verdict + peak memory when it fits.
//   TracePredictPayload — skip emulation: annotate + simulate a pre-collated
//                         JobTrace supplied in the request payload.
//   StatsPayload        — engine counters and cache statistics.
//   CancelPayload       — best-effort cancellation of a queued request by id.
//   MetricsPayload      — full metrics report (counters, gauges, latency
//                         histograms) reconciling with the `stats` counters.
//   DumpTracePayload    — export buffered telemetry spans as Chrome trace
//                         JSON (inline, or to the engine's trace directory).
//   AddDeploymentPayload    — admin: register a new pinned deployment, either
//                             cold-start trained on the server or restored
//                             from an artifact bundle directory.
//   RemoveDeploymentPayload — admin: unregister a pinned deployment; refused
//                             while requests target it (DEPLOYMENT_BUSY).
//   HealthPayload       — liveness/readiness probe (live, ready, draining,
//                         journal lag, checkpoint age) answered synchronously
//                         without taking a queue slot — health stays
//                         answerable when the queue is full or paused.
//
// Retired forms are refused like any malformed request: the v1 kind for
// "predict on another cluster" is an unknown kind (INVALID_REQUEST) — a
// predict with a `deployment` says the same thing.
#ifndef SRC_SERVICE_PROTOCOL_H_
#define SRC_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/sharded_cache.h"
#include "src/common/status.h"
#include "src/common/telemetry.h"
#include "src/core/pipeline.h"
#include "src/search/search_driver.h"
#include "src/trace/collator.h"

namespace maya {

// Values index the ServicePayload variant: keep both in the same order.
enum class ServiceRequestKind {
  kPredict,
  kBatchPredict,
  kSearch,
  kWhatIfOom,
  kTracePredict,
  kStats,
  kCancel,
  kMetrics,
  kDumpTrace,
  kAddDeployment,
  kRemoveDeployment,
  kHealth,  // appended last: earlier kinds keep their wire variant indices
};

const char* ServiceRequestKindName(ServiceRequestKind kind);
Result<ServiceRequestKind> ServiceRequestKindFromName(const std::string& name);

struct PredictPayload {
  ModelConfig model;
  TrainConfig config;
  bool deduplicate_workers = true;
  // Hyperscale virtual folding (see PredictionRequest::virtual_folds).
  bool virtual_folds = false;
  // Retired launch mode, kept for in-process callers: true selects virtual
  // folds. The wire key of the same name parses into virtual_folds and is
  // never written.
  bool selective_launch = false;
  // Target deployment name ("h100x32", "v100x16", or a registered name);
  // empty answers on the engine's default deployment.
  std::string deployment;
};

struct BatchPredictPayload {
  ModelConfig model;
  std::vector<TrainConfig> configs;
  bool deduplicate_workers = true;
  bool virtual_folds = false;
  std::string deployment;
};

struct SearchPayload {
  ModelConfig model;
  // The space is the Megatron Table-5 grid for `model`; global_batch 0
  // selects the paper default for the model.
  SearchOptions search;
  int64_t global_batch = 0;
  std::string deployment;
};

struct WhatIfOomPayload {
  ModelConfig model;
  TrainConfig config;
  bool deduplicate_workers = true;
  bool virtual_folds = false;
  std::string deployment;
};

struct TracePredictPayload {
  JobTrace trace;
  std::string deployment;
};

struct StatsPayload {};

struct CancelPayload {
  uint64_t target_id = 0;
};

struct MetricsPayload {};

struct DumpTracePayload {};

// Admin: register deployment `name` on cluster `cluster` (a named evaluation
// cluster — "h100x32", "v100x16", "a40"). When `bundle_dir` is set the bank
// is restored from that artifact bundle (estimators + warm caches; the
// bundle must hold a deployment for the same cluster); otherwise the server
// cold-start trains with the named profiling sweep preset. Queued as a heavy
// compute request (training occupies a worker like a search does).
struct AddDeploymentPayload {
  std::string name;
  std::string cluster;
  // Sweep preset for cold-start training: "full", "small", or "tiny".
  std::string sweep = "small";
  std::string bundle_dir;
};

// Admin: unregister deployment `name`. A control request (answers
// synchronously): refused with DEPLOYMENT_BUSY while any queued or executing
// request targets the deployment, and always refused for the default
// deployment. In-flight holders of the removed deployment finish safely
// (deployments are shared_ptr-owned); later requests targeting the name are
// answered INVALID_REQUEST.
struct RemoveDeploymentPayload {
  std::string name;
};

struct HealthPayload {};

using ServicePayload =
    std::variant<PredictPayload, BatchPredictPayload, SearchPayload, WhatIfOomPayload,
                 TracePredictPayload, StatsPayload, CancelPayload, MetricsPayload,
                 DumpTracePayload, AddDeploymentPayload, RemoveDeploymentPayload,
                 HealthPayload>;

struct ServiceRequest {
  uint64_t id = 0;
  // Wall-clock budget from receipt to completion; 0 = no deadline.
  double deadline_ms = 0.0;
  ServicePayload payload = PredictPayload{};

  ServiceRequestKind kind() const { return static_cast<ServiceRequestKind>(payload.index()); }
};

// Machine-readable failure classes (the `error_code` response field).
inline constexpr const char* kErrQueueFull = "QUEUE_FULL";
inline constexpr const char* kErrDeadlineExceeded = "DEADLINE_EXCEEDED";
inline constexpr const char* kErrCancelled = "CANCELLED";
inline constexpr const char* kErrShuttingDown = "SHUTTING_DOWN";
inline constexpr const char* kErrInvalidRequest = "INVALID_REQUEST";
// remove_deployment refusal: queued or executing requests still target the
// deployment. Retry after they settle.
inline constexpr const char* kErrDeploymentBusy = "DEPLOYMENT_BUSY";
// A TCP frame exceeded the server's line bound; the oversized line was
// discarded and the connection resynchronizes at the next newline.
inline constexpr const char* kErrFrameTooLarge = "FRAME_TOO_LARGE";
// Server-side failure while executing an otherwise well-formed request
// (including injected faults under test): the request is lost, the server
// keeps serving, and retrying may succeed.
inline constexpr const char* kErrInternalError = "INTERNAL_ERROR";
// An admin mutation could not be made durable (journal append / fsync
// failed). The in-memory mutation was rolled back: the fleet is unchanged,
// and retrying after the storage issue clears may succeed.
inline constexpr const char* kErrJournal = "JOURNAL_ERROR";

// One prediction outcome — the body of a predict-like response and of every
// batch_predict item.
struct PredictResult {
  bool oom = false;
  std::string oom_detail;
  double iteration_time_us = 0.0;
  double mfu = 0.0;
  uint64_t peak_memory_bytes = 0;
  StageTimings timings;
  EstimationStats estimation;
  SimulationStats simulation;
  bool trace_cache_hit = false;
};

// Per-deployment observability block of the `stats` response: every resident
// deployment's cache counters and cumulative stage wall time, not just the
// default deployment's. Derived (what-if) entries are flagged; their
// counters reset if the entry is LRU-evicted and re-derived.
struct DeploymentStats {
  std::string name;
  bool derived = false;
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
  // Governance outcomes attributed to this deployment: requests answered
  // CANCELLED / DEADLINE_EXCEEDED (queued or executing) while targeting it.
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  ShardedCacheStats kernel_cache;
  ShardedCacheStats collective_cache;
  ShardedCacheStats trace_cache;
  ShardedCacheStats sim_cache;
};

// p50/p95/p99 summary of one engine-owned latency histogram (microseconds;
// bucket-interpolated, see LatencyHistogram::Percentile).
struct LatencyPercentiles {
  uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

// Queue-wait and end-to-end latency distribution of one request kind, as
// observed by the engine's worker pool (synchronous control requests —
// stats/cancel/metrics — never queue and are not measured).
struct KindLatencyStats {
  std::string kind;
  LatencyPercentiles queue_wait;
  LatencyPercentiles latency;
};

// Engine-level counters reported by `stats` responses.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;   // queue-full or shutdown refusals
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  uint64_t queue_depth = 0;
  // Admission-control load: summed per-kind weight of queued requests and
  // the engine's configured bound (see ServiceEngineOptions::weights).
  double queued_weight = 0.0;
  double max_queue_weight = 0.0;
  // Deployment names currently resident in the registry (registered first,
  // then derived what-if targets), and how many of each.
  std::vector<std::string> deployments;
  uint64_t registered_deployments = 0;
  uint64_t derived_deployments = 0;
  // Cumulative emulator/collator/estimator/simulator wall-ms across executed
  // requests (predict-like reports + per-trial search totals): makes the
  // Fig. 13 stage split — and dedup / parallel-emulation wins — observable
  // from a running maya_serve.
  StageTimings stage_totals;
  uint64_t timed_requests = 0;  // requests contributing to stage_totals
  // Default deployment's caches (kept for v2 clients; `per_deployment` has
  // the full fleet).
  ShardedCacheStats kernel_cache;
  ShardedCacheStats collective_cache;
  ShardedCacheStats trace_cache;
  ShardedCacheStats sim_cache;
  // One block per resident deployment: registered entries in registration
  // order, then derived entries in name order.
  std::vector<DeploymentStats> per_deployment;
  // Queue-wait + end-to-end latency percentiles per request kind, in kind
  // order; kinds with no completed requests are omitted.
  std::vector<KindLatencyStats> latency;
};

// Liveness/readiness snapshot of the `health` response. `live` is true
// whenever the process answers at all; `ready` flips false on drain (the TCP
// server flips it BEFORE closing the listen socket, so a balancer probing
// health sees not-ready before connects start failing). Journal fields are
// zeros when the server runs without --state_dir (journal_enabled=false).
struct HealthStatus {
  bool live = true;
  bool ready = false;
  bool draining = false;
  bool journal_enabled = false;
  uint64_t journal_appends = 0;         // records appended since start
  uint64_t journal_lag = 0;             // records appended since last checkpoint
  uint64_t journal_append_failures = 0; // refused admin mutations (JOURNAL_ERROR)
  uint64_t checkpoints = 0;
  double last_checkpoint_age_s = -1.0;  // seconds; -1 = never checkpointed
  uint64_t replayed_records = 0;        // journal records replayed at startup
  uint64_t torn_records_dropped = 0;    // torn tail lines repaired at startup
  uint64_t queue_depth = 0;
};

struct ServiceResponse {
  uint64_t id = 0;
  ServiceRequestKind kind = ServiceRequestKind::kPredict;
  bool ok = false;
  std::string error;
  std::string error_code;

  // predict / whatif_oom / trace_predict results.
  bool oom = false;
  std::string oom_detail;
  double iteration_time_us = 0.0;
  double mfu = 0.0;
  uint64_t peak_memory_bytes = 0;
  StageTimings timings;
  EstimationStats estimation;
  // Per-request (predict-like) or summed per-trial (search) stage-4 counters.
  SimulationStats simulation;
  bool trace_cache_hit = false;

  // batch_predict results: one entry per requested config, in order.
  std::vector<PredictResult> batch;

  // search results.
  bool found = false;
  TrainConfig best_config;
  double best_mfu = 0.0;
  double best_iteration_us = 0.0;
  int samples = 0;
  int executed = 0;
  int cached = 0;
  int skipped = 0;
  int search_oom = 0;

  // stats results.
  ServiceStats stats;

  // cancel results.
  bool cancel_found = false;

  // metrics results: full families (counters, gauges, histograms) as
  // assembled by MetricsExporter — reconciles with the `stats` counters.
  MetricsReport metrics;

  // dump_trace results: when the engine has a trace directory the trace is
  // written there and `trace_path` is set; otherwise the Chrome trace JSON
  // is returned inline in `trace_json`.
  std::string trace_json;
  std::string trace_path;
  uint64_t trace_events = 0;

  // add_deployment / remove_deployment results.
  std::string deployment;        // the (added/removed) deployment name
  bool trained = false;          // add: cold-start trained (vs bundle-backed)
  uint64_t warmed_entries = 0;   // add: cache entries imported from a bundle
  bool removed = false;          // remove: the entry was unregistered

  // health results.
  HealthStatus health;
};

// Copies one prediction outcome into a response's single-result fields (the
// inverse of how predict-like responses serialize). Shared by the engine and
// the response codec so the field list lives in one place.
void AssignPredictResult(ServiceResponse& response, const PredictResult& result);
PredictResult SinglePredictResult(const ServiceResponse& response);

// Builds the INVALID_REQUEST response for a line that failed
// ParseServiceRequest with `status`: echoes the id/kind when the line is at
// least well-formed JSON, so a pipelining client can match the failure to
// its request. Shared by the stdio loop and the TCP server so both
// transports answer malformed input identically.
ServiceResponse ParseFailureResponse(const std::string& line, const Status& status);

// One NDJSON line (no trailing newline); the transport appends '\n'.
std::string SerializeServiceRequest(const ServiceRequest& request);
Result<ServiceRequest> ParseServiceRequest(const std::string& line);
std::string SerializeServiceResponse(const ServiceResponse& response);
Result<ServiceResponse> ParseServiceResponse(const std::string& line);

// Shared model/config codecs (also used by the artifact store's manifest).
void WriteModelConfig(JsonWriter& w, const ModelConfig& model);
Result<ModelConfig> ParseModelConfig(const JsonValue& value);
void WriteTrainConfig(JsonWriter& w, const TrainConfig& config);
Result<TrainConfig> ParseTrainConfig(const JsonValue& value);
void WriteClusterSpec(JsonWriter& w, const ClusterSpec& cluster);
Result<ClusterSpec> ParseClusterSpec(const JsonValue& value);

}  // namespace maya

#endif  // SRC_SERVICE_PROTOCOL_H_
