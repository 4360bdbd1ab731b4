// Maya's public prediction API: the four-stage pipeline of Fig. 5 —
// (1) trace collection via emulation, (2) trace collation (+ dedup),
// (3) kernel runtime estimation, (4) event-driven cluster simulation —
// producing the simulation report and MFU for a training configuration
// without touching accelerator hardware.
#ifndef SRC_CORE_PIPELINE_H_
#define SRC_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/sharded_cache.h"
#include "src/common/thread_pool.h"
#include "src/core/execution_context.h"
#include "src/dlf/worker_launcher.h"
#include "src/estimator/collective_estimator.h"
#include "src/estimator/kernel_estimator.h"
#include "src/groundtruth/executor.h"
#include "src/sim/simulator.h"

namespace maya {

// Estimation-stage knobs. The estimate cache applies the paper's dedup lever
// (Fig. 14) to stage 3: a kernel/collective estimate is computed once per
// unique key and reused within a trace, across Predict calls, and across the
// thousands of trials of a config search. Estimators are pure functions of
// their inputs, so caching is output-preserving (bit-identical on vs. off).
// Cache bounds are fixed (pipeline.cc): 2^20 entries over 32 lock stripes per
// estimate cache, 128 collated traces, 2^16 sim-cache entries over 16.
struct MayaPipelineOptions {
  bool enable_estimate_cache = true;
  // The shared execution context: one pool borrowed by per-rank emulation
  // (stage 1), the collator's fingerprint pass (stage 2) and batched kernel
  // estimation (stage 3). Null keeps every stage sequential — the right
  // default inside a concurrent search, which parallelizes across trials
  // instead. Many pipelines (e.g. every deployment of a registry) may share
  // one context; each stage is bit-identical to its sequential path.
  std::shared_ptr<ExecutionContext> context;
  // Minimum unique kernels before the context's pool engages for estimation.
  size_t parallel_estimation_threshold = 1024;
  // Memoize collated traces across Predict calls keyed by
  // (model, config, pipeline knobs) — stages 1+2 are deterministic functions
  // of that key for a fixed cluster, so a repeated configuration (across
  // RunSearch invocations or service sweeps) skips emulation + collation and
  // re-annotates a copy of the cached trace. Off by default: entries hold
  // full JobTraces, so this trades memory for wall-clock.
  bool enable_trace_cache = false;
  // Stage 4 replays the whole annotated job on one event heap; the sim cache
  // memoizes each replay's per-worker results across Predict calls, search
  // trials and trace_predicts, keyed by the annotated job's fingerprint (ops
  // + durations + comm topology, uids renumbered by first use). Output-
  // preserving: a hit is bit-identical to a fresh replay.
  bool enable_sim_cache = true;
  // Adaptive small-N fallback (forwarded to LaunchOptions::min_parallel_ranks):
  // below this many ranks the pool fan-out costs more than the work and
  // emulation runs sequentially. Bit-identical either way; 1 forces the
  // parallel arm (used in tests).
  int min_parallel_emulation_ranks = 16;
};

// Per-Predict estimation-stage counters (plumbed into PredictionReport and
// aggregated across trials in SearchOutcome).
struct EstimationStats {
  uint64_t kernel_ops = 0;          // kernel-launch ops annotated
  uint64_t unique_kernels = 0;      // distinct KernelDescs among them
  uint64_t collective_ops = 0;      // collective ops annotated
  uint64_t unique_collectives = 0;  // distinct (kind, bytes, group) keys
  // Unique keys served from / missing in the cross-trial estimate cache.
  // With the cache disabled every unique key counts as a miss.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  uint64_t unique_ops() const { return unique_kernels + unique_collectives; }
  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
  void Accumulate(const EstimationStats& other) {
    kernel_ops += other.kernel_ops;
    unique_kernels += other.unique_kernels;
    collective_ops += other.collective_ops;
    unique_collectives += other.unique_collectives;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }
};

struct PredictionRequest {
  ModelConfig model;
  TrainConfig config;

  // Pipeline knobs.
  bool deduplicate_workers = true;   // dynamic worker dedup (§4.2)
  // Hyperscale virtual folding (§7.4), on by default: emulate one
  // representative per analytic rank-equivalence class (one rank per
  // pipeline stage for Megatron, rank 0 for FSDP/DeepSpeed/DDP and vision)
  // and carry twin membership as RankSet spans — no O(world) materialization
  // anywhere in the pipeline. Reports are bit-identical to full emulation.
  // False selects full emulation, the reference path that runs every rank.
  // Predict also falls back to full emulation when deduplicate_workers is
  // false (Fig. 14's dedup-off arm emulates every rank) or an oracle is set
  // (oracle noise is keyed by communicator uid, which depends on the launch
  // mode).
  bool virtual_folds = true;
  // Retired launch mode, kept as an alias: true selects virtual folds.
  bool selective_launch = false;
  // Oracle mode (Table 3): annotate with the profiled *actual* per-instance
  // runtimes from this executor instead of learned estimates. Must be the
  // same executor (seed) that produced the "actual" measurement.
  const GroundTruthExecutor* oracle = nullptr;
  // Cooperative cancellation: Predict probes this token at stage boundaries
  // (per-rank emulation, the collator fingerprint pass, estimation batches,
  // the sim replay) and unwinds with CANCELLED/DEADLINE_EXCEEDED
  // before any shared-cache publish — a cancelled request leaves the trace /
  // estimate / sim caches byte-identical to never having run. Null = not
  // cancellable (direct library use, benches).
  const CancelToken* cancel = nullptr;
};

// Wall-clock cost of each Maya stage (Fig. 13 / Table 6).
struct StageTimings {
  double emulation_ms = 0.0;
  double collation_ms = 0.0;
  double estimation_ms = 0.0;
  double simulation_ms = 0.0;
  double total_ms() const {
    return emulation_ms + collation_ms + estimation_ms + simulation_ms;
  }
};

struct PredictionReport {
  bool oom = false;
  std::string oom_detail;

  SimReport sim;
  double iteration_time_us = 0.0;
  double mfu = 0.0;  // model FLOPs / (time x GPUs x peak)

  StageTimings timings;
  CollationStats collation;
  EstimationStats estimation;
  // Stage-4 counters: workers, replays, sim-cache hits (a copy of sim.stats,
  // hoisted for symmetry with `estimation`).
  SimulationStats simulation;
  int full_workers_emulated = 0;
  // True when stages 1+2 were served from the collated-trace cache.
  bool trace_cache_hit = false;

  std::string Summary() const;
};

class MayaPipeline {
 public:
  // Estimators are borrowed and must outlive the pipeline. The collective
  // estimator is pluggable (profiled interpolation by default; an
  // ASTRA-sim-like analytical model for hyperscale runs).
  MayaPipeline(const ClusterSpec& cluster, const KernelRuntimeEstimator* kernel_estimator,
               const CollectiveEstimator* collective_estimator,
               MayaPipelineOptions options = {});

  // Full pipeline: emulate -> collate -> estimate -> simulate. Thread-safe:
  // search trials call this concurrently against one pipeline.
  Result<PredictionReport> Predict(const PredictionRequest& request) const;

  // Stage 3 alone: annotates kernel + collective durations in place.
  // Deduplicates the trace's ops, predicts each unique key once (through the
  // cross-trial estimate cache, in parallel when configured), and broadcasts
  // durations to all matching ops. Oracle mode bypasses the cache: oracle
  // durations are per-instance noisy, not functions of the key.
  // The cancellable variant probes `cancel` between the dedup, prediction and
  // broadcast passes — always BEFORE inserting freshly predicted batches into
  // the estimate caches, so a cancelled annotation publishes nothing.
  EstimationStats AnnotateDurations(JobTrace& job, const GroundTruthExecutor* oracle) const;
  Result<EstimationStats> AnnotateDurations(JobTrace& job, const GroundTruthExecutor* oracle,
                                            const CancelToken* cancel) const;

  // Stage 4 alone: replays an annotated trace on one event heap through the
  // cross-trial sim cache. The bool has no effect: worker dedup happens at
  // collation, and the parameter stays only until the benchmark's traced
  // replay stops passing it.
  Result<SimReport> Simulate(const JobTrace& job, bool /*unused*/ = true,
                             const CancelToken* cancel = nullptr) const;

  const ClusterSpec& cluster() const { return cluster_; }
  const MayaPipelineOptions& options() const { return options_; }

  // Lifetime counters of the cross-trial estimate caches.
  ShardedCacheStats KernelCacheStats() const { return kernel_estimate_cache_.stats(); }
  ShardedCacheStats CollectiveCacheStats() const { return collective_estimate_cache_.stats(); }
  ShardedCacheStats TraceCacheStats() const { return trace_cache_.stats(); }
  ShardedCacheStats SimCacheStats() const { return sim_cache_.stats(); }
  void ClearEstimateCache() {
    kernel_estimate_cache_.Clear();
    collective_estimate_cache_.Clear();
  }

  // Estimate-cache export/import for cross-process persistence (the service
  // layer's ArtifactStore): Snapshot* copies out every resident entry;
  // Import* seeds the cache so a fresh process warm-starts with the previous
  // process's hit rate. Imported values must come from identical estimators
  // (the ArtifactStore bundles both), or predictions will silently diverge
  // from fresh computation. Thread-safe, like all cache access.
  std::vector<std::pair<KernelDesc, double>> SnapshotKernelEstimates() const {
    return kernel_estimate_cache_.Snapshot();
  }
  std::vector<std::pair<CollectiveRequest, double>> SnapshotCollectiveEstimates() const {
    return collective_estimate_cache_.Snapshot();
  }
  void ImportKernelEstimates(const std::vector<std::pair<KernelDesc, double>>& entries) {
    for (const auto& [kernel, duration_us] : entries) {
      kernel_estimate_cache_.Insert(kernel, duration_us);
    }
  }
  void ImportCollectiveEstimates(
      const std::vector<std::pair<CollectiveRequest, double>>& entries) {
    for (const auto& [request, duration_us] : entries) {
      collective_estimate_cache_.Insert(request, duration_us);
    }
  }

  // Sim-cache export/import, mirroring the estimate caches: per-job replay
  // results keyed by canonical job fingerprint. Imported values
  // must come from the same estimators and cluster (the ArtifactStore bundles
  // all three), or replays would silently diverge from fresh simulation.
  std::vector<std::pair<uint64_t, std::shared_ptr<const SimCacheEntry>>>
  SnapshotSimCache() const {
    return sim_cache_.Snapshot();
  }
  void ImportSimCache(
      const std::vector<std::pair<uint64_t, std::shared_ptr<const SimCacheEntry>>>&
          entries) {
    for (const auto& [key, result] : entries) {
      sim_cache_.Insert(key, result);
    }
  }

 private:
  // Cached outcome of stages 1+2 (emulation + collation) for one request key.
  // OOM outcomes are cached too: a repeated infeasible config answers without
  // re-emulating. Shared-ptr values: hits copy the (immutable) entry's trace
  // before annotation mutates durations in place.
  struct CollatedTrace {
    bool oom = false;
    std::string oom_detail;
    JobTrace job;
    CollationStats collation;
    int full_workers_emulated = 0;
  };

  // Predicts unique kernels, fanning out over the estimation pool when the
  // batch is large enough; writes predictions to out[i].
  void PredictKernels(const std::vector<const KernelDesc*>& kernels, double* out) const;

  ClusterSpec cluster_;
  const KernelRuntimeEstimator* kernel_estimator_;
  const CollectiveEstimator* collective_estimator_;
  MayaPipelineOptions options_;
  // Cross-trial estimate memoization; mutable because annotation is
  // observably const (cached values are bit-identical to fresh predictions).
  mutable ShardedCache<KernelDesc, double, KernelDescHash> kernel_estimate_cache_;
  mutable ShardedCache<CollectiveRequest, double, CollectiveRequestHash>
      collective_estimate_cache_;
  mutable ShardedCache<std::string, std::shared_ptr<const CollatedTrace>> trace_cache_;
  mutable SimulationCache sim_cache_;
  // The shared stage pool (see MayaPipelineOptions::context); null when the
  // pipeline runs every stage sequentially.
  ThreadPool* stage_pool_ = nullptr;
};

// MFU given a measured/predicted iteration time.
double ComputeMfu(const ModelConfig& model, int64_t global_batch, const ClusterSpec& cluster,
                  double iteration_time_us);

}  // namespace maya

#endif  // SRC_CORE_PIPELINE_H_
