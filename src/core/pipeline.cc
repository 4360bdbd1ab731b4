#include "src/core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/trace/collator.h"

namespace maya {
namespace {

class StageClock {
 public:
  StageClock() : last_(std::chrono::steady_clock::now()) {}
  double LapMs() {
    const auto now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }

 private:
  std::chrono::steady_clock::time_point last_;
};

// Dedup map keyed by pointers into the trace (ops are not mutated structurally
// during annotation, so the pointers stay valid) — avoids copying KernelDescs.
struct KernelPtrHash {
  size_t operator()(const KernelDesc* kernel) const {
    return static_cast<size_t>(kernel->Hash());
  }
};
struct KernelPtrEq {
  bool operator()(const KernelDesc* a, const KernelDesc* b) const { return *a == *b; }
};

// Within one JobTrace a communicator uid pins the member list, so
// (kind, bytes, comm_uid) identifies a collective without copying the group's
// rank vector per op. The cross-trial cache key is the canonical
// CollectiveRequest, built once per unique local key.
struct LocalCollectiveKey {
  CollectiveKind kind;
  uint64_t bytes;
  uint64_t comm_uid;
  bool operator==(const LocalCollectiveKey& other) const = default;
};
struct LocalCollectiveKeyHash {
  size_t operator()(const LocalCollectiveKey& key) const {
    uint64_t h = HashCombine(kFnvOffsetBasis, static_cast<uint64_t>(key.kind));
    h = HashCombine(h, key.bytes);
    return static_cast<size_t>(HashCombine(h, key.comm_uid));
  }
};

// The launch mode of stage 1: virtual folds when the request asks for them,
// except under dedup-off (Fig. 14's arm emulates and simulates every rank)
// and oracle mode (Table 3's per-instance noise is keyed by communicator
// uid, which depends on the launch mode), which run full emulation.
bool UsesVirtualFolds(const PredictionRequest& request) {
  return (request.virtual_folds || request.selective_launch) && request.deduplicate_workers &&
         request.oracle == nullptr;
}

// Identity of stages 1+2 for one request on a fixed cluster: the training
// configuration, the pipeline knobs that shape the trace, and every
// ModelConfig field the engines read (names alone are not identity — callers
// mutate preset configs).
std::string TraceCacheKey(const PredictionRequest& request, bool virtual_folds) {
  const ModelConfig& model = request.model;
  std::string key = request.config.CacheKey();
  key += request.deduplicate_workers ? "|d1" : "|d0";
  key += virtual_folds ? "v1" : "v0";
  key += StrFormat("|%d|%lld|%lld|%lld|%lld|%lld|%lld|%lld|%lld|%lld",
                   static_cast<int>(model.family), static_cast<long long>(model.num_layers),
                   static_cast<long long>(model.hidden_size),
                   static_cast<long long>(model.num_heads),
                   static_cast<long long>(model.vocab_size),
                   static_cast<long long>(model.seq_length),
                   static_cast<long long>(model.ffn_multiplier),
                   static_cast<long long>(model.image_size),
                   static_cast<long long>(model.stem_channels),
                   static_cast<long long>(model.num_classes));
  for (const ConvStageConfig& stage : model.conv_stages) {
    key += StrFormat(",%d:%lld:%lld", stage.blocks, static_cast<long long>(stage.channels),
                     static_cast<long long>(stage.stride));
  }
  return key;
}

}  // namespace

std::string PredictionReport::Summary() const {
  if (oom) {
    return "OOM: " + oom_detail;
  }
  return StrFormat("iteration %s | MFU %.1f%% | %s | stages %.0f/%.0f/%.0f/%.0f ms",
                   HumanDuration(iteration_time_us).c_str(), mfu * 100.0, sim.Summary().c_str(),
                   timings.emulation_ms, timings.collation_ms, timings.estimation_ms,
                   timings.simulation_ms);
}

MayaPipeline::MayaPipeline(const ClusterSpec& cluster,
                           const KernelRuntimeEstimator* kernel_estimator,
                           const CollectiveEstimator* collective_estimator,
                           MayaPipelineOptions options)
    : cluster_(cluster),
      kernel_estimator_(kernel_estimator),
      collective_estimator_(collective_estimator),
      options_(options),
      kernel_estimate_cache_(ShardedCacheOptions{32, 1u << 20}),
      collective_estimate_cache_(ShardedCacheOptions{32, 1u << 20}),
      trace_cache_(ShardedCacheOptions{8, 128}),
      sim_cache_(ShardedCacheOptions{16, 1u << 16}) {
  // Constructor contract, not a request-reachable path: pipelines are built
  // by the deployment registry, which refuses untrained banks with a Status.
  DCHECK(kernel_estimator_ != nullptr);
  DCHECK(collective_estimator_ != nullptr);
  // options_ owns the context (shared with sibling pipelines); the raw pool
  // pointer is just the per-call shortcut.
  stage_pool_ = options_.context != nullptr ? options_.context->pool() : nullptr;
}

void MayaPipeline::PredictKernels(const std::vector<const KernelDesc*>& kernels,
                                  double* out) const {
  const size_t count = kernels.size();
  if (stage_pool_ == nullptr || count < options_.parallel_estimation_threshold) {
    kernel_estimator_->PredictUsBatch(kernels.data(), count, out);
    return;
  }
  // Fan the unique batch out in contiguous chunks; slots are disjoint, so
  // workers write without synchronization. ParallelFor's per-call latch keeps
  // concurrent callers (search trials annotating at once) isolated: each
  // waits for its own chunks only.
  const size_t chunk =
      std::max<size_t>(256, count / (stage_pool_->num_threads() * 4));
  const size_t num_chunks = (count + chunk - 1) / chunk;
  stage_pool_->ParallelFor(num_chunks, [&](size_t c) {
    ScopedSpan span("estimate_chunk", "pipeline");
    const size_t begin = c * chunk;
    const size_t len = std::min(chunk, count - begin);
    kernel_estimator_->PredictUsBatch(kernels.data() + begin, len, out + begin);
  });
}

EstimationStats MayaPipeline::AnnotateDurations(JobTrace& job,
                                                const GroundTruthExecutor* oracle) const {
  // A null token can never fail, so the cancellable variant's Result always
  // holds a value here.
  return *AnnotateDurations(job, oracle, nullptr);
}

Result<EstimationStats> MayaPipeline::AnnotateDurations(JobTrace& job,
                                                        const GroundTruthExecutor* oracle,
                                                        const CancelToken* cancel) const {
  MAYA_RETURN_IF_ERROR(CheckCancel(cancel));
  EstimationStats stats;
  if (oracle != nullptr) {
    // Profiled actual runtime of each exact execution instance: per-instance
    // noise makes oracle durations non-memoizable by design (Table 3).
    for (WorkerTrace& worker : job.workers) {
      for (size_t i = 0; i < worker.ops.size(); ++i) {
        TraceOp& op = worker.ops[i];
        if (op.type == TraceOpType::kKernelLaunch) {
          ++stats.kernel_ops;
          op.duration_us = oracle->kernel_model().NoisyUs(
              op.kernel, HashCombine(static_cast<uint64_t>(worker.rank), i));
        } else if (op.type == TraceOpType::kCollective) {
          ++stats.collective_ops;
          const CommGroup& group = job.comm(op.collective.comm_uid);
          CollectiveRequest request{op.collective.kind, op.collective.bytes, group.members};
          op.duration_us = oracle->collective_model().NoisyUs(
              request, HashCombine(op.collective.comm_uid, op.collective.seq));
        }
      }
    }
    return stats;
  }

  // Pass 1: dedup. Collect the unique kernels / collectives and record, in
  // op-walk order, which unique slot each op resolves to.
  size_t total_ops = 0;
  for (const WorkerTrace& worker : job.workers) {
    total_ops += worker.ops.size();
  }
  std::unordered_map<const KernelDesc*, uint32_t, KernelPtrHash, KernelPtrEq> kernel_slots;
  std::vector<const KernelDesc*> unique_kernels;
  std::vector<uint32_t> kernel_op_slots;
  kernel_op_slots.reserve(total_ops);
  std::unordered_map<LocalCollectiveKey, uint32_t, LocalCollectiveKeyHash> collective_slots;
  std::vector<LocalCollectiveKey> unique_collectives;
  std::vector<uint32_t> collective_op_slots;
  collective_op_slots.reserve(total_ops / 4);
  for (WorkerTrace& worker : job.workers) {
    for (TraceOp& op : worker.ops) {
      if (op.type == TraceOpType::kKernelLaunch) {
        auto [it, inserted] =
            kernel_slots.try_emplace(&op.kernel, static_cast<uint32_t>(unique_kernels.size()));
        if (inserted) {
          unique_kernels.push_back(&op.kernel);
        }
        kernel_op_slots.push_back(it->second);
      } else if (op.type == TraceOpType::kCollective) {
        const LocalCollectiveKey key{op.collective.kind, op.collective.bytes,
                                     op.collective.comm_uid};
        auto [it, inserted] =
            collective_slots.try_emplace(key, static_cast<uint32_t>(unique_collectives.size()));
        if (inserted) {
          unique_collectives.push_back(key);
        }
        collective_op_slots.push_back(it->second);
      }
    }
  }
  stats.kernel_ops = kernel_op_slots.size();
  stats.unique_kernels = unique_kernels.size();
  stats.collective_ops = collective_op_slots.size();
  stats.unique_collectives = unique_collectives.size();
  // Checkpoint between dedup and prediction: nothing published yet.
  MAYA_RETURN_IF_ERROR(CheckCancel(cancel));

  // Pass 2: resolve each unique kernel once — from the cross-trial cache
  // when possible, otherwise through batched (optionally parallel) inference.
  std::vector<double> kernel_durations(unique_kernels.size());
  if (options_.enable_estimate_cache) {
    std::vector<uint32_t> miss_slots;
    std::vector<const KernelDesc*> miss_kernels;
    for (size_t i = 0; i < unique_kernels.size(); ++i) {
      if (std::optional<double> hit = kernel_estimate_cache_.Lookup(*unique_kernels[i])) {
        kernel_durations[i] = *hit;
        ++stats.cache_hits;
      } else {
        miss_slots.push_back(static_cast<uint32_t>(i));
        miss_kernels.push_back(unique_kernels[i]);
      }
    }
    if (!miss_kernels.empty()) {
      std::vector<double> predicted(miss_kernels.size());
      PredictKernels(miss_kernels, predicted.data());
      // Checkpoint between the (possibly parallel) prediction batch and the
      // cache publish: a cancelled annotation inserts none of the fresh
      // predictions, leaving the kernel estimate cache untouched.
      MAYA_RETURN_IF_ERROR(CheckCancel(cancel));
      for (size_t j = 0; j < miss_kernels.size(); ++j) {
        kernel_durations[miss_slots[j]] = predicted[j];
        kernel_estimate_cache_.Insert(*miss_kernels[j], predicted[j]);
      }
      stats.cache_misses += miss_kernels.size();
    }
  } else {
    PredictKernels(unique_kernels, kernel_durations.data());
    stats.cache_misses += unique_kernels.size();
  }

  // Unique collectives (few per trace): canonical request built once each.
  // Checkpoint before the collective batch (and its cache inserts).
  MAYA_RETURN_IF_ERROR(CheckCancel(cancel));
  std::vector<double> collective_durations(unique_collectives.size());
  for (size_t i = 0; i < unique_collectives.size(); ++i) {
    const LocalCollectiveKey& key = unique_collectives[i];
    CollectiveRequest request{key.kind, key.bytes, job.comm(key.comm_uid).members};
    if (options_.enable_estimate_cache) {
      if (std::optional<double> hit = collective_estimate_cache_.Lookup(request)) {
        collective_durations[i] = *hit;
        ++stats.cache_hits;
        continue;
      }
      ++stats.cache_misses;
      collective_durations[i] = collective_estimator_->PredictUs(request, cluster_);
      collective_estimate_cache_.Insert(request, collective_durations[i]);
    } else {
      ++stats.cache_misses;
      collective_durations[i] = collective_estimator_->PredictUs(request, cluster_);
    }
  }

  // Pass 3: broadcast durations to every matching op, consuming the slot
  // streams in the same walk order as pass 1.
  size_t kernel_cursor = 0;
  size_t collective_cursor = 0;
  for (WorkerTrace& worker : job.workers) {
    for (TraceOp& op : worker.ops) {
      if (op.type == TraceOpType::kKernelLaunch) {
        op.duration_us = kernel_durations[kernel_op_slots[kernel_cursor++]];
      } else if (op.type == TraceOpType::kCollective) {
        op.duration_us = collective_durations[collective_op_slots[collective_cursor++]];
      }
    }
  }
  return stats;
}

Result<SimReport> MayaPipeline::Simulate(const JobTrace& job, bool /*unused*/,
                                         const CancelToken* cancel) const {
  SimOptions sim_options;
  sim_options.cache = options_.enable_sim_cache ? &sim_cache_ : nullptr;
  sim_options.cancel = cancel;
  Simulator simulator(job, cluster_, sim_options);
  return simulator.Run();
}

Result<PredictionReport> MayaPipeline::Predict(const PredictionRequest& request) const {
  PredictionReport report;
  StageClock clock;
  // Injection sites fire BEFORE their stage touches any shared cache, so a
  // faulted request leaves the pipeline's cross-trial state exactly as it
  // found it (chaos tests assert bit-identity of the surviving requests).
  FaultInjection& faults = FaultInjection::Instance();
  const bool virtual_folds = UsesVirtualFolds(request);

  std::string trace_key;
  std::shared_ptr<const CollatedTrace> cached;
  if (options_.enable_trace_cache) {
    trace_key = TraceCacheKey(request, virtual_folds);
    if (std::optional<std::shared_ptr<const CollatedTrace>> hit =
            trace_cache_.Lookup(trace_key)) {
      cached = *std::move(hit);
      report.trace_cache_hit = true;
    }
  }

  JobTrace job;
  if (cached != nullptr) {
    // Stages 1+2 served from the collated-trace cache. The copy is required:
    // annotation writes durations into the trace in place.
    if (cached->oom) {
      report.oom = true;
      report.oom_detail = cached->oom_detail;
      report.timings.emulation_ms = clock.LapMs();
      return report;
    }
    job = cached->job;
    report.collation = cached->collation;
    report.full_workers_emulated = cached->full_workers_emulated;
    report.timings.collation_ms = clock.LapMs();
  } else {
    // (1) Trace collection via emulation. The shared pool is safe for
    // concurrent Predict calls: ParallelFor isolates each caller's ranks
    // behind a per-call latch.
    MAYA_RETURN_IF_ERROR(faults.MaybeFail("pipeline.emulate"));
    MAYA_RETURN_IF_ERROR(CheckCancel(request.cancel));
    LaunchOptions launch;
    launch.virtual_folds = virtual_folds;
    launch.emulation_pool = stage_pool_;
    launch.min_parallel_ranks = options_.min_parallel_emulation_ranks;
    launch.cancel = request.cancel;
    Result<LaunchResult> launched = [&] {
      ScopedSpan span("emulate", "pipeline");
      return EmulateJob(request.model, request.config, cluster_, launch);
    }();
    if (!launched.ok()) {
      return launched.status();
    }
    report.timings.emulation_ms = launched->emulation_wall_ms;
    clock.LapMs();
    if (launched->oom) {
      report.oom = true;
      report.oom_detail = launched->oom_detail;
      // A cancelled request publishes nothing — not even the (correct) OOM
      // outcome — so the trace cache stays byte-identical to never running.
      MAYA_RETURN_IF_ERROR(CheckCancel(request.cancel));
      if (options_.enable_trace_cache) {
        auto entry = std::make_shared<CollatedTrace>();
        entry->oom = true;
        entry->oom_detail = launched->oom_detail;
        trace_cache_.Insert(trace_key, std::move(entry));
      }
      return report;
    }
    report.full_workers_emulated = launched->full_workers_emulated;

    // (2) Trace collation + worker deduplication (fingerprints fan out on
    // the shared pool; grouping stays bit-identical to the sequential pass).
    MAYA_RETURN_IF_ERROR(faults.MaybeFail("pipeline.collate"));
    MAYA_RETURN_IF_ERROR(CheckCancel(request.cancel));
    CollationOptions collation;
    collation.deduplicate = request.deduplicate_workers;
    collation.pool = stage_pool_;
    collation.cancel = request.cancel;
    TraceCollator collator(collation);
    Result<JobTrace> collated = [&] {
      ScopedSpan span("collate", "pipeline");
      return collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
    }();
    if (!collated.ok()) {
      return collated.status();
    }
    job = *std::move(collated);
    report.collation = collator.stats();
    report.timings.collation_ms = clock.LapMs();

    // Checkpoint before the trace-cache publish (see OOM branch above).
    MAYA_RETURN_IF_ERROR(CheckCancel(request.cancel));
    if (options_.enable_trace_cache) {
      auto entry = std::make_shared<CollatedTrace>();
      entry->job = job;  // pre-annotation copy (durations still zero)
      entry->collation = report.collation;
      entry->full_workers_emulated = report.full_workers_emulated;
      trace_cache_.Insert(trace_key, std::move(entry));
    }
  }

  // (3) Kernel runtime estimation.
  MAYA_RETURN_IF_ERROR(faults.MaybeFail("pipeline.estimate"));
  {
    ScopedSpan span("estimate", "pipeline");
    Result<EstimationStats> annotated = AnnotateDurations(job, request.oracle, request.cancel);
    MAYA_RETURN_IF_ERROR(annotated.status());
    report.estimation = *annotated;
  }
  report.timings.estimation_ms = clock.LapMs();

  // (4) End-to-end simulation (no SM contention: Maya's model, §8).
  MAYA_RETURN_IF_ERROR(faults.MaybeFail("pipeline.simulate"));
  Result<SimReport> sim = [&] {
    ScopedSpan span("simulate", "pipeline");
    return Simulate(job, /*unused=*/true, request.cancel);
  }();
  if (!sim.ok()) {
    return sim.status();
  }
  report.sim = *std::move(sim);
  report.simulation = report.sim.stats;
  report.timings.simulation_ms = clock.LapMs();

  MAYA_RETURN_IF_ERROR(faults.MaybeFail("pipeline.finalize"));
  MAYA_RETURN_IF_ERROR(CheckCancel(request.cancel));
  report.iteration_time_us = report.sim.total_time_us;
  report.mfu = ComputeMfu(request.model, request.config.global_batch_size, cluster_,
                          report.iteration_time_us);
  return report;
}

double ComputeMfu(const ModelConfig& model, int64_t global_batch, const ClusterSpec& cluster,
                  double iteration_time_us) {
  // Request-reachable (iteration time flows out of a simulation of an
  // arbitrary wire config; the batch comes straight off the wire): degenerate
  // inputs mean "no useful utilization number", never an abort.
  if (iteration_time_us <= 0.0) {
    return 0.0;
  }
  const double model_flops = model.FlopsPerIteration(global_batch);
  const double peak = model.family == ModelFamily::kResNet ? cluster.gpu.peak_fp32_flops
                                                           : cluster.gpu.peak_tensor_flops;
  const double cluster_flops =
      peak * cluster.total_gpus() * (iteration_time_us / 1e6);
  return cluster_flops > 0.0 ? model_flops / cluster_flops : 0.0;
}

}  // namespace maya
