// Hot-path microbenchmarks (google-benchmark): emulator API call overhead,
// discrete-event simulation throughput, trace collation + serialization,
// random-forest inference, and the estimation stage's memoized hot path —
// the per-op costs the Fig. 13 stack runtimes are built from. Also emits
// BENCH_estimation.json (estimation-throughput study: naive per-op vs.
// deduped-batched vs. warm-cache predictions/sec), BENCH_emulation.json,
// BENCH_hyperscale.json and BENCH_service.json.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/json_writer.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/dlf/worker_launcher.h"
#include "src/estimator/collective_estimator.h"
#include "src/estimator/features.h"
#include "src/hw/collective_cost.h"
#include "src/estimator/kernel_estimator.h"
#include "src/groundtruth/executor.h"
#include "src/models/model_zoo.h"
#include "src/service/artifact_store.h"
#include "src/service/service_engine.h"
#include "src/trace/collator.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

ModelConfig BenchModel() {
  ModelConfig model;
  model.name = "bench-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  return model;
}

TrainConfig BenchConfig() {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  return config;
}

void BM_EmulatorApiCall(benchmark::State& state) {
  VirtualHostClock clock;
  JobEmulation emulation(EmulationSpec{H100Cluster(8)});
  WorkerEmulator& worker = emulation.CreateWorker(0, &clock);
  const KernelDesc kernel = MakeGemm(1024, 1024, 1024, DType::kBf16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(worker.cudaLaunchKernel(kernel, StreamHandle{0}));
    clock.Advance(1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulatorApiCall);

void BM_JobEmulation(benchmark::State& state) {
  for (auto _ : state) {
    Result<LaunchResult> launched = EmulateJob(BenchModel(), BenchConfig(), H100Cluster(8));
    CHECK(launched.ok());
    benchmark::DoNotOptimize(launched->traces.size());
  }
}
BENCHMARK(BM_JobEmulation)->Unit(benchmark::kMillisecond);

void BM_TraceCollation(benchmark::State& state) {
  Result<LaunchResult> launched = EmulateJob(BenchModel(), BenchConfig(), H100Cluster(8));
  CHECK(launched.ok());
  for (auto _ : state) {
    std::vector<WorkerTrace> copy = launched->traces;
    TraceCollator collator;
    Result<JobTrace> job = collator.Collate(std::move(copy));
    CHECK(job.ok());
    benchmark::DoNotOptimize(job->TotalOps());
  }
}
BENCHMARK(BM_TraceCollation)->Unit(benchmark::kMillisecond);

void BM_Simulation(benchmark::State& state) {
  Result<LaunchResult> launched = EmulateJob(BenchModel(), BenchConfig(), H100Cluster(8));
  CHECK(launched.ok());
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  CHECK(job.ok());
  GroundTruthExecutor executor(H100Cluster(8), 3);
  const JobTrace annotated = executor.AnnotateActualDurations(*job);
  size_t events = 0;
  for (auto _ : state) {
    Simulator simulator(annotated, H100Cluster(8));
    Result<SimReport> report = simulator.Run();
    CHECK(report.ok());
    events = report->events_processed;
    benchmark::DoNotOptimize(report->total_time_us);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events) * state.iterations());
}
BENCHMARK(BM_Simulation)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredict(benchmark::State& state) {
  GroundTruthExecutor executor(H100Cluster(8), 3);
  RandomForestKernelEstimator estimator;
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1500;
  sweep.conv_samples = 100;
  sweep.generic_samples = 30;
  estimator.Fit(GenerateKernelDataset(GpuArch::kH100, executor.MakeKernelProfiler(), sweep));
  const KernelDesc kernel = MakeGemm(4096, 1024, 4096, DType::kBf16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.PredictUs(kernel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomForestPredict);

void BM_RandomForestPredictBatch(benchmark::State& state) {
  GroundTruthExecutor executor(H100Cluster(8), 3);
  RandomForestKernelEstimator estimator;
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1500;
  sweep.conv_samples = 100;
  sweep.generic_samples = 30;
  estimator.Fit(GenerateKernelDataset(GpuArch::kH100, executor.MakeKernelProfiler(), sweep));
  std::vector<KernelDesc> kernels;
  for (int64_t m = 128; m <= 4096; m *= 2) {
    for (int64_t k = 128; k <= 4096; k *= 2) {
      kernels.push_back(MakeGemm(m, 1024, k, DType::kBf16));
    }
  }
  std::vector<const KernelDesc*> pointers;
  for (const KernelDesc& kernel : kernels) {
    pointers.push_back(&kernel);
  }
  std::vector<double> out(kernels.size());
  for (auto _ : state) {
    estimator.PredictUsBatch(pointers.data(), pointers.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kernels.size()) * state.iterations());
}
BENCHMARK(BM_RandomForestPredictBatch);

// Shared fixture for the estimation-stage benchmarks: one collated trace and
// one trained estimator bank, built once per binary.
struct EstimationFixture {
  ClusterSpec cluster = H100Cluster(8);
  GroundTruthExecutor executor{cluster, 3};
  EstimatorBank bank;
  JobTrace job;
  size_t estimated_ops = 0;  // kernel + collective ops annotated per pass

  EstimationFixture() {
    ProfileSweepOptions sweep;
    sweep.gemm_samples = 1500;
    sweep.conv_samples = 100;
    sweep.generic_samples = 30;
    bank = TrainEstimators(cluster, executor, sweep);
    Result<LaunchResult> launched = EmulateJob(BenchModel(), BenchConfig(), cluster);
    CHECK(launched.ok());
    TraceCollator collator;
    Result<JobTrace> collated = collator.Collate(std::move(launched->traces));
    CHECK(collated.ok());
    job = *std::move(collated);
    for (const WorkerTrace& worker : job.workers) {
      estimated_ops += worker.KernelLaunchCount() + worker.CollectiveCount();
    }
  }

  static EstimationFixture& Get() {
    static EstimationFixture fixture;
    return fixture;
  }

  // The seed's estimation stage: one estimator call per op, no dedup, no
  // memoization — the baseline the tentpole is measured against.
  void AnnotateNaive() {
    for (WorkerTrace& worker : job.workers) {
      for (TraceOp& op : worker.ops) {
        if (op.type == TraceOpType::kKernelLaunch) {
          op.duration_us = bank.kernel->PredictUs(op.kernel);
        } else if (op.type == TraceOpType::kCollective) {
          const CommGroup& group = job.comm(op.collective.comm_uid);
          CollectiveRequest request{op.collective.kind, op.collective.bytes, group.members};
          op.duration_us = bank.collective->PredictUs(request, cluster);
        }
      }
    }
  }
};

void BM_AnnotateDurationsNaivePerOp(benchmark::State& state) {
  EstimationFixture& fixture = EstimationFixture::Get();
  for (auto _ : state) {
    fixture.AnnotateNaive();
    benchmark::DoNotOptimize(fixture.job.workers.front().ops.front().duration_us);
  }
  state.SetItemsProcessed(static_cast<int64_t>(fixture.estimated_ops) * state.iterations());
}
BENCHMARK(BM_AnnotateDurationsNaivePerOp)->Unit(benchmark::kMillisecond);

void BM_AnnotateDurationsDedupBatched(benchmark::State& state) {
  EstimationFixture& fixture = EstimationFixture::Get();
  MayaPipelineOptions options;
  options.enable_estimate_cache = false;
  MayaPipeline pipeline(fixture.cluster, fixture.bank.kernel.get(),
                        fixture.bank.collective.get(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.AnnotateDurations(fixture.job, nullptr).kernel_ops);
  }
  state.SetItemsProcessed(static_cast<int64_t>(fixture.estimated_ops) * state.iterations());
}
BENCHMARK(BM_AnnotateDurationsDedupBatched)->Unit(benchmark::kMillisecond);

void BM_AnnotateDurationsWarmCache(benchmark::State& state) {
  EstimationFixture& fixture = EstimationFixture::Get();
  MayaPipeline pipeline(fixture.cluster, fixture.bank.kernel.get(),
                        fixture.bank.collective.get());
  pipeline.AnnotateDurations(fixture.job, nullptr);  // warm the estimate cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.AnnotateDurations(fixture.job, nullptr).cache_hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(fixture.estimated_ops) * state.iterations());
}
BENCHMARK(BM_AnnotateDurationsWarmCache)->Unit(benchmark::kMillisecond);

void BM_KernelFeatureExtraction(benchmark::State& state) {
  const KernelDesc kernel = MakeGemm(4096, 1024, 4096, DType::kBf16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelFeatures(kernel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelFeatureExtraction);

void BM_TraceSerialization(benchmark::State& state) {
  Result<LaunchResult> launched = EmulateJob(BenchModel(), BenchConfig(), H100Cluster(8));
  CHECK(launched.ok());
  const WorkerTrace& trace = launched->traces.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeWorkerTrace(trace));
  }
  state.SetBytesProcessed(static_cast<int64_t>(SerializeWorkerTrace(trace).size()) *
                          state.iterations());
}
BENCHMARK(BM_TraceSerialization)->Unit(benchmark::kMillisecond);

// Estimation-throughput study: predictions/sec for the three estimation-stage
// strategies on a repeated-kernel GPT trace, plus the cache hit rate —
// written to BENCH_estimation.json for the perf-tracking harness.
double MeasurePredictionsPerSec(size_t ops_per_pass, const std::function<void()>& annotate) {
  // One untimed pass to fault in everything, then time enough passes to get
  // out of clock-resolution territory.
  annotate();
  const int passes = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < passes; ++i) {
    annotate();
  }
  const double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                             .count();
  return static_cast<double>(ops_per_pass) * passes / seconds;
}

void RunEstimationThroughputStudy() {
  EstimationFixture& fixture = EstimationFixture::Get();

  const double naive_per_sec =
      MeasurePredictionsPerSec(fixture.estimated_ops, [&] { fixture.AnnotateNaive(); });

  MayaPipelineOptions uncached_options;
  uncached_options.enable_estimate_cache = false;
  MayaPipeline uncached(fixture.cluster, fixture.bank.kernel.get(),
                        fixture.bank.collective.get(), uncached_options);
  const double dedup_per_sec = MeasurePredictionsPerSec(
      fixture.estimated_ops, [&] { uncached.AnnotateDurations(fixture.job, nullptr); });

  MayaPipeline cached(fixture.cluster, fixture.bank.kernel.get(),
                      fixture.bank.collective.get());
  const double cached_per_sec = MeasurePredictionsPerSec(
      fixture.estimated_ops, [&] { cached.AnnotateDurations(fixture.job, nullptr); });
  const EstimationStats warm_stats = cached.AnnotateDurations(fixture.job, nullptr);

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string_view("estimation_throughput"));
  json.Field("trace_ops_estimated", static_cast<uint64_t>(fixture.estimated_ops));
  json.Field("unique_kernels", warm_stats.unique_kernels);
  json.Field("unique_collectives", warm_stats.unique_collectives);
  json.Field("naive_per_op_predictions_per_sec", naive_per_sec);
  json.Field("dedup_batched_predictions_per_sec", dedup_per_sec);
  json.Field("warm_cache_predictions_per_sec", cached_per_sec);
  json.Field("speedup_dedup_vs_naive", dedup_per_sec / naive_per_sec);
  json.Field("speedup_cached_vs_naive", cached_per_sec / naive_per_sec);
  json.Field("warm_cache_hit_rate", warm_stats.hit_rate());
  json.EndObject();
  std::ofstream out("BENCH_estimation.json");
  out << json.str() << "\n";

  std::cout << "Estimation throughput (predictions/sec) on "
            << fixture.estimated_ops << " ops (" << warm_stats.unique_kernels
            << " unique kernels, " << warm_stats.unique_collectives
            << " unique collectives):\n"
            << StrFormat("  naive per-op : %12.0f\n", naive_per_sec)
            << StrFormat("  dedup+batched: %12.0f  (%.1fx)\n", dedup_per_sec,
                         dedup_per_sec / naive_per_sec)
            << StrFormat("  warm cache   : %12.0f  (%.1fx, hit rate %.1f%%)\n", cached_per_sec,
                         cached_per_sec / naive_per_sec, warm_stats.hit_rate() * 100.0)
            << "Wrote BENCH_estimation.json\n";
}

// Emulation-throughput study: wall-ms and effective ranks/s for the trace-
// collection stage across {sequential, parallel} x {full, dedup} per
// framework — written to BENCH_emulation.json. "Dedup" is virtual folds (one
// emulated rank per equivalence class); outputs of every arm are asserted
// bit-identical to the sequential dedup-off baseline in dlf_test/core_test,
// so this measures pure speedup.
double MeasureEmulationWallMs(const ModelConfig& model, const TrainConfig& config,
                              const ClusterSpec& cluster, const LaunchOptions& options,
                              int passes) {
  Result<LaunchResult> warmup = EmulateJob(model, config, cluster, options);  // fault in
  CHECK(warmup.ok()) << warmup.status().ToString();
  CHECK(!warmup->oom) << warmup->oom_detail;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < passes; ++i) {
    Result<LaunchResult> launched = EmulateJob(model, config, cluster, options);
    CHECK(launched.ok());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return seconds * 1000.0 / passes;
}

void RunEmulationThroughputStudy(bool tiny) {
  ModelConfig model = BenchModel();
  if (tiny) {
    model.num_layers = 2;  // harness smoke: exercise every arm, not the scale
  } else {
    model.num_layers = 16;  // a few ms per job, so arm ratios aren't noise
  }
  const ClusterSpec cluster = H100Cluster(8);
  const int world = cluster.total_gpus();
  const int passes = tiny ? 2 : 10;
  const int threads = static_cast<int>(
      std::min<unsigned>(8, std::max(2u, std::thread::hardware_concurrency())));

  struct Case {
    const char* framework;
    TrainConfig config;
  };
  std::vector<Case> cases;
  {
    // Multi-rank symmetric config (the Fig. 14 lever at its strongest):
    // tp1 pp1 -> dp8, every rank twins rank 0.
    TrainConfig dp8;
    dp8.global_batch_size = 32;
    dp8.microbatch_multiplier = 4;
    cases.push_back({"megatron_dp8", dp8});
    TrainConfig grid = BenchConfig();  // tp2 x pp2: one class per stage
    cases.push_back({"megatron_tp2pp2", grid});
    TrainConfig fsdp;
    fsdp.framework = ParallelFramework::kFsdp;
    fsdp.global_batch_size = 32;
    fsdp.microbatch_multiplier = 4;
    cases.push_back({"fsdp", fsdp});
  }
  {
    TrainConfig ddp;
    ddp.framework = ParallelFramework::kDdp;
    ddp.global_batch_size = 256;
    ddp.microbatch_multiplier = 1;
    cases.push_back({"vision", ddp});
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string_view("emulation_throughput"));
  json.Field("world_size", static_cast<int64_t>(world));
  json.Field("emulation_threads", static_cast<int64_t>(threads));
  json.Field("passes", static_cast<int64_t>(passes));
  json.Field("tiny", tiny);
  json.KeyedBeginObject("frameworks");
  std::cout << StrFormat(
      "Emulation throughput (world %d, %d threads): wall-ms per job / effective ranks/s\n",
      world, threads);
  double symmetric_speedup = 0.0;
  // One persistent pool for every parallel arm, as the pipeline runs it —
  // spawning a pool per job would charge thread startup to sub-ms launches.
  ThreadPool pool(static_cast<size_t>(threads));
  for (const Case& test_case : cases) {
    const ModelConfig& case_model = test_case.framework[0] == 'v' ? ResNet152() : model;
    LaunchOptions seq_full;
    LaunchOptions par_full;
    par_full.emulation_pool = &pool;
    LaunchOptions seq_dedup;
    seq_dedup.virtual_folds = true;
    LaunchOptions par_dedup;
    par_dedup.virtual_folds = true;
    par_dedup.emulation_pool = &pool;

    const double seq_full_ms =
        MeasureEmulationWallMs(case_model, test_case.config, cluster, seq_full, passes);
    const double par_full_ms =
        MeasureEmulationWallMs(case_model, test_case.config, cluster, par_full, passes);
    const double seq_dedup_ms =
        MeasureEmulationWallMs(case_model, test_case.config, cluster, seq_dedup, passes);
    const double par_dedup_ms =
        MeasureEmulationWallMs(case_model, test_case.config, cluster, par_dedup, passes);
    const double speedup = seq_full_ms / par_dedup_ms;
    if (test_case.framework == std::string_view("megatron_dp8")) {
      symmetric_speedup = speedup;
    }

    json.KeyedBeginObject(test_case.framework);
    json.Field("sequential_full_wall_ms", seq_full_ms);
    json.Field("parallel_full_wall_ms", par_full_ms);
    json.Field("sequential_dedup_wall_ms", seq_dedup_ms);
    json.Field("parallel_dedup_wall_ms", par_dedup_ms);
    json.Field("sequential_full_ranks_per_sec", world * 1000.0 / seq_full_ms);
    json.Field("parallel_full_ranks_per_sec", world * 1000.0 / par_full_ms);
    json.Field("sequential_dedup_ranks_per_sec", world * 1000.0 / seq_dedup_ms);
    json.Field("parallel_dedup_ranks_per_sec", world * 1000.0 / par_dedup_ms);
    json.Field("speedup_parallel_vs_sequential", seq_full_ms / par_full_ms);
    json.Field("speedup_dedup_vs_full", seq_full_ms / seq_dedup_ms);
    json.Field("speedup_parallel_dedup_vs_sequential_full", speedup);
    json.EndObject();
    std::cout << StrFormat(
        "  %-16s seq %7.2f ms | par %7.2f ms | dedup %7.2f ms | par+dedup %7.2f ms "
        "(%.1fx vs seq)\n",
        test_case.framework, seq_full_ms, par_full_ms, seq_dedup_ms, par_dedup_ms, speedup);
  }
  json.EndObject();
  json.Field("symmetric_speedup_parallel_dedup_vs_sequential_full", symmetric_speedup);
  json.EndObject();
  std::ofstream out("BENCH_emulation.json");
  out << json.str() << "\n";
  std::cout << "Wrote BENCH_emulation.json\n";
}

// Service-throughput study: requests/s through a warm ServiceEngine at 1, 4
// and 16 concurrent clients, plus cold-start vs artifact-bundle warm-start on
// a repeated config sweep — written to BENCH_service.json.
std::vector<ServiceRequest> ServiceSweepRequests() {
  std::vector<ServiceRequest> requests;
  for (int tp : {1, 2}) {
    for (int pp : {1, 2}) {
      for (int mb : {1, 2}) {
        ServiceRequest request;
        PredictPayload payload;
        payload.model = BenchModel();
        payload.config = BenchConfig();
        payload.config.tensor_parallel = tp;
        payload.config.pipeline_parallel = pp;
        payload.config.microbatch_multiplier = mb;
        request.payload = std::move(payload);
        requests.push_back(std::move(request));
      }
    }
  }
  return requests;
}

// `clients` threads each issue `per_client` requests round-robin over the
// sweep; returns completed requests per wall-clock second.
double MeasureServiceRequestsPerSec(ServiceEngine& engine,
                                    const std::vector<ServiceRequest>& sweep, int clients,
                                    int per_client) {
  std::atomic<uint64_t> next_id{1};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&engine, &sweep, &next_id, per_client, c] {
      std::vector<std::future<ServiceResponse>> futures;
      futures.reserve(static_cast<size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        ServiceRequest request = sweep[static_cast<size_t>(c + i) % sweep.size()];
        request.id = next_id.fetch_add(1);
        futures.push_back(engine.Submit(request));
      }
      for (std::future<ServiceResponse>& future : futures) {
        const ServiceResponse response = future.get();
        CHECK(response.ok) << response.error;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(clients) * per_client / seconds;
}

// Telemetry-overhead guard: a span site with telemetry disabled is one
// relaxed atomic load + branch, so a hashing loop with a ScopedSpan per
// iteration must run at ~the speed of the bare loop. Returns the wall-time
// ratio (instrumented / baseline), min-of-5 to shed scheduler noise; CI
// fails the build when the committed threshold is exceeded.
double MeasureDisabledSpanOverheadRatio() {
  Telemetry::Instance().Disable();
  constexpr int kIters = 1 << 21;
  uint64_t sink = 0;
  const auto time_loop = [&sink](bool with_span) {
    double best_ms = 1e300;
    for (int repeat = 0; repeat < 5; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        if (with_span) {
          ScopedSpan span("bench_disabled_site", "bench");
          sink += SplitMix64(static_cast<uint64_t>(i) ^ sink);
        } else {
          sink += SplitMix64(static_cast<uint64_t>(i) ^ sink);
        }
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      best_ms = std::min(best_ms, ms);
    }
    return best_ms;
  };
  const double baseline_ms = time_loop(/*with_span=*/false);
  const double instrumented_ms = time_loop(/*with_span=*/true);
  benchmark::DoNotOptimize(sink);
  return instrumented_ms / baseline_ms;
}

void RunServiceThroughputStudy() {
  EstimationFixture& fixture = EstimationFixture::Get();
  const std::vector<ServiceRequest> sweep = ServiceSweepRequests();
  ServiceEngineOptions options;
  options.worker_threads = 4;
  options.max_queue_weight = 4096.0;

  // Cold start: fresh engine, empty estimate caches, first sweep pass.
  Result<std::unique_ptr<ServiceEngine>> cold_created = ServiceEngine::Create(
      fixture.cluster, fixture.bank.kernel.get(), fixture.bank.collective.get(), options);
  CHECK(cold_created.ok()) << cold_created.status().ToString();
  ServiceEngine& cold = **cold_created;
  const double cold_per_sec =
      MeasureServiceRequestsPerSec(cold, sweep, /*clients=*/1, /*per_client=*/
                                   static_cast<int>(sweep.size()));

  // Persist the warmed caches, then restart from the bundle.
  const std::string bundle_dir =
      (std::filesystem::temp_directory_path() / "maya_bench_bundle").string();
  std::filesystem::remove_all(bundle_dir);
  ArtifactStore store(bundle_dir);
  CHECK(store.Save(fixture.cluster, fixture.bank, cold.pipeline()).ok());
  const auto load_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<ServiceEngine>> warm =
      ServiceEngine::FromArtifacts(fixture.cluster, store, options);
  CHECK(warm.ok()) << warm.status().ToString();
  const double artifact_load_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - load_start)
          .count();

  const double warm_per_sec =
      MeasureServiceRequestsPerSec(**warm, sweep, /*clients=*/1,
                                   /*per_client=*/static_cast<int>(sweep.size()));
  const ShardedCacheStats warm_kernel_cache = (*warm)->pipeline().KernelCacheStats();
  const double warm_hit_rate = warm_kernel_cache.hit_rate();

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string_view("service_throughput"));
  json.Field("sweep_configs", static_cast<uint64_t>(sweep.size()));
  json.Field("worker_threads", static_cast<int64_t>(options.worker_threads));
  json.Field("cold_start_requests_per_sec", cold_per_sec);
  json.Field("warm_start_requests_per_sec", warm_per_sec);
  json.Field("warm_start_speedup", warm_per_sec / cold_per_sec);
  json.Field("warm_start_kernel_cache_hit_rate", warm_hit_rate);
  json.Field("artifact_load_ms", artifact_load_ms);
  const double span_overhead = MeasureDisabledSpanOverheadRatio();
  json.Field("telemetry_disabled_span_overhead_ratio", span_overhead);
  std::cout << StrFormat("  disabled span-site overhead: %.3fx baseline\n", span_overhead);
  json.KeyedBeginObject("warm_requests_per_sec_by_clients");
  std::cout << StrFormat(
      "Service throughput (%zu-config sweep, %d workers): cold %0.1f req/s, "
      "warm %0.1f req/s (%.2fx, kernel-cache hit rate %.1f%%, bundle load %.0f ms)\n",
      sweep.size(), options.worker_threads, cold_per_sec, warm_per_sec,
      warm_per_sec / cold_per_sec, warm_hit_rate * 100.0, artifact_load_ms);
  for (int clients : {1, 4, 16}) {
    const double per_sec =
        MeasureServiceRequestsPerSec(**warm, sweep, clients, /*per_client=*/12);
    json.Field(StrFormat("%d", clients).c_str(), per_sec);
    std::cout << StrFormat("  %2d client(s): %8.1f requests/s\n", clients, per_sec);
  }
  json.EndObject();
  json.EndObject();
  std::ofstream out("BENCH_service.json");
  out << json.str() << "\n";
  std::cout << "Wrote BENCH_service.json\n";
  std::filesystem::remove_all(bundle_dir);
}

// Hyperscale-prediction study: end-to-end Predict wall time, peak-RSS growth
// and unique-worker counts under virtual folded ranks at 16k/65k/131k ranks
// (GPT-3 145.6B, TP8/PP8, 12K global batch — the Fig. 12 operating point,
// collectives priced by the ASTRA-sim-like network model). After the timed
// sweep (so full emulation's heap cannot mask the sweep's peak-RSS growth),
// the virtual path is CHECKed bit-identical to full emulation at a small
// verifiable world, so the sweep measures pure O(unique-work) scaling of a
// verified path. Written to BENCH_hyperscale.json;
// the headline gate is wall-time growth from the first to the last world
// (committed baseline + CI trend check: must stay <= 2x).
long PeakRssKb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

void CheckBitIdenticalPredictions(const PredictionReport& expected,
                                  const PredictionReport& actual, const char* arm) {
  CHECK(expected.oom == actual.oom) << arm;
  CHECK(expected.oom_detail == actual.oom_detail) << arm;
  CHECK(expected.iteration_time_us == actual.iteration_time_us) << arm;
  CHECK(expected.mfu == actual.mfu) << arm;
  CHECK(expected.sim.total_time_us == actual.sim.total_time_us) << arm;
  CHECK(expected.sim.peak_memory_bytes == actual.sim.peak_memory_bytes) << arm;
  CHECK(expected.sim.workers.size() == actual.sim.workers.size()) << arm;
  for (size_t w = 0; w < expected.sim.workers.size(); ++w) {
    CHECK(expected.sim.workers[w] == actual.sim.workers[w]) << arm << " worker " << w;
  }
  CHECK(expected.collation.unique_workers == actual.collation.unique_workers) << arm;
}

void RunHyperscaleStudy(bool tiny) {
  EstimationFixture& fixture = EstimationFixture::Get();
  // Kernel estimators transfer across cluster sizes of the same arch; the
  // network model replaces the profiled collective tables (§7.4).
  AstraLikeNetworkModel astra;
  NetworkModelCollectiveEstimator astra_estimator(&astra);

  const ModelConfig model = tiny ? BenchModel() : Gpt3_145_6B();
  TrainConfig config;
  if (tiny) {
    config = BenchConfig();  // tp2 x pp2: rank grid 4, dp = world / 4
    config.global_batch_size = 4096;
  } else {
    // Fig. 12's operating point scaled to hyperscale DP: the global batch
    // must keep the per-rank microbatch count at 64 up to dp 2048.
    config.global_batch_size = 131072;
    config.tensor_parallel = 8;
    config.pipeline_parallel = 8;
    config.microbatch_multiplier = 8;  // 64 microbatches
    config.sequence_parallel = true;
    config.activation_recomputation = true;
    config.distributed_optimizer = true;
  }
  const std::vector<int> worlds = tiny ? std::vector<int>{256, 512, 1024}
                                       : std::vector<int>{16384, 65536, 131072};
  const int verify_world = tiny ? 16 : 128;
  const int passes = tiny ? 3 : 2;

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string_view("hyperscale_prediction"));
  json.Field("model", model.name);
  json.Field("tiny", tiny);
  json.Field("passes", static_cast<int64_t>(passes));
  json.KeyedBeginObject("worlds");
  std::cout << StrFormat(
      "Hyperscale prediction (%s, tp%lld pp%lld, gb %lld): Predict wall-ms per world\n",
      model.name.c_str(), static_cast<long long>(config.tensor_parallel),
      static_cast<long long>(config.pipeline_parallel),
      static_cast<long long>(config.global_batch_size));
  double first_ms = 0.0;
  double last_ms = 0.0;
  for (const int world : worlds) {
    const ClusterSpec cluster = H100Cluster(world);
    CHECK(config.Validate(model, cluster).ok()) << config.Summary();
    // Fresh pipeline per world (the cluster changes anyway); caches stay at
    // their defaults but every pass re-emulates — the trace cache is off by
    // default, so each timed pass pays the full 4-stage pipeline.
    MayaPipeline pipeline(cluster, fixture.bank.kernel.get(), &astra_estimator);
    PredictionRequest request{model, config};
    request.virtual_folds = true;

    const long rss_before_kb = PeakRssKb();
    Result<PredictionReport> warmup = pipeline.Predict(request);  // fault in
    CHECK(warmup.ok()) << warmup.status().ToString();
    CHECK(!warmup->oom) << warmup->oom_detail;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < passes; ++i) {
      Result<PredictionReport> report = pipeline.Predict(request);
      CHECK(report.ok());
    }
    const double wall_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() *
        1000.0 / passes;
    const long rss_after_kb = PeakRssKb();
    if (world == worlds.front()) {
      first_ms = wall_ms;
    }
    if (world == worlds.back()) {
      last_ms = wall_ms;
    }

    json.KeyedBeginObject(StrFormat("%d", world).c_str());
    json.Field("world_size", static_cast<int64_t>(world));
    json.Field("data_parallel", static_cast<int64_t>(config.data_parallel(world)));
    json.Field("predict_wall_ms", wall_ms);
    json.Field("peak_rss_delta_kb", static_cast<int64_t>(rss_after_kb - rss_before_kb));
    json.Field("peak_rss_kb", static_cast<int64_t>(rss_after_kb));
    json.Field("unique_workers", static_cast<int64_t>(warmup->collation.unique_workers));
    json.Field("full_workers_emulated",
               static_cast<int64_t>(warmup->full_workers_emulated));
    json.Field("iteration_time_us", warmup->iteration_time_us);
    json.Field("mfu", warmup->mfu);
    json.EndObject();
    std::cout << StrFormat(
        "  world %7d: %8.2f ms/predict | rss +%ld KiB | %d unique workers | MFU %.1f%%\n",
        world, wall_ms, rss_after_kb - rss_before_kb, warmup->collation.unique_workers,
        warmup->mfu * 100.0);
  }
  json.EndObject();

  // Bit-identity gate against full emulation, the reference path, at a world
  // where it runs every rank in seconds: the sweep above measured the exact
  // same virtual-folds code path, just at worlds where only it can run. The
  // full-size gate keeps the sweep's last microbatch size (1), so the
  // reference fits the device.
  {
    const ClusterSpec cluster = H100Cluster(verify_world);
    TrainConfig verify_config = config;
    if (!tiny) {
      verify_config.global_batch_size =
          static_cast<int64_t>(config.data_parallel(verify_world)) * config.num_microbatches();
    }
    CHECK(verify_config.Validate(model, cluster).ok()) << verify_config.Summary();
    MayaPipeline pipeline(cluster, fixture.bank.kernel.get(), &astra_estimator);
    PredictionRequest full{model, verify_config};
    PredictionRequest virtualized = full;
    virtualized.virtual_folds = true;
    Result<PredictionReport> expected = pipeline.Predict(full);
    CHECK(expected.ok()) << expected.status().ToString();
    CHECK(!expected->oom) << expected->oom_detail;
    Result<PredictionReport> actual = pipeline.Predict(virtualized);
    CHECK(actual.ok()) << actual.status().ToString();
    CheckBitIdenticalPredictions(*expected, *actual, "virtual folds");
    std::cout << StrFormat(
        "Hyperscale study: virtual folds bit-identical to full emulation at world %d "
        "(%d of %d workers emulated)\n",
        verify_world, actual->full_workers_emulated, expected->full_workers_emulated);
  }
  json.Field("verify_world", static_cast<int64_t>(verify_world));
  json.Field("bit_identical_at_verify_world", true);
  const double growth = last_ms / first_ms;
  json.Field("wall_growth_first_to_last", growth);
  json.EndObject();
  std::ofstream out("BENCH_hyperscale.json");
  out << json.str() << "\n";
  std::cout << StrFormat("  wall growth %dx ranks: %.2fx (gate: <= 2x)\n",
                         worlds.back() / worlds.front(), growth)
            << "Wrote BENCH_hyperscale.json\n";
}

}  // namespace
}  // namespace maya

int main(int argc, char** argv) {
  // The studies train estimators and emulate jobs (seconds): keep
  // listing/help invocations cheap, and honor --no_estimation_study /
  // --no_service_study so filtered runs of unrelated benchmarks don't pay
  // for (or clobber) them.
  bool run_study = true;
  bool run_service_study = true;
  bool run_emulation_study = true;
  bool run_hyperscale_study = true;
  bool emulation_study_tiny = false;
  bool hyperscale_study_tiny = false;
  for (int i = argc - 1; i > 0; --i) {
    const std::string_view arg = argv[i];
    if (arg == "--no_estimation_study" || arg == "--no_service_study" ||
        arg == "--no_emulation_study" || arg == "--emulation_study_tiny" ||
        arg == "--no_hyperscale_study" || arg == "--hyperscale_study_tiny") {
      if (arg == "--no_estimation_study") {
        run_study = false;
      } else if (arg == "--no_service_study") {
        run_service_study = false;
      } else if (arg == "--no_emulation_study") {
        run_emulation_study = false;
      } else if (arg == "--no_hyperscale_study") {
        run_hyperscale_study = false;
      } else if (arg == "--hyperscale_study_tiny") {
        hyperscale_study_tiny = true;  // CI harness smoke at reduced size
      } else {
        emulation_study_tiny = true;  // CI harness smoke at reduced size
      }
      std::rotate(argv + i, argv + i + 1, argv + argc);
      argv[--argc] = nullptr;  // preserve the argv[argc] == nullptr invariant
    } else if (arg == "--benchmark_list_tests" || arg == "--benchmark_list_tests=true" ||
               arg == "--help") {
      run_study = false;
      run_service_study = false;
      run_emulation_study = false;
      run_hyperscale_study = false;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (run_emulation_study) {
    maya::RunEmulationThroughputStudy(emulation_study_tiny);
  }
  if (run_hyperscale_study) {
    maya::RunHyperscaleStudy(hyperscale_study_tiny);
  }
  if (run_study) {
    maya::RunEstimationThroughputStudy();
  }
  if (run_service_study) {
    maya::RunServiceThroughputStudy();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
