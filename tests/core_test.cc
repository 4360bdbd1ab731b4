// End-to-end MayaPipeline tests: prediction accuracy against the ground
// truth executor, oracle mode (Table 3 structure), dedup invariance, stage
// timings, MFU computation and estimator training.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/models/model_zoo.h"

namespace maya {
namespace {

ModelConfig TinyGpt() {
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  return model;
}

// Shared (expensive) fixture: one trained estimator bank per test binary.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 99);
    ProfileSweepOptions sweep;  // trimmed for test speed
    sweep.gemm_samples = 5000;
    sweep.conv_samples = 400;
    sweep.generic_samples = 150;
    sweep.collective_sizes = 16;
    bank_ = new EstimatorBank(TrainEstimators(*cluster_, *executor_, sweep));
    pipeline_ = new MayaPipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete bank_;
    delete executor_;
    delete cluster_;
  }

  static TrainConfig BaseConfig() {
    TrainConfig config;
    config.global_batch_size = 32;
    config.tensor_parallel = 2;
    config.pipeline_parallel = 2;
    config.microbatch_multiplier = 2;
    return config;
  }

  static double ActualUs(const TrainConfig& config) {
    Result<LaunchResult> launched = EmulateJob(TinyGpt(), config, *cluster_);
    CHECK(launched.ok());
    CHECK(!launched->oom);
    TraceCollator collator;
    Result<JobTrace> job = collator.Collate(std::move(launched->traces));
    CHECK(job.ok());
    Result<SimReport> report = executor_->Execute(*job);
    CHECK(report.ok()) << report.status().ToString();
    return report->total_time_us;
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
  static MayaPipeline* pipeline_;
};

ClusterSpec* PipelineTest::cluster_ = nullptr;
GroundTruthExecutor* PipelineTest::executor_ = nullptr;
EstimatorBank* PipelineTest::bank_ = nullptr;
MayaPipeline* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, PredictsWithinPaperErrorBand) {
  PredictionRequest request;
  request.model = TinyGpt();
  request.config = BaseConfig();
  Result<PredictionReport> prediction = pipeline_->Predict(request);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_FALSE(prediction->oom);
  const double actual = ActualUs(request.config);
  const double error =
      std::abs(prediction->iteration_time_us - actual) / actual * 100.0;
  EXPECT_LT(error, 12.0) << "Maya " << prediction->iteration_time_us << "us vs actual "
                         << actual << "us";
}

TEST_F(PipelineTest, OracleBeatsEndToEndOnAverage) {
  // Table 3's structure: oracle (actual kernel times) error < E2E error,
  // averaged across configurations.
  std::vector<TrainConfig> configs;
  for (int tp : {1, 2}) {
    for (int pp : {1, 2}) {
      TrainConfig config = BaseConfig();
      config.tensor_parallel = tp;
      config.pipeline_parallel = pp;
      configs.push_back(config);
    }
  }
  double oracle_error_sum = 0.0;
  double e2e_error_sum = 0.0;
  for (const TrainConfig& config : configs) {
    const double actual = ActualUs(config);
    PredictionRequest e2e{TinyGpt(), config};
    PredictionRequest oracle{TinyGpt(), config};
    oracle.oracle = executor_;
    const double e2e_us = pipeline_->Predict(e2e)->iteration_time_us;
    const double oracle_us = pipeline_->Predict(oracle)->iteration_time_us;
    e2e_error_sum += std::abs(e2e_us - actual) / actual;
    oracle_error_sum += std::abs(oracle_us - actual) / actual;
  }
  EXPECT_LT(oracle_error_sum / configs.size(), 0.05);
  EXPECT_LE(oracle_error_sum, e2e_error_sum + 0.02 * configs.size());
}

TEST_F(PipelineTest, DedupDoesNotChangePrediction) {
  // Estimators are deterministic per kernel shape, so folding twins must
  // not move the prediction.
  PredictionRequest with{TinyGpt(), BaseConfig()};
  PredictionRequest without{TinyGpt(), BaseConfig()};
  without.deduplicate_workers = false;
  const double a = pipeline_->Predict(with)->iteration_time_us;
  const double b = pipeline_->Predict(without)->iteration_time_us;
  EXPECT_NEAR(a / b, 1.0, 1e-9);
}

TEST_F(PipelineTest, DedupShrinksSimulatedWorkers) {
  PredictionRequest request{TinyGpt(), BaseConfig()};
  Result<PredictionReport> report = pipeline_->Predict(request);
  ASSERT_TRUE(report.ok());
  // tp2 x pp2 x dp2 on 8 GPUs folds to one representative per stage.
  EXPECT_EQ(report->collation.unique_workers, 2);
  EXPECT_EQ(report->collation.duplicates_folded, 6);
}

TEST_F(PipelineTest, VirtualFoldsMatchDedupPath) {
  PredictionRequest dynamic{TinyGpt(), BaseConfig()};
  dynamic.virtual_folds = false;  // the reference: full emulation
  PredictionRequest folded{TinyGpt(), BaseConfig()};
  folded.virtual_folds = true;
  const Result<PredictionReport> a = pipeline_->Predict(dynamic);
  const Result<PredictionReport> b = pipeline_->Predict(folded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->iteration_time_us / b->iteration_time_us, 1.0, 1e-9);
  EXPECT_EQ(b->full_workers_emulated, 2);
  EXPECT_EQ(a->full_workers_emulated, cluster_->total_gpus());
}

TEST_F(PipelineTest, ParallelEmulationMatchesSerialPrediction) {
  // The shared ExecutionContext is output-preserving: per-rank clocks/RNGs
  // plus pre-assigned comm uids make the parallel launch bit-identical.
  MayaPipelineOptions parallel_options;
  parallel_options.context = ExecutionContext::Create(4);
  MayaPipeline parallel(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                        parallel_options);
  for (bool virtual_folds : {false, true}) {
    PredictionRequest request{TinyGpt(), BaseConfig()};
    request.virtual_folds = virtual_folds;
    const Result<PredictionReport> a = parallel.Predict(request);
    const Result<PredictionReport> b = pipeline_->Predict(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->iteration_time_us, b->iteration_time_us) << "virtual_folds=" << virtual_folds;
    EXPECT_EQ(a->mfu, b->mfu);
    EXPECT_EQ(a->full_workers_emulated, b->full_workers_emulated);
  }
}

TEST_F(PipelineTest, ParallelEmulationOomMatchesSerial) {
  MayaPipelineOptions parallel_options;
  parallel_options.context = ExecutionContext::Create(4);
  MayaPipeline parallel(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                        parallel_options);
  PredictionRequest request{TinyGpt(), BaseConfig()};
  request.model.seq_length = 8192;
  request.config.microbatch_multiplier = 1;
  const Result<PredictionReport> a = parallel.Predict(request);
  const Result<PredictionReport> b = pipeline_->Predict(request);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->oom);
  EXPECT_EQ(a->oom_detail, b->oom_detail);
}

TEST_F(PipelineTest, GeneralizedVirtualFoldsMatchDedupPath) {
  // FSDP: one fully-emulated rank stands for all eight.
  TrainConfig fsdp = BaseConfig();
  fsdp.framework = ParallelFramework::kFsdp;
  fsdp.tensor_parallel = 1;
  fsdp.pipeline_parallel = 1;
  PredictionRequest dynamic{TinyGpt(), fsdp};
  dynamic.virtual_folds = false;  // the reference: full emulation
  PredictionRequest folded{TinyGpt(), fsdp};
  folded.virtual_folds = true;
  const Result<PredictionReport> a = pipeline_->Predict(dynamic);
  const Result<PredictionReport> b = pipeline_->Predict(folded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The dynamic-dedup fold and the virtual folds pick the same
  // representative (rank 0), so the predictions are bit-identical.
  EXPECT_EQ(a->iteration_time_us, b->iteration_time_us);
  EXPECT_EQ(a->mfu, b->mfu);
  EXPECT_EQ(a->full_workers_emulated, cluster_->total_gpus());
  EXPECT_EQ(b->full_workers_emulated, 1);
  EXPECT_EQ(b->collation.unique_workers, 1);
}

TEST_F(PipelineTest, GeneralizedVirtualFoldsVisionMatchDedupPath) {
  TrainConfig ddp;
  ddp.framework = ParallelFramework::kDdp;
  ddp.global_batch_size = 256;
  ddp.microbatch_multiplier = 1;
  PredictionRequest dynamic{ResNet152(), ddp};
  dynamic.virtual_folds = false;  // the reference: full emulation
  PredictionRequest folded{ResNet152(), ddp};
  folded.virtual_folds = true;
  const Result<PredictionReport> a = pipeline_->Predict(dynamic);
  const Result<PredictionReport> b = pipeline_->Predict(folded);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->iteration_time_us, b->iteration_time_us);
  EXPECT_EQ(a->full_workers_emulated, cluster_->total_gpus());
  EXPECT_EQ(b->full_workers_emulated, 1);
}

TEST_F(PipelineTest, SymmetricDedupOnVsOffBitIdentical) {
  // Twins are seeded with class-wide host jitter, so folding them (dynamic
  // dedup or virtual folds) is exactly lossless: parallel/dedup outputs
  // must be bit-identical to the sequential, dedup-off baseline on symmetric
  // configs — the Fig. 14 / BENCH_emulation ablation anchor.
  struct Case {
    const char* label;
    ParallelFramework framework;
  };
  for (const Case& test_case :
       {Case{"megatron_dp8", ParallelFramework::kMegatron},
        Case{"fsdp", ParallelFramework::kFsdp},
        Case{"deepspeed_z2", ParallelFramework::kDeepSpeed}}) {
    TrainConfig config;  // tp1 pp1 -> dp8: every rank twins rank 0
    config.framework = test_case.framework;
    config.zero_stage = 2;
    config.global_batch_size = 32;
    PredictionRequest off{TinyGpt(), config};
    off.deduplicate_workers = false;
    PredictionRequest folded{TinyGpt(), config};
    folded.virtual_folds = true;
    const Result<PredictionReport> a = pipeline_->Predict(off);
    const Result<PredictionReport> b = pipeline_->Predict(folded);
    ASSERT_TRUE(a.ok()) << test_case.label;
    ASSERT_TRUE(b.ok()) << test_case.label;
    EXPECT_EQ(a->iteration_time_us, b->iteration_time_us) << test_case.label;
    EXPECT_EQ(a->mfu, b->mfu) << test_case.label;
    EXPECT_EQ(a->collation.unique_workers, 8) << test_case.label;
    EXPECT_EQ(b->collation.unique_workers, 1) << test_case.label;
    EXPECT_EQ(b->full_workers_emulated, 1) << test_case.label;
  }

  // Vision DDP: same invariant through the cuDNN/conv path.
  TrainConfig ddp;
  ddp.framework = ParallelFramework::kDdp;
  ddp.global_batch_size = 256;
  ddp.microbatch_multiplier = 1;
  PredictionRequest vision_off{ResNet152(), ddp};
  vision_off.deduplicate_workers = false;
  PredictionRequest vision_folded{ResNet152(), ddp};
  vision_folded.virtual_folds = true;
  const Result<PredictionReport> e = pipeline_->Predict(vision_off);
  const Result<PredictionReport> f = pipeline_->Predict(vision_folded);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(e->iteration_time_us, f->iteration_time_us);
  EXPECT_EQ(e->collation.unique_workers, 8);
  EXPECT_EQ(f->collation.unique_workers, 1);
}

TEST_F(PipelineTest, OomReportedNotFailed) {
  PredictionRequest request{TinyGpt(), BaseConfig()};
  request.model.seq_length = 8192;  // blow up attention memory
  request.config.microbatch_multiplier = 1;
  Result<PredictionReport> report = pipeline_->Predict(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->oom);
  EXPECT_FALSE(report->oom_detail.empty());
  EXPECT_NE(report->Summary().find("OOM"), std::string::npos);
}

TEST_F(PipelineTest, StageTimingsPopulated) {
  PredictionRequest request{TinyGpt(), BaseConfig()};
  Result<PredictionReport> report = pipeline_->Predict(request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->timings.emulation_ms, 0.0);
  EXPECT_GT(report->timings.estimation_ms, 0.0);
  EXPECT_GT(report->timings.simulation_ms, 0.0);
  EXPECT_GT(report->timings.total_ms(), 0.0);
}

TEST_F(PipelineTest, MfuInPlausibleRange) {
  PredictionRequest request{TinyGpt(), BaseConfig()};
  Result<PredictionReport> report = pipeline_->Predict(request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->mfu, 0.005);
  EXPECT_LT(report->mfu, 0.9);
}

TEST_F(PipelineTest, ValidationMapeMatchesPaperShape) {
  // Heavy hitters (GEMM) must be much better predicted than tiny kernels —
  // the consistent theme of Tables 7-9.
  const std::map<KernelKind, double> mape = PerKindMape(*bank_->kernel, bank_->kernel_validation);
  ASSERT_TRUE(mape.count(KernelKind::kGemm) > 0);
  EXPECT_LT(mape.at(KernelKind::kGemm), 12.0);
  EXPECT_LT(mape.at(KernelKind::kGemmStridedBatched), 14.0);
}

TEST_F(PipelineTest, EstimateCacheOnVsOffBitIdentical) {
  // The tentpole invariant: memoizing estimates must not move any output.
  MayaPipelineOptions cached_options;
  ASSERT_TRUE(cached_options.enable_estimate_cache);
  MayaPipelineOptions uncached_options;
  uncached_options.enable_estimate_cache = false;
  MayaPipeline cached(*cluster_, bank_->kernel.get(), bank_->collective.get(), cached_options);
  MayaPipeline uncached(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                        uncached_options);
  for (int tp : {1, 2}) {
    TrainConfig config = BaseConfig();
    config.tensor_parallel = tp;
    PredictionRequest request{TinyGpt(), config};
    // Two rounds each: round 2 exercises the warm-cache path.
    for (int round = 0; round < 2; ++round) {
      const Result<PredictionReport> a = cached.Predict(request);
      const Result<PredictionReport> b = uncached.Predict(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->iteration_time_us, b->iteration_time_us)
          << "tp=" << tp << " round=" << round;
      EXPECT_EQ(a->mfu, b->mfu) << "tp=" << tp << " round=" << round;
    }
  }
  EXPECT_GT(cached.KernelCacheStats().hits, 0u);
  EXPECT_EQ(uncached.KernelCacheStats().insertions, 0u);
}

TEST_F(PipelineTest, EstimateCachePersistsAcrossPredictCalls) {
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  PredictionRequest request{TinyGpt(), BaseConfig()};
  const Result<PredictionReport> cold = pipeline.Predict(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->estimation.kernel_ops, cold->estimation.unique_kernels);
  EXPECT_GT(cold->estimation.cache_misses, 0u);
  const Result<PredictionReport> warm = pipeline.Predict(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->estimation.cache_misses, 0u);
  EXPECT_EQ(warm->estimation.cache_hits, warm->estimation.unique_ops());
  EXPECT_EQ(warm->iteration_time_us, cold->iteration_time_us);
}

TEST_F(PipelineTest, ParallelEstimationMatchesSerial) {
  MayaPipelineOptions parallel_options;
  parallel_options.context = ExecutionContext::Create(4);
  parallel_options.parallel_estimation_threshold = 1;  // force the pool path
  parallel_options.enable_estimate_cache = false;      // re-predict every call
  MayaPipelineOptions serial_options;
  serial_options.enable_estimate_cache = false;
  MayaPipeline parallel(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                        parallel_options);
  MayaPipeline serial(*cluster_, bank_->kernel.get(), bank_->collective.get(), serial_options);
  PredictionRequest request{TinyGpt(), BaseConfig()};
  const Result<PredictionReport> a = parallel.Predict(request);
  const Result<PredictionReport> b = serial.Predict(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->iteration_time_us, b->iteration_time_us);
}

TEST_F(PipelineTest, SharedContextAllStagesBitIdentical) {
  // One ExecutionContext drives emulation, the collator's fingerprint pass
  // and estimation at once; every stage is output-preserving, so the fully
  // parallel pipeline must equal the fully sequential one EXPECT_EQ-exact.
  MayaPipelineOptions shared_options;
  shared_options.context = ExecutionContext::Create(4);
  shared_options.parallel_estimation_threshold = 1;
  MayaPipeline shared(*cluster_, bank_->kernel.get(), bank_->collective.get(), shared_options);
  for (int tp : {1, 2}) {
    TrainConfig config = BaseConfig();
    config.tensor_parallel = tp;
    PredictionRequest request{TinyGpt(), config};
    const Result<PredictionReport> a = shared.Predict(request);
    const Result<PredictionReport> b = pipeline_->Predict(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->iteration_time_us, b->iteration_time_us) << "tp=" << tp;
    EXPECT_EQ(a->mfu, b->mfu) << "tp=" << tp;
    EXPECT_EQ(a->collation.unique_workers, b->collation.unique_workers) << "tp=" << tp;
  }
}

TEST_F(PipelineTest, OracleModeBypassesEstimateCache) {
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  PredictionRequest request{TinyGpt(), BaseConfig()};
  request.oracle = executor_;
  const Result<PredictionReport> report = pipeline.Predict(request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->estimation.kernel_ops, 0u);
  EXPECT_EQ(report->estimation.cache_hits + report->estimation.cache_misses, 0u);
  EXPECT_EQ(pipeline.KernelCacheStats().insertions, 0u);
}

TEST_F(PipelineTest, TraceCacheOnVsOffBitIdentical) {
  MayaPipelineOptions cached_options;
  cached_options.enable_trace_cache = true;
  MayaPipeline cached(*cluster_, bank_->kernel.get(), bank_->collective.get(), cached_options);
  MayaPipeline plain(*cluster_, bank_->kernel.get(), bank_->collective.get());
  for (int tp : {1, 2}) {
    TrainConfig config = BaseConfig();
    config.tensor_parallel = tp;
    PredictionRequest request{TinyGpt(), config};
    // Round 2 re-annotates a copy of the cached collated trace.
    for (int round = 0; round < 2; ++round) {
      const Result<PredictionReport> a = cached.Predict(request);
      const Result<PredictionReport> b = plain.Predict(request);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->iteration_time_us, b->iteration_time_us)
          << "tp=" << tp << " round=" << round;
      EXPECT_EQ(a->mfu, b->mfu);
      EXPECT_EQ(a->trace_cache_hit, round == 1);
      EXPECT_EQ(a->collation.unique_workers, b->collation.unique_workers);
      EXPECT_FALSE(b->trace_cache_hit);
    }
  }
  EXPECT_GT(cached.TraceCacheStats().hits, 0u);
  EXPECT_EQ(plain.TraceCacheStats().insertions, 0u);
}

TEST_F(PipelineTest, TraceCacheServesOomOutcomes) {
  MayaPipelineOptions options;
  options.enable_trace_cache = true;
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get(), options);
  PredictionRequest request{TinyGpt(), BaseConfig()};
  request.model.seq_length = 8192;
  request.config.microbatch_multiplier = 1;
  const Result<PredictionReport> cold = pipeline.Predict(request);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->oom);
  const Result<PredictionReport> warm = pipeline.Predict(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->oom);
  EXPECT_TRUE(warm->trace_cache_hit);
  EXPECT_EQ(warm->oom_detail, cold->oom_detail);
}

// Compares every simulator-produced output of two predictions EXPECT_EQ-
// exact: iteration time, MFU, and each per-worker timeline.
void ExpectBitIdenticalPredictions(const PredictionReport& a, const PredictionReport& b) {
  EXPECT_EQ(a.iteration_time_us, b.iteration_time_us);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.sim.events_processed, b.sim.events_processed);
  ASSERT_EQ(a.sim.workers.size(), b.sim.workers.size());
  for (size_t w = 0; w < a.sim.workers.size(); ++w) {
    EXPECT_EQ(a.sim.workers[w], b.sim.workers[w]) << "worker " << w;
  }
}

TEST_F(PipelineTest, SimCacheOnVsOffBitIdentical) {
  MayaPipelineOptions cached_options;
  ASSERT_TRUE(cached_options.enable_sim_cache);
  MayaPipelineOptions uncached_options;
  uncached_options.enable_sim_cache = false;
  MayaPipeline cached(*cluster_, bank_->kernel.get(), bank_->collective.get(), cached_options);
  MayaPipeline uncached(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                        uncached_options);
  PredictionRequest request{TinyGpt(), BaseConfig()};
  const Result<PredictionReport> cold = cached.Predict(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->simulation.cache_hits, 0u);
  EXPECT_GT(cold->simulation.cache_misses, 0u);
  // The repeated config re-emulates (trace cache off) but annotates to the
  // same durations, so its replay comes from the sim cache.
  const Result<PredictionReport> warm = cached.Predict(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->simulation.cache_hits, 0u);
  EXPECT_EQ(warm->simulation.cache_misses, 0u);
  const Result<PredictionReport> fresh = uncached.Predict(request);
  ASSERT_TRUE(fresh.ok());
  ExpectBitIdenticalPredictions(*cold, *warm);
  ExpectBitIdenticalPredictions(*cold, *fresh);
  EXPECT_GT(cached.SimCacheStats().entries, 0u);
  EXPECT_EQ(uncached.SimCacheStats().insertions, 0u);
}

TEST_F(PipelineTest, ParallelSimulationSharedContextBitIdentical) {
  // A dedup-off prediction (every GPU simulated) on a pipeline whose stages
  // share a context's pool must stay bit-identical to a sequential one.
  MayaPipelineOptions shared_options;
  shared_options.context = ExecutionContext::Create(4);
  MayaPipeline shared(*cluster_, bank_->kernel.get(), bank_->collective.get(), shared_options);
  MayaPipelineOptions sequential_options;
  sequential_options.enable_sim_cache = false;
  MayaPipeline sequential(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                          sequential_options);
  PredictionRequest request{TinyGpt(), BaseConfig()};
  request.deduplicate_workers = false;
  const Result<PredictionReport> a = shared.Predict(request);
  const Result<PredictionReport> b = sequential.Predict(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitIdenticalPredictions(*a, *b);
}

TEST(ComputeMfuTest, ScalesInverselyWithTime) {
  const ClusterSpec cluster = H100Cluster(8);
  const ModelConfig model = Gpt3_2_7B();
  const double fast = ComputeMfu(model, 256, cluster, 1e6);
  const double slow = ComputeMfu(model, 256, cluster, 2e6);
  EXPECT_NEAR(fast / slow, 2.0, 1e-9);
}

TEST(ComputeMfuTest, UsesFp32PeakForConvModels) {
  const ClusterSpec cluster = A40Node();
  const double vision_mfu = ComputeMfu(ResNet152(), 512, cluster, 1e6);
  EXPECT_GT(vision_mfu, 0.0);
}

}  // namespace
}  // namespace maya
