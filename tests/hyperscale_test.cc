// Hyperscale virtual-folds tests: RankSet/RankLookup primitives, bit-identity
// of the virtual (never-materialized) launch against full emulation
// across engines / caches / parallelism / OOM, serialization of folded spans
// (and refusal of the retired dense folded_ranks form), and the
// service-layer wire and batch-grouping contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/estimator_bank.h"
#include "src/core/execution_context.h"
#include "src/core/pipeline.h"
#include "src/estimator/collective_estimator.h"
#include "src/models/model_zoo.h"
#include "src/service/service_engine.h"
#include "src/trace/rank_set.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

// ---- RankSet / RankLookup primitives ---------------------------------------

TEST(RankSetTest, AddBuildsCanonicalContiguousSpan) {
  RankSet set;
  EXPECT_TRUE(set.empty());
  for (int rank : {0, 1, 2, 3}) {
    set.Add(rank);
  }
  EXPECT_EQ(set.size(), 4u);
  ASSERT_EQ(set.spans().size(), 1u);
  EXPECT_EQ(set.spans()[0].base, 0);
  EXPECT_EQ(set.spans()[0].count, 4);
  EXPECT_EQ(set.spans()[0].stride, 1);
  EXPECT_EQ(set.min_rank(), 0);
  EXPECT_EQ(set.max_rank(), 3);
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(4));
}

TEST(RankSetTest, AddDetectsStridedProgressions) {
  RankSet set;
  for (int rank : {3, 7, 11, 15}) {
    set.Add(rank);
  }
  ASSERT_EQ(set.spans().size(), 1u);
  EXPECT_EQ(set.spans()[0].base, 3);
  EXPECT_EQ(set.spans()[0].count, 4);
  EXPECT_EQ(set.spans()[0].stride, 4);
  EXPECT_TRUE(set.contains(11));
  EXPECT_FALSE(set.contains(12));
  EXPECT_EQ(set.Materialize(), (std::vector<int>{3, 7, 11, 15}));
}

TEST(RankSetTest, AddSpanMatchesElementwiseConstruction) {
  RankSet bulk;
  bulk.AddSpan(5, 1000, 3);
  RankSet elementwise;
  for (int64_t i = 0; i < 1000; ++i) {
    elementwise.Add(5 + i * 3);
  }
  EXPECT_EQ(bulk, elementwise);
  EXPECT_EQ(bulk.size(), 1000u);
  EXPECT_EQ(bulk.spans().size(), 1u);  // O(1) spans for O(N) members
  EXPECT_EQ(bulk.max_rank(), 5 + 999 * 3);
}

TEST(RankSetTest, IteratorWalksElementsInAscendingOrder) {
  RankSet set;
  set.AddSpan(0, 3, 1);   // 0 1 2
  set.AddSpan(10, 3, 5);  // 10 15 20
  std::vector<int64_t> seen(set.begin(), set.end());
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 10, 15, 20}));
}

TEST(RankSetTest, MergeFromInterleavedStridesStaysCanonical) {
  RankSet evens;
  evens.AddSpan(0, 4, 2);  // 0 2 4 6
  RankSet odds;
  odds.AddSpan(1, 4, 2);  // 1 3 5 7
  evens.MergeFrom(odds);
  EXPECT_EQ(evens.size(), 8u);
  EXPECT_EQ(evens.Materialize(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Canonical invariant: spans ascending and disjoint.
  for (size_t i = 1; i < evens.spans().size(); ++i) {
    EXPECT_GT(evens.spans()[i].base, evens.spans()[i - 1].last());
  }
}

TEST(RankSetTest, MergeFromSpanOrderedFastPathFusesAdjacentSpans) {
  RankSet low{0, 1, 2, 3};
  RankSet high{4, 5, 6, 7};
  low.MergeFrom(high);
  ASSERT_EQ(low.spans().size(), 1u);
  EXPECT_EQ(low.spans()[0].count, 8);
}

TEST(RankLookupTest, FindMapsMembersAndRejectsOutsiders) {
  std::vector<RankSet> folds;
  folds.push_back(RankSet{0, 1, 2, 3});
  RankSet strided;
  strided.AddSpan(4, 3, 4);  // 4 8 12
  folds.push_back(strided);
  folds.push_back(RankSet{5});
  const RankLookup lookup(folds);
  EXPECT_EQ(lookup.Find(0), 0);
  EXPECT_EQ(lookup.Find(3), 0);
  EXPECT_EQ(lookup.Find(4), 1);
  EXPECT_EQ(lookup.Find(8), 1);
  EXPECT_EQ(lookup.Find(12), 1);
  EXPECT_EQ(lookup.Find(5), 2);
  EXPECT_EQ(lookup.Find(6), -1);   // stride hole
  EXPECT_EQ(lookup.Find(13), -1);  // past every span
  EXPECT_EQ(lookup.Find(-1), -1);
}

// ---- Shared prediction fixture ---------------------------------------------

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

TrainConfig MegatronConfig() {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  return config;
}

TrainConfig FsdpConfig() {
  TrainConfig config;
  config.framework = ParallelFramework::kFsdp;
  config.global_batch_size = 32;
  return config;
}

TrainConfig VisionConfig() {
  TrainConfig config;
  config.framework = ParallelFramework::kDdp;
  config.global_batch_size = 256;
  config.microbatch_multiplier = 1;
  return config;
}

// Everything a caller can observe about a prediction, minus wall-clock
// timings and launch-mode byproducts (total_api_calls is not in the report;
// full_workers_emulated legitimately differs from the full-emulation path).
void ExpectSameOutcome(const PredictionReport& a, const PredictionReport& b) {
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.oom_detail, b.oom_detail);
  EXPECT_EQ(a.iteration_time_us, b.iteration_time_us);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.sim.total_time_us, b.sim.total_time_us);
  EXPECT_EQ(a.sim.comm_time_us, b.sim.comm_time_us);
  EXPECT_EQ(a.sim.exposed_comm_us, b.sim.exposed_comm_us);
  EXPECT_EQ(a.sim.host_time_us, b.sim.host_time_us);
  EXPECT_EQ(a.sim.peak_memory_bytes, b.sim.peak_memory_bytes);
  ASSERT_EQ(a.sim.workers.size(), b.sim.workers.size());
  for (size_t i = 0; i < a.sim.workers.size(); ++i) {
    EXPECT_EQ(a.sim.workers[i], b.sim.workers[i]) << "worker row " << i;
  }
  EXPECT_EQ(a.collation.total_workers, b.collation.total_workers);
  EXPECT_EQ(a.collation.unique_workers, b.collation.unique_workers);
  EXPECT_EQ(a.collation.duplicates_folded, b.collation.duplicates_folded);
}

class HyperscaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 13);
    ProfileSweepOptions sweep;  // trimmed for test speed
    sweep.gemm_samples = 1200;
    sweep.conv_samples = 100;
    sweep.generic_samples = 60;
    sweep.collective_sizes = 12;
    bank_ = new EstimatorBank(TrainEstimators(*cluster_, *executor_, sweep));
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete executor_;
    delete cluster_;
  }

  static MayaPipeline MakePipeline(MayaPipelineOptions options = {}) {
    return MayaPipeline(*cluster_, bank_->kernel.get(), bank_->collective.get(), options);
  }

  static PredictionReport PredictOrDie(const MayaPipeline& pipeline, const ModelConfig& model,
                                       const TrainConfig& config, bool virtual_folds) {
    PredictionRequest request;
    request.model = model;
    request.config = config;
    request.virtual_folds = virtual_folds;
    Result<PredictionReport> report = pipeline.Predict(request);
    CHECK(report.ok()) << report.status().ToString();
    return *std::move(report);
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
};

ClusterSpec* HyperscaleTest::cluster_ = nullptr;
GroundTruthExecutor* HyperscaleTest::executor_ = nullptr;
EstimatorBank* HyperscaleTest::bank_ = nullptr;

// ---- Virtual vs materialized bit-identity ----------------------------------

TEST_F(HyperscaleTest, VirtualFoldsMatchFullEmulationMegatron) {
  const MayaPipeline pipeline = MakePipeline();
  const PredictionReport materialized =
      PredictOrDie(pipeline, TinyGpt(), MegatronConfig(), /*virtual_folds=*/false);
  const PredictionReport virtualized =
      PredictOrDie(pipeline, TinyGpt(), MegatronConfig(), /*virtual_folds=*/true);
  ASSERT_FALSE(materialized.oom) << materialized.oom_detail;
  ExpectSameOutcome(materialized, virtualized);
}

TEST_F(HyperscaleTest, VirtualFoldsMatchFullEmulationFsdp) {
  const MayaPipeline pipeline = MakePipeline();
  const PredictionReport materialized =
      PredictOrDie(pipeline, TinyGpt(), FsdpConfig(), /*virtual_folds=*/false);
  const PredictionReport virtualized =
      PredictOrDie(pipeline, TinyGpt(), FsdpConfig(), /*virtual_folds=*/true);
  ASSERT_FALSE(materialized.oom) << materialized.oom_detail;
  ExpectSameOutcome(materialized, virtualized);
  EXPECT_EQ(virtualized.full_workers_emulated, 1);  // one DP equivalence class
}

TEST_F(HyperscaleTest, VirtualFoldsMatchFullEmulationVision) {
  const MayaPipeline pipeline = MakePipeline();
  const PredictionReport materialized =
      PredictOrDie(pipeline, ResNet152(), VisionConfig(), /*virtual_folds=*/false);
  const PredictionReport virtualized =
      PredictOrDie(pipeline, ResNet152(), VisionConfig(), /*virtual_folds=*/true);
  ASSERT_FALSE(materialized.oom) << materialized.oom_detail;
  ExpectSameOutcome(materialized, virtualized);
}

TEST_F(HyperscaleTest, VirtualFoldsMatchAcrossWorldSizes) {
  // The analytic classes must reproduce the materialized fold at any
  // verifiable world size; kernel estimators transfer across cluster sizes
  // of one arch and the network model prices collectives analytically.
  AstraLikeNetworkModel astra;
  NetworkModelCollectiveEstimator astra_estimator(&astra);
  for (const int world : {16, 64}) {
    const ClusterSpec cluster = H100Cluster(world);
    const MayaPipeline pipeline(cluster, bank_->kernel.get(), &astra_estimator);
    TrainConfig config = MegatronConfig();
    config.tensor_parallel = 2;
    config.pipeline_parallel = 4;
    config.global_batch_size = 64;
    ASSERT_TRUE(config.Validate(TinyGpt(), cluster).ok()) << config.Summary();
    const PredictionReport materialized =
        PredictOrDie(pipeline, TinyGpt(), config, /*virtual_folds=*/false);
    const PredictionReport virtualized =
        PredictOrDie(pipeline, TinyGpt(), config, /*virtual_folds=*/true);
    ASSERT_FALSE(materialized.oom) << materialized.oom_detail;
    ExpectSameOutcome(materialized, virtualized);
    EXPECT_EQ(virtualized.full_workers_emulated, 4);  // one class per stage
  }
}

TEST_F(HyperscaleTest, VirtualFoldsBitIdenticalAcrossCacheAndParallelModes) {
  // One request, four execution strategies: {trace/sim caches on, off} x
  // {shared pool, sequential}, with the adaptive thresholds forced low so
  // the parallel arms actually engage at world 8. All bit-identical.
  const PredictionReport reference =
      PredictOrDie(MakePipeline(), TinyGpt(), MegatronConfig(), /*virtual_folds=*/true);

  MayaPipelineOptions cached;
  cached.enable_trace_cache = true;
  MayaPipeline cached_pipeline = MakePipeline(cached);
  const PredictionReport cold =
      PredictOrDie(cached_pipeline, TinyGpt(), MegatronConfig(), /*virtual_folds=*/true);
  const PredictionReport warm =
      PredictOrDie(cached_pipeline, TinyGpt(), MegatronConfig(), /*virtual_folds=*/true);
  EXPECT_FALSE(cold.trace_cache_hit);
  EXPECT_TRUE(warm.trace_cache_hit);
  ExpectSameOutcome(reference, cold);
  ExpectSameOutcome(reference, warm);

  MayaPipelineOptions uncached;
  uncached.enable_estimate_cache = false;
  uncached.enable_sim_cache = false;
  ExpectSameOutcome(
      reference, PredictOrDie(MakePipeline(uncached), TinyGpt(), MegatronConfig(),
                              /*virtual_folds=*/true));

  MayaPipelineOptions parallel;
  parallel.context = ExecutionContext::Create(4);
  parallel.min_parallel_emulation_ranks = 1;
  parallel.parallel_estimation_threshold = 1;
  ExpectSameOutcome(
      reference, PredictOrDie(MakePipeline(parallel), TinyGpt(), MegatronConfig(),
                              /*virtual_folds=*/true));
}

TEST_F(HyperscaleTest, VirtualFoldsOomParityWithMaterializedPaths) {
  // Shrink the device so every rank OOMs: the virtual path must surface the
  // same lowest-failing representative and detail string.
  ClusterSpec small = H100Cluster(8);
  small.gpu.hbm_bytes = 4ULL << 30;
  const MayaPipeline pipeline(small, bank_->kernel.get(), bank_->collective.get());

  PredictionRequest request;
  request.model = TinyGpt();
  TrainConfig unsharded;  // tp1 pp1: every rank holds the full model
  unsharded.global_batch_size = 32;
  request.config = unsharded;
  request.virtual_folds = false;  // the reference: full emulation
  Result<PredictionReport> materialized = pipeline.Predict(request);
  request.virtual_folds = true;
  Result<PredictionReport> virtualized = pipeline.Predict(request);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_TRUE(virtualized.ok()) << virtualized.status().ToString();
  ASSERT_TRUE(materialized->oom);
  EXPECT_TRUE(virtualized->oom);
  EXPECT_EQ(materialized->oom_detail, virtualized->oom_detail);
}

TEST_F(HyperscaleTest, SearchTrialsBitIdenticalUnderVirtualFolds) {
  const MayaPipeline pipeline = MakePipeline();
  const ConfigSpace space = ConfigSpace::MegatronTable5(32);
  SearchOptions options;
  options.algorithm = "random";
  options.sample_budget = 12;
  options.seed = 3;
  options.concurrency = 1;
  options.virtual_folds = false;  // the reference: full emulation per trial
  Result<SearchOutcome> materialized = RunSearch(pipeline, TinyGpt(), space, options);
  options.virtual_folds = true;
  Result<SearchOutcome> virtualized = RunSearch(pipeline, TinyGpt(), space, options);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_TRUE(virtualized.ok()) << virtualized.status().ToString();
  EXPECT_EQ(materialized->found, virtualized->found);
  EXPECT_EQ(materialized->best_mfu, virtualized->best_mfu);
  EXPECT_EQ(materialized->best_iteration_us, virtualized->best_iteration_us);
  EXPECT_EQ(materialized->best_config.CacheKey(), virtualized->best_config.CacheKey());
  EXPECT_EQ(materialized->oom, virtualized->oom);
}

// ---- Serialization of folded spans ------------------------------------------

JobTrace CollateVirtualJob(const ModelConfig& model, const TrainConfig& config,
                           const ClusterSpec& cluster) {
  LaunchOptions launch;
  launch.virtual_folds = true;
  Result<LaunchResult> launched = EmulateJob(model, config, cluster, launch);
  CHECK(launched.ok()) << launched.status().ToString();
  CHECK(!launched->oom) << launched->oom_detail;
  TraceCollator collator;
  Result<JobTrace> job =
      collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
  CHECK(job.ok()) << job.status().ToString();
  return *std::move(job);
}

TEST_F(HyperscaleTest, VirtualJobTraceRoundTripsByteIdentical) {
  const JobTrace job = CollateVirtualJob(TinyGpt(), MegatronConfig(), *cluster_);
  const std::string json = SerializeJobTrace(job);
  // Folded membership travels as spans, never as materialized rank lists.
  EXPECT_NE(json.find("\"folded_spans\""), std::string::npos);
  EXPECT_EQ(json.find("\"folded_ranks\""), std::string::npos);
  Result<JobTrace> parsed = ParseJobTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->world_size, job.world_size);
  EXPECT_EQ(parsed->folded_ranks, job.folded_ranks);
  ASSERT_EQ(parsed->workers.size(), job.workers.size());
  for (size_t i = 0; i < job.workers.size(); ++i) {
    EXPECT_EQ(parsed->workers[i].rank, job.workers[i].rank) << "worker " << i;
    EXPECT_EQ(parsed->workers[i].represented_ranks, job.workers[i].represented_ranks)
        << "worker " << i;
    EXPECT_EQ(parsed->workers[i].ops.size(), job.workers[i].ops.size()) << "worker " << i;
    EXPECT_EQ(parsed->workers[i].Fingerprint(), job.workers[i].Fingerprint()) << "worker " << i;
  }
  EXPECT_EQ(SerializeJobTrace(*parsed), json);
}

TEST_F(HyperscaleTest, LegacyFoldedRanksFormatIsRejected) {
  // Pre-span serializations carried materialized rank lists under
  // "folded_ranks". Nothing writes that form, and a trace without
  // "folded_spans" is refused with a typed error.
  const JobTrace job = CollateVirtualJob(TinyGpt(), FsdpConfig(), *cluster_);
  ASSERT_EQ(job.workers.size(), 1u);
  const std::string json = SerializeJobTrace(job);
  EXPECT_EQ(json.find("folded_ranks"), std::string::npos);
  const size_t begin = json.find("\"comms\":");
  const size_t end = json.find(",\"folded_spans\"");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string legacy = "{\"world_size\":8," + json.substr(begin, end - begin) +
                             R"(,"folded_ranks":[[0,1,2,3,4,5,6,7]],"workers":[)" +
                             SerializeWorkerTrace(job.workers[0]) + "]}";
  Result<JobTrace> parsed = ParseJobTrace(legacy);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("folded_spans"), std::string::npos)
      << parsed.status().ToString();
}

// ---- Service wire + batch grouping ------------------------------------------

class HyperscaleServiceTest : public HyperscaleTest {
 protected:
  static std::unique_ptr<ServiceEngine> MakeEngine() {
    ProfileSweepOptions sweep;
    sweep.gemm_samples = 1200;
    sweep.conv_samples = 100;
    sweep.generic_samples = 60;
    sweep.collective_sizes = 12;
    return *ServiceEngine::Create(*cluster_, bank_->kernel.get(), bank_->collective.get(),
                                  ServiceEngineOptions{});
  }
};

TEST_F(HyperscaleServiceTest, PredictWireBitIdenticalUnderVirtualFolds) {
  std::unique_ptr<ServiceEngine> engine = MakeEngine();
  PredictPayload payload;
  payload.model = TinyGpt();
  payload.config = MegatronConfig();
  payload.virtual_folds = false;  // the reference: full emulation
  ServiceRequest request;
  request.id = 1;
  request.payload = payload;
  const ServiceResponse materialized = engine->Execute(request);
  payload.virtual_folds = true;
  request.id = 2;
  request.payload = payload;
  const ServiceResponse virtualized = engine->Execute(request);
  ASSERT_TRUE(materialized.ok) << materialized.error;
  ASSERT_TRUE(virtualized.ok) << virtualized.error;
  EXPECT_EQ(materialized.iteration_time_us, virtualized.iteration_time_us);
  EXPECT_EQ(materialized.mfu, virtualized.mfu);
  EXPECT_EQ(materialized.peak_memory_bytes, virtualized.peak_memory_bytes);
  EXPECT_EQ(materialized.oom, virtualized.oom);

  // The flag survives the wire byte-identically.
  const std::string line = SerializeServiceRequest(request);
  EXPECT_NE(line.find("\"virtual_folds\":true"), std::string::npos);
  Result<ServiceRequest> reparsed = ParseServiceRequest(line);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeServiceRequest(*reparsed), line);
}

TEST_F(HyperscaleServiceTest, WhatIfOomWireParityUnderVirtualFolds) {
  std::unique_ptr<ServiceEngine> engine = MakeEngine();
  WhatIfOomPayload payload;
  payload.model = TinyGpt();
  payload.config = MegatronConfig();
  payload.virtual_folds = false;  // the reference: full emulation
  ServiceRequest request;
  request.id = 3;
  request.payload = payload;
  const ServiceResponse materialized = engine->Execute(request);
  payload.virtual_folds = true;
  request.payload = payload;
  const ServiceResponse virtualized = engine->Execute(request);
  ASSERT_TRUE(materialized.ok) << materialized.error;
  ASSERT_TRUE(virtualized.ok) << virtualized.error;
  EXPECT_EQ(materialized.oom, virtualized.oom);
  EXPECT_EQ(materialized.oom_detail, virtualized.oom_detail);
  EXPECT_EQ(materialized.peak_memory_bytes, virtualized.peak_memory_bytes);
}

TEST_F(HyperscaleServiceTest, TracePredictAcceptsVirtualFoldedBundles) {
  std::unique_ptr<ServiceEngine> engine = MakeEngine();
  // A virtual-folds bundle (spans + resolved comms) must predict identically
  // to the materialized bundle of the same configuration.
  TracePredictPayload virtual_payload;
  virtual_payload.trace = CollateVirtualJob(TinyGpt(), MegatronConfig(), *cluster_);

  LaunchOptions materialized_launch;
  Result<LaunchResult> launched =
      EmulateJob(TinyGpt(), MegatronConfig(), *cluster_, materialized_launch);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  TraceCollator collator;
  Result<JobTrace> materialized_job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(materialized_job.ok()) << materialized_job.status().ToString();
  TracePredictPayload materialized_payload;
  materialized_payload.trace = *std::move(materialized_job);

  // Round-trip BOTH requests over the wire: folded spans and represented
  // worker sets must survive the trace_predict payload codec, and both arms
  // see the same (wire-normalized) double formatting.
  ServiceRequest request;
  request.id = 4;
  request.payload = std::move(virtual_payload);
  Result<ServiceRequest> wired_virtual = ParseServiceRequest(SerializeServiceRequest(request));
  ASSERT_TRUE(wired_virtual.ok()) << wired_virtual.status().ToString();
  const ServiceResponse virtualized = engine->Execute(*wired_virtual);
  request.id = 5;
  request.payload = std::move(materialized_payload);
  Result<ServiceRequest> wired_materialized =
      ParseServiceRequest(SerializeServiceRequest(request));
  ASSERT_TRUE(wired_materialized.ok()) << wired_materialized.status().ToString();
  const ServiceResponse materialized = engine->Execute(*wired_materialized);
  ASSERT_TRUE(virtualized.ok) << virtualized.error;
  ASSERT_TRUE(materialized.ok) << materialized.error;
  EXPECT_EQ(materialized.iteration_time_us, virtualized.iteration_time_us);
  EXPECT_EQ(materialized.mfu, virtualized.mfu);
  EXPECT_EQ(materialized.peak_memory_bytes, virtualized.peak_memory_bytes);
}

TEST_F(HyperscaleServiceTest, BatchPredictGroupingPreservesOrderAndResults) {
  std::unique_ptr<ServiceEngine> engine = MakeEngine();
  // An interleaved batch (fingerprint twins deliberately non-adjacent): the
  // cache-aware grouping may execute in any order, but slots must stay in
  // submission order and every item must equal its standalone predict.
  TrainConfig a = MegatronConfig();
  TrainConfig b = MegatronConfig();
  b.tensor_parallel = 1;
  b.pipeline_parallel = 2;
  BatchPredictPayload batch;
  batch.model = TinyGpt();
  batch.configs = {a, b, a, b, a};
  batch.virtual_folds = true;
  ServiceRequest request;
  request.id = 6;
  request.payload = batch;
  const ServiceResponse response = engine->Execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.batch.size(), 5u);

  auto single = [&](const TrainConfig& config) {
    PredictPayload payload;
    payload.model = TinyGpt();
    payload.config = config;
    payload.virtual_folds = true;
    ServiceRequest one;
    one.id = 7;
    one.payload = std::move(payload);
    const ServiceResponse answer = engine->Execute(one);
    CHECK(answer.ok) << answer.error;
    return SinglePredictResult(answer);
  };
  const PredictResult expect_a = single(a);
  const PredictResult expect_b = single(b);
  for (size_t i : {0u, 2u, 4u}) {
    EXPECT_EQ(response.batch[i].iteration_time_us, expect_a.iteration_time_us) << i;
    EXPECT_EQ(response.batch[i].mfu, expect_a.mfu) << i;
    EXPECT_EQ(response.batch[i].peak_memory_bytes, expect_a.peak_memory_bytes) << i;
  }
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(response.batch[i].iteration_time_us, expect_b.iteration_time_us) << i;
    EXPECT_EQ(response.batch[i].mfu, expect_b.mfu) << i;
    EXPECT_EQ(response.batch[i].peak_memory_bytes, expect_b.peak_memory_bytes) << i;
  }
}

}  // namespace
}  // namespace maya
