// Bundle merge tests: cache union with keep-first conflict resolution,
// byte-identical self-merge and merge with a re-save (a load and a save
// reproduce every file), refusal to pool caches across differently trained
// estimators, the store's fsync'd publish, and input validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/core/estimator_bank.h"
#include "src/groundtruth/executor.h"
#include "src/service/artifact_store.h"
#include "src/service/bundle_merge.h"
#include "src/service/service_engine.h"

namespace maya {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every file of a one-deployment bundle, bundle-relative.
const char* const kBundleFiles[] = {
    "manifest.json",
    "deployment_0/kernel_estimator.json",
    "deployment_0/collective_estimator.json",
    "deployment_0/kernel_validation.json",
    "deployment_0/kernel_cache.json",
    "deployment_0/collective_cache.json",
    "deployment_0/sim_cache.json",
};

void ExpectSameFiles(const std::string& expected_dir, const std::string& actual_dir) {
  for (const char* file : kBundleFiles) {
    EXPECT_EQ(FileBytes(actual_dir + "/" + file), FileBytes(expected_dir + "/" + file)) << file;
  }
}

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

TrainConfig Config(int tensor_parallel, int pipeline_parallel) {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = tensor_parallel;
  config.pipeline_parallel = pipeline_parallel;
  config.microbatch_multiplier = 2;
  return config;
}

class BundleMergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 42);
    ProfileSweepOptions sweep;
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

  // Warms the pipeline's kernel/collective estimate caches and its sim cache
  // by running a full prediction.
  static void Warm(MayaPipeline& pipeline, const TrainConfig& config) {
    PredictionRequest request;
    request.model = TinyGpt();
    request.config = config;
    Result<PredictionReport> report = pipeline.Predict(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
};

ClusterSpec* BundleMergeTest::cluster_ = nullptr;
GroundTruthExecutor* BundleMergeTest::executor_ = nullptr;
EstimatorBank* BundleMergeTest::bank_ = nullptr;

TEST_F(BundleMergeTest, UnionsCachesKeepFirstAndStaysLoadable) {
  const std::string dir_a = TempDir("merge_in_a");
  const std::string dir_b = TempDir("merge_in_b");
  const std::string out = TempDir("merge_out");

  // Same tensor-parallel degree, different pipeline depth: the two configs
  // share most kernel shapes (overlap for the conflict path) but produce
  // distinct traces (disjoint sim fingerprints).
  const TrainConfig config_a = Config(2, 1);
  const TrainConfig config_b = Config(2, 2);

  MayaPipeline pipeline_a(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline_a, config_a);
  ASSERT_TRUE(ArtifactStore(dir_a).Save(*cluster_, *bank_, pipeline_a).ok());

  MayaPipeline pipeline_b(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline_b, config_b);
  ASSERT_TRUE(ArtifactStore(dir_b).Save(*cluster_, *bank_, pipeline_b).ok());

  // The union size, measured by warming one pipeline with both configs.
  MayaPipeline pipeline_union(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline_union, config_a);
  Warm(pipeline_union, config_b);
  const uint64_t union_kernels = pipeline_union.KernelCacheStats().entries;
  const uint64_t union_collectives = pipeline_union.CollectiveCacheStats().entries;
  const uint64_t a_kernels = pipeline_a.KernelCacheStats().entries;
  const uint64_t b_kernels = pipeline_b.KernelCacheStats().entries;
  ASSERT_GT(a_kernels, 0u);
  ASSERT_LT(union_kernels, a_kernels + b_kernels);  // the kernel sets overlap

  Result<BundleMergeReport> report = MergeBundles({dir_a, dir_b}, out);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->deployments.size(), 1u);
  const BundleMergeReport::DeploymentReport& merged = report->deployments[0];
  EXPECT_EQ(merged.name, "default");
  EXPECT_EQ(merged.inputs, 2u);
  EXPECT_EQ(merged.kernel_entries, union_kernels);
  EXPECT_EQ(merged.kernel_conflicts, a_kernels + b_kernels - union_kernels);
  EXPECT_EQ(merged.collective_entries, union_collectives);
  // Distinct traces: every sim entry of both inputs survives, none collide.
  EXPECT_EQ(merged.sim_entries,
            pipeline_a.SimCacheStats().entries + pipeline_b.SimCacheStats().entries);
  EXPECT_EQ(merged.sim_conflicts, 0u);

  // The merged bundle loads and warms a fresh pipeline with the full union.
  const ArtifactStore store(out);
  ASSERT_TRUE(store.Exists());
  Result<std::vector<DeploymentRecord>> loaded = store.LoadDeployments();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);

  MayaPipeline warm(*cluster_, bank_->kernel.get(), bank_->collective.get());
  warm.ImportKernelEstimates(loaded->front().kernel_cache);
  warm.ImportCollectiveEstimates(loaded->front().collective_cache);
  EXPECT_EQ(warm.KernelCacheStats().entries, union_kernels);
  EXPECT_EQ(warm.CollectiveCacheStats().entries, union_collectives);

  // Every merged estimate matches the pipeline that produced it bit-for-bit.
  for (const auto& [kernel, duration_us] : warm.SnapshotKernelEstimates()) {
    bool found = false;
    for (const auto& [union_kernel, union_duration] :
         pipeline_union.SnapshotKernelEstimates()) {
      if (union_kernel == kernel) {
        EXPECT_EQ(duration_us, union_duration);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "merged cache holds a kernel neither input cached";
  }
}

TEST_F(BundleMergeTest, SelfMergeIsByteIdentical) {
  const std::string dir = TempDir("merge_self_in");
  const std::string out = TempDir("merge_self_out");

  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir).Save(*cluster_, *bank_, pipeline).ok());

  Result<BundleMergeReport> report = MergeBundles({dir, dir}, out);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->deployments.size(), 1u);
  EXPECT_EQ(report->deployments[0].kernel_conflicts, report->deployments[0].kernel_entries);

  // A load and a save reproduce every file of the bundle byte for byte:
  // estimators (64-bit forest seeds included), validation split, caches and
  // manifest.
  ExpectSameFiles(dir, out);
  EXPECT_TRUE(ArtifactStore(out).LoadDeployments().ok());
}

TEST_F(BundleMergeTest, MergesWithServerReSaveOfItself) {
  const std::string dir = TempDir("merge_resave_in");
  const std::string copy = TempDir("merge_resave_copy");
  const std::string out = TempDir("merge_resave_out");

  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir).Save(*cluster_, *bank_, pipeline).ok());
  // A server warm-started from the bundle saves it again: same estimators,
  // same cache entries, possibly in another order.
  {
    Result<std::unique_ptr<ServiceEngine>> server =
        ServiceEngine::FromArtifacts(*cluster_, ArtifactStore(dir), ServiceEngineOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE(ArtifactStore(copy).SaveRegistry((*server)->registry()).ok());
    (*server)->Shutdown();
  }

  Result<BundleMergeReport> report = MergeBundles({dir, copy}, out);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->deployments.size(), 1u);
  const BundleMergeReport::DeploymentReport& merged = report->deployments[0];
  EXPECT_EQ(merged.inputs, 2u);
  EXPECT_EQ(merged.kernel_conflicts, merged.kernel_entries);
  EXPECT_EQ(merged.collective_conflicts, merged.collective_entries);
  EXPECT_EQ(merged.sim_conflicts, merged.sim_entries);
  ExpectSameFiles(dir, out);
}

TEST_F(BundleMergeTest, FsyncFaultFailsWithoutPublishing) {
  const std::string dir = TempDir("merge_fsync_in");
  const std::string out = TempDir("merge_fsync_out");
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir).Save(*cluster_, *bank_, pipeline).ok());

  // The merged bundle is published like a save: a failed durability barrier
  // fails the merge and leaves no loadable bundle.
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("artifact.fsync=1", 3).ok());
  const Result<BundleMergeReport> report = MergeBundles({dir, dir}, out);
  faults.Disarm();
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(ArtifactStore(out).Exists());
}

TEST_F(BundleMergeTest, RefusesDifferentlyTrainedEstimatorsUnderOneName) {
  const std::string dir_a = TempDir("merge_mismatch_a");
  const std::string dir_c = TempDir("merge_mismatch_c");
  const std::string out = TempDir("merge_mismatch_out");

  MayaPipeline pipeline_a(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline_a, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir_a).Save(*cluster_, *bank_, pipeline_a).ok());

  // A second, smaller training run: same cluster, different estimators.
  ProfileSweepOptions tiny;
  tiny.gemm_samples = 400;
  tiny.conv_samples = 50;
  tiny.generic_samples = 30;
  tiny.collective_sizes = 8;
  EstimatorBank other = TrainEstimators(*cluster_, *executor_, tiny);
  MayaPipeline pipeline_c(*cluster_, other.kernel.get(), other.collective.get());
  Warm(pipeline_c, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir_c).Save(*cluster_, other, pipeline_c).ok());

  Result<BundleMergeReport> report = MergeBundles({dir_a, dir_c}, out);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status().ToString();
  // Failed merges never leave a loadable half-bundle behind.
  EXPECT_FALSE(ArtifactStore(out).Exists());
}

TEST_F(BundleMergeTest, ValidatesInputs) {
  const std::string dir = TempDir("merge_valid_in");
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  Warm(pipeline, Config(2, 2));
  ASSERT_TRUE(ArtifactStore(dir).Save(*cluster_, *bank_, pipeline).ok());

  // Fewer than two inputs is a usage error.
  EXPECT_FALSE(MergeBundles({dir}, TempDir("merge_valid_out")).ok());
  // The output directory must not be one of the inputs.
  EXPECT_FALSE(MergeBundles({dir, dir}, dir).ok());
  // Unreadable inputs fail before anything is written.
  const std::string out = TempDir("merge_valid_out2");
  EXPECT_FALSE(MergeBundles({dir, TempDir("merge_valid_absent")}, out).ok());
  EXPECT_FALSE(ArtifactStore(out).Exists());
}

}  // namespace
}  // namespace maya
