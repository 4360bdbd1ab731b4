// Maya-Search tests: config-space encoding, Table 10 pruning tactics,
// search algorithm sanity on synthetic objectives, and the end-to-end
// driver (caching, early stopping, trial status accounting).
#include <gtest/gtest.h>

#include "src/core/estimator_bank.h"
#include "src/search/config_space.h"
#include "src/search/pruning.h"
#include "src/search/search_driver.h"
#include "src/search/searchers.h"

namespace maya {
namespace {

// ---- ConfigSpace ---------------------------------------------------------------

TEST(ConfigSpaceTest, Table5SpaceHas1920Points) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  EXPECT_EQ(space.size(), 1920u);  // 4*4*5*3*2*2*2
}

TEST(ConfigSpaceTest, FlatIndexRoundTrip) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  for (size_t index : {0u, 1u, 7u, 100u, 1919u}) {
    EXPECT_EQ(space.FlatIndex(space.Coordinates(index)), index);
  }
}

TEST(ConfigSpaceTest, DecodesKnobsCorrectly) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(512);
  const TrainConfig first = space.At(0);
  EXPECT_EQ(first.tensor_parallel, 1);
  EXPECT_EQ(first.pipeline_parallel, 1);
  EXPECT_EQ(first.microbatch_multiplier, 1);
  EXPECT_EQ(first.virtual_pipeline_stages, 1);
  EXPECT_FALSE(first.activation_recomputation);
  EXPECT_EQ(first.global_batch_size, 512);
  const TrainConfig last = space.At(space.size() - 1);
  EXPECT_EQ(last.tensor_parallel, 8);
  EXPECT_EQ(last.pipeline_parallel, 8);
  EXPECT_EQ(last.microbatch_multiplier, 8);
  EXPECT_EQ(last.virtual_pipeline_stages, 4);
  EXPECT_TRUE(last.activation_recomputation);
  EXPECT_TRUE(last.sequence_parallel);
  EXPECT_TRUE(last.distributed_optimizer);
}

TEST(ConfigSpaceTest, EnumerateAllIsExhaustiveAndDistinct) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  const std::vector<TrainConfig> all = space.EnumerateAll();
  EXPECT_EQ(all.size(), space.size());
  std::set<std::string> keys;
  for (const TrainConfig& config : all) {
    keys.insert(config.CacheKey());
  }
  EXPECT_EQ(keys.size(), space.size());
}

// ---- Pruning tactics (Table 10) ---------------------------------------------------

TrainConfig Cfg(int tp, int pp, int mult, bool recomp, bool sp, bool dist_opt) {
  TrainConfig config;
  config.global_batch_size = 256;
  config.tensor_parallel = tp;
  config.pipeline_parallel = pp;
  config.microbatch_multiplier = mult;
  config.activation_recomputation = recomp;
  config.sequence_parallel = sp;
  config.distributed_optimizer = dist_opt;
  return config;
}

TEST(PruningTest, RecomputationOomDominates) {
  PruningOracle oracle;
  oracle.Observe(Cfg(2, 2, 1, /*recomp=*/true, false, false), /*oom=*/true, 0.0);
  const auto pruned = oracle.Lookup(Cfg(2, 2, 1, /*recomp=*/false, false, false));
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->oom);
  EXPECT_EQ(pruned->tactic, "recomputation-oom-dominates");
}

TEST(PruningTest, SequenceParallelOomDominates) {
  PruningOracle oracle;
  oracle.Observe(Cfg(4, 1, 1, false, /*sp=*/true, false), true, 0.0);
  const auto pruned = oracle.Lookup(Cfg(4, 1, 1, false, /*sp=*/false, false));
  ASSERT_TRUE(pruned.has_value());
  EXPECT_TRUE(pruned->oom);
}

TEST(PruningTest, DistributedOptimizerReusesRuntime) {
  PruningOracle oracle;
  oracle.Observe(Cfg(2, 2, 1, false, false, /*dist_opt=*/false), false, 1234.0);
  const auto pruned = oracle.Lookup(Cfg(2, 2, 1, false, false, /*dist_opt=*/true));
  ASSERT_TRUE(pruned.has_value());
  EXPECT_FALSE(pruned->oom);
  EXPECT_DOUBLE_EQ(pruned->iteration_us, 1234.0);
}

TEST(PruningTest, MicrobatchMonotoneWithoutPipeline) {
  PruningOracle oracle;
  oracle.Observe(Cfg(2, 1, 2, false, false, false), false, 999.0);
  const auto pruned = oracle.Lookup(Cfg(2, 1, 6, false, false, false));
  ASSERT_TRUE(pruned.has_value());
  EXPECT_DOUBLE_EQ(pruned->iteration_us, 999.0);
  // Does NOT apply with pipelining (microbatches shrink the bubble there).
  PruningOracle with_pp;
  with_pp.Observe(Cfg(2, 2, 2, false, false, false), false, 999.0);
  EXPECT_FALSE(with_pp.Lookup(Cfg(2, 2, 6, false, false, false)).has_value());
}

TEST(PruningTest, NoFalsePositives) {
  PruningOracle oracle;
  // A *fitting* recompute config says nothing about the non-recompute twin.
  oracle.Observe(Cfg(2, 2, 1, true, false, false), false, 500.0);
  EXPECT_FALSE(oracle.Lookup(Cfg(2, 2, 1, false, false, false)).has_value());
  // An OOMing non-recompute config says nothing about the recompute twin.
  oracle.Observe(Cfg(4, 2, 1, false, false, false), true, 0.0);
  EXPECT_FALSE(oracle.Lookup(Cfg(4, 2, 1, true, false, false)).has_value());
}

// ---- Search algorithms on a synthetic objective --------------------------------------

// Smooth unimodal objective over the flat space, maximized at a known point.
double SyntheticObjective(const ConfigSpace& space, size_t index) {
  const std::vector<size_t> coords = space.Coordinates(index);
  double score = 1.0;
  for (size_t d = 0; d < coords.size(); ++d) {
    const double target = 0.6 * static_cast<double>(space.DimensionSize(d) - 1);
    const double distance =
        std::abs(static_cast<double>(coords[d]) - target) /
        static_cast<double>(space.DimensionSize(d));
    score -= 0.1 * distance;
  }
  return score;
}

class SearcherSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SearcherSweep, ImprovesOverInitialSamples) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  auto algorithm = *MakeSearchAlgorithm(GetParam(), space, 7);
  EXPECT_EQ(algorithm->name(), GetParam());
  double best_early = 0.0;
  double best_late = 0.0;
  for (int i = 0; i < 400; ++i) {
    const std::optional<size_t> index = algorithm->Ask();
    if (!index.has_value()) {
      break;  // grid exhausted budget semantics differ
    }
    const double objective = SyntheticObjective(space, *index);
    algorithm->Tell(*index, objective);
    if (i < 20) {
      best_early = std::max(best_early, objective);
    }
    best_late = std::max(best_late, objective);
  }
  EXPECT_GE(best_late, best_early);
  EXPECT_GT(best_late, 0.85);  // all algorithms find a near-optimal point
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SearcherSweep,
                         ::testing::Values("cma", "pso", "two-points-de", "one-plus-one",
                                           "random", "grid"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SearcherTest, GridEnumeratesWholeSpaceThenStops) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  auto grid = *MakeSearchAlgorithm("grid", space, 1);
  std::set<size_t> seen;
  while (true) {
    const std::optional<size_t> index = grid->Ask();
    if (!index.has_value()) {
      break;
    }
    seen.insert(*index);
    grid->Tell(*index, 0.0);
  }
  EXPECT_EQ(seen.size(), space.size());
}

TEST(SearcherTest, CmaConvergesTighterThanRandom) {
  const ConfigSpace space = ConfigSpace::MegatronTable5(256);
  auto run = [&](const char* name) {
    auto algorithm = *MakeSearchAlgorithm(name, space, 3);
    double best = 0.0;
    for (int i = 0; i < 300; ++i) {
      const size_t index = *algorithm->Ask();
      const double objective = SyntheticObjective(space, index);
      algorithm->Tell(index, objective);
      best = std::max(best, objective);
    }
    return best;
  };
  EXPECT_GE(run("cma") + 0.02, run("random"));  // CMA at least competitive
}

// ---- End-to-end driver --------------------------------------------------------------

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

class SearchDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 123);
    ProfileSweepOptions sweep;
    sweep.gemm_samples = 1200;
    sweep.conv_samples = 100;
    sweep.generic_samples = 60;
    sweep.collective_sizes = 12;
    bank_ = new EstimatorBank(TrainEstimators(*cluster_, *executor_, sweep));
    pipeline_ = new MayaPipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete bank_;
    delete executor_;
    delete cluster_;
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
  static MayaPipeline* pipeline_;
};

ClusterSpec* SearchDriverTest::cluster_ = nullptr;
GroundTruthExecutor* SearchDriverTest::executor_ = nullptr;
EstimatorBank* SearchDriverTest::bank_ = nullptr;
MayaPipeline* SearchDriverTest::pipeline_ = nullptr;

TEST_F(SearchDriverTest, FindsValidConfigAndTracksStatus) {
  // A reduced space keeps the test fast while exercising every path.
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {false, true}, {false, true},
                          {false, true}, 32);
  SearchOptions options;
  options.algorithm = "random";
  options.sample_budget = 80;
  options.seed = 5;
  options.early_stop_patience = 0;
  const SearchOutcome outcome = *RunSearch(*pipeline_, TinyGpt(), space, options);
  EXPECT_TRUE(outcome.found);
  EXPECT_GT(outcome.best_mfu, 0.0);
  EXPECT_GT(outcome.executed, 0);
  EXPECT_GT(outcome.cached, 0);  // random revisits points
  EXPECT_EQ(outcome.samples, 80);
  EXPECT_TRUE(outcome.best_config.Validate(TinyGpt(), *cluster_).ok());
  // Per-trial stage counters aggregate across executed trials (the shared
  // trial-execution helper feeds both the serial and ParallelFor paths).
  EXPECT_GT(outcome.estimation_totals.kernel_ops, 0u);
  EXPECT_GT(outcome.simulation_totals.workers, 0u);
  EXPECT_GT(outcome.simulation_totals.components, 0u);
  EXPECT_GT(outcome.stage_totals.simulation_ms, 0.0);
}

TEST_F(SearchDriverTest, SimCacheSharedAcrossSearches) {
  // Stage-4 analogue of TraceCacheReusedAcrossSearches: a repeated search on
  // one pipeline serves repeated annotated jobs from the sim cache,
  // bit-identically.
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get());
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {false, true}, {false}, {false}, 32);
  SearchOptions search;
  search.algorithm = "grid";
  search.sample_budget = static_cast<int>(space.size());
  search.early_stop_patience = 0;

  const SearchOutcome first = *RunSearch(pipeline, TinyGpt(), space, search);
  EXPECT_GT(pipeline.SimCacheStats().insertions, 0u);

  const SearchOutcome second = *RunSearch(pipeline, TinyGpt(), space, search);
  EXPECT_GT(second.simulation_totals.cache_hits, 0u);
  EXPECT_EQ(second.simulation_totals.cache_misses, 0u);
  EXPECT_EQ(second.best_mfu, first.best_mfu);
  EXPECT_EQ(second.best_iteration_us, first.best_iteration_us);
}

TEST_F(SearchDriverTest, PruningSkipsDominatedConfigs) {
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {false, true}, {false, true},
                          {false, true}, 32);
  SearchOptions with;
  with.algorithm = "grid";
  with.sample_budget = static_cast<int>(space.size());
  with.early_stop_patience = 0;
  const SearchOutcome pruned = *RunSearch(*pipeline_, TinyGpt(), space, with);
  SearchOptions without = with;
  without.enable_pruning = false;
  const SearchOutcome full = *RunSearch(*pipeline_, TinyGpt(), space, without);
  EXPECT_GT(pruned.skipped, 0);
  EXPECT_EQ(full.skipped, 0);
  EXPECT_GT(full.executed, pruned.executed);
  // Fidelity preservation: the pruned search lands within a few percent of
  // the exhaustive optimum. (Tactic 3 copies the non-sharded twin's runtime
  // onto distributed-optimizer configs — a slightly pessimistic stand-in,
  // since sharded re-materialization moves bf16 rather than fp32 bytes — so
  // exact equality is not guaranteed, only near-optimality.)
  EXPECT_GT(pruned.best_mfu, 0.90 * full.best_mfu);
}

TEST_F(SearchDriverTest, EarlyStoppingCutsSamples) {
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {false, true}, {false, true},
                          {false, true}, 32);
  SearchOptions options;
  options.algorithm = "random";
  options.sample_budget = 500;
  options.early_stop_patience = 10;
  options.seed = 5;
  const SearchOutcome outcome = *RunSearch(*pipeline_, TinyGpt(), space, options);
  EXPECT_LT(outcome.samples, 500);
  EXPECT_TRUE(outcome.found);
}

TEST_F(SearchDriverTest, TraceCacheReusedAcrossSearches) {
  // ROADMAP follow-up: collated traces memoized across RunSearch trials.
  // Two identical searches on one pipeline: the second serves every repeated
  // (config, model) key's emulation + collation from the trace cache and
  // lands on bit-identical results.
  MayaPipelineOptions options;
  options.enable_trace_cache = true;
  MayaPipeline pipeline(*cluster_, bank_->kernel.get(), bank_->collective.get(), options);
  const ConfigSpace space({1, 2}, {1, 2}, {1, 2}, {1}, {false, true}, {false}, {false}, 32);
  SearchOptions search;
  search.algorithm = "grid";
  search.sample_budget = static_cast<int>(space.size());
  search.early_stop_patience = 0;

  const SearchOutcome first = *RunSearch(pipeline, TinyGpt(), space, search);
  const ShardedCacheStats after_first = pipeline.TraceCacheStats();
  EXPECT_GT(after_first.insertions, 0u);

  const SearchOutcome second = *RunSearch(pipeline, TinyGpt(), space, search);
  const ShardedCacheStats after_second = pipeline.TraceCacheStats();
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_TRUE(second.found);
  EXPECT_EQ(second.best_mfu, first.best_mfu);
  EXPECT_EQ(second.best_iteration_us, first.best_iteration_us);
  EXPECT_EQ(second.executed, first.executed);
}

TEST_F(SearchDriverTest, ProgressIsMonotoneInBestMfu) {
  const ConfigSpace space({1, 2}, {1, 2}, {1}, {1}, {false, true}, {false}, {false}, 32);
  SearchOptions options;
  options.algorithm = "grid";
  options.sample_budget = static_cast<int>(space.size());
  options.early_stop_patience = 0;
  const SearchOutcome outcome = *RunSearch(*pipeline_, TinyGpt(), space, options);
  double previous = 0.0;
  for (const auto& [unique, best] : outcome.progress) {
    EXPECT_GE(best, previous);
    previous = best;
  }
  EXPECT_EQ(outcome.invalid + outcome.executed + outcome.cached + outcome.skipped,
            outcome.samples);
}

}  // namespace
}  // namespace maya
