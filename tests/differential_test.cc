// Differential test over the paper's config space: for GPT-3 2.7B on 8 and
// 16 V100s, every valid Megatron Table-5 configuration is predicted twice on
// one pipeline, once with the default request (virtual folds, §7.4) and once
// with full emulation, the reference path that runs every rank. The two
// answers must agree exactly: OOM verdict and detail, hex iteration time and
// MFU, peak memory, every per-worker sim row, the collation and estimation
// counters, and the wire answer byte for byte once stage timings are zeroed.
// Both caches that could serve one arm from the other (estimates, sim
// replays) are off, so each arm runs all four stages.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/models/model_zoo.h"
#include "src/search/config_space.h"
#include "src/service/protocol.h"

namespace maya {
namespace {

// The wire answer a ServiceEngine writes for `report`, stage timings zeroed.
std::string WireAnswer(const PredictionReport& report) {
  PredictResult result;
  result.oom = report.oom;
  result.oom_detail = report.oom_detail;
  if (!report.oom) {
    result.iteration_time_us = report.iteration_time_us;
    result.mfu = report.mfu;
    result.peak_memory_bytes = report.sim.peak_memory_bytes;
  }
  result.estimation = report.estimation;
  result.simulation = report.simulation;
  result.trace_cache_hit = report.trace_cache_hit;
  ServiceResponse response;
  response.id = 1;
  response.kind = ServiceRequestKind::kPredict;
  response.ok = true;
  AssignPredictResult(response, result);
  return SerializeServiceResponse(response);
}

// Every way the default answer for `config` differs from the reference;
// empty when they agree. `feasible` reports whether the config fits.
std::vector<std::string> Differences(const MayaPipeline& pipeline, const ModelConfig& model,
                                     const TrainConfig& config, bool& feasible) {
  std::vector<std::string> out;
  const PredictionRequest folded{model, config};
  PredictionRequest full{model, config};
  full.virtual_folds = false;
  const Result<PredictionReport> a = pipeline.Predict(folded);
  const Result<PredictionReport> b = pipeline.Predict(full);
  if (!a.ok() || !b.ok()) {
    out.push_back("predict failed: " + a.status().ToString() + " / " + b.status().ToString());
    return out;
  }
  feasible = !b->oom;
  const auto differ = [&out](bool mismatch, const std::string& what) {
    if (mismatch) {
      out.push_back(what);
    }
  };
  differ(a->oom != b->oom || a->oom_detail != b->oom_detail,
         "OOM verdict: '" + a->oom_detail + "' vs '" + b->oom_detail + "'");
  differ(std::bit_cast<uint64_t>(a->iteration_time_us) !=
             std::bit_cast<uint64_t>(b->iteration_time_us),
         StrFormat("iteration_time_us %a vs %a", a->iteration_time_us, b->iteration_time_us));
  differ(std::bit_cast<uint64_t>(a->mfu) != std::bit_cast<uint64_t>(b->mfu),
         StrFormat("mfu %a vs %a", a->mfu, b->mfu));
  differ(a->sim.peak_memory_bytes != b->sim.peak_memory_bytes, "sim.peak_memory_bytes");
  differ(a->sim.workers != b->sim.workers,
         StrFormat("sim.workers (%zu vs %zu rows)", a->sim.workers.size(),
                   b->sim.workers.size()));
  differ(a->collation.unique_workers != b->collation.unique_workers,
         StrFormat("collation.unique_workers %d vs %d", a->collation.unique_workers,
                   b->collation.unique_workers));
  const EstimationStats& ea = a->estimation;
  const EstimationStats& eb = b->estimation;
  differ(ea.kernel_ops != eb.kernel_ops || ea.unique_kernels != eb.unique_kernels ||
             ea.collective_ops != eb.collective_ops ||
             ea.unique_collectives != eb.unique_collectives ||
             ea.cache_hits != eb.cache_hits || ea.cache_misses != eb.cache_misses,
         "estimation counters");
  differ(WireAnswer(*a) != WireAnswer(*b),
         "wire answer:\n  " + WireAnswer(*a) + "\n  " + WireAnswer(*b));
  if (feasible) {
    differ(b->full_workers_emulated != pipeline.cluster().total_gpus(),
           StrFormat("reference arm emulated %d ranks", b->full_workers_emulated));
    differ(a->full_workers_emulated != config.pipeline_parallel,
           StrFormat("default arm emulated %d ranks, not one per pipeline stage (%d)",
                     a->full_workers_emulated, config.pipeline_parallel));
  }
  return out;
}

struct SetupCase {
  int gpus;
  size_t valid_configs;
  size_t feasible_configs;
};

void PrintTo(const SetupCase& setup, std::ostream* os) { *os << setup.gpus << "xV100"; }

class DifferentialTest : public ::testing::TestWithParam<SetupCase> {};

TEST_P(DifferentialTest, VirtualFoldsMatchFullEmulationOnEveryTable5Config) {
  const SetupCase setup = GetParam();
  const ClusterSpec cluster = V100Cluster(setup.gpus);
  const ModelConfig model = Gpt3_2_7B();
  const GroundTruthExecutor executor(cluster, 7);
  const Result<ProfileSweepOptions> sweep = ProfileSweepPreset("tiny");
  ASSERT_TRUE(sweep.ok());
  const EstimatorBank bank = TrainEstimators(cluster, executor, *sweep);
  MayaPipelineOptions options;
  options.enable_estimate_cache = false;
  options.enable_sim_cache = false;
  const MayaPipeline pipeline(cluster, bank.kernel.get(), bank.collective.get(), options);

  std::vector<TrainConfig> configs;
  for (const TrainConfig& config :
       ConfigSpace::MegatronTable5(DefaultGlobalBatch(model)).EnumerateAll()) {
    if (config.Validate(model, cluster).ok()) {
      configs.push_back(config);
    }
  }
  // Predict is thread-safe: configs fan out over a small pool, and each
  // config's verdict is checked here, on the test thread.
  std::vector<std::vector<std::string>> differences(configs.size());
  std::vector<char> feasible(configs.size(), 0);
  ThreadPool pool(4);
  pool.ParallelFor(configs.size(), [&](size_t i) {
    bool fits = false;
    differences[i] = Differences(pipeline, model, configs[i], fits);
    feasible[i] = fits;
  });

  size_t feasible_count = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    feasible_count += feasible[i];
    for (const std::string& difference : differences[i]) {
      ADD_FAILURE() << configs[i].Summary() << ": " << difference;
    }
  }
  EXPECT_EQ(configs.size(), setup.valid_configs);
  EXPECT_EQ(feasible_count, setup.feasible_configs);
}

INSTANTIATE_TEST_SUITE_P(Gpt3_2_7B, DifferentialTest,
                         ::testing::Values(SetupCase{8, 544, 227}, SetupCase{16, 832, 402}),
                         [](const ::testing::TestParamInfo<SetupCase>& info) {
                           return StrFormat("V100x%d", info.param.gpus);
                         });

}  // namespace
}  // namespace maya
