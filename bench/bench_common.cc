#include "bench/bench_common.h"
#include "src/common/strings.h"

#include <algorithm>

#include "src/baselines/amped_like.h"
#include "src/baselines/calculon_like.h"
#include "src/baselines/proteus_like.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/trace/collator.h"

namespace maya {
namespace bench {

Setup Gpt2_7B_8xV100() { return {"GPT3 2.7B - 8xV100", Gpt3_2_7B(), V100Cluster(8)}; }
Setup Gpt2_7B_16xV100() { return {"GPT3 2.7B - 16xV100", Gpt3_2_7B(), V100Cluster(16)}; }
Setup Gpt18_4B_32xH100() { return {"GPT3 18.4B - 32xH100", Gpt3_18_4B(), H100Cluster(32)}; }
Setup Gpt18_4B_64xH100() { return {"GPT3 18.4B - 64xH100", Gpt3_18_4B(), H100Cluster(64)}; }

EstimatorCache::Entry& EstimatorCache::EntryFor(const ClusterSpec& cluster) {
  const std::string key =
      StrFormat("%s-%d", GpuArchName(cluster.gpu.arch), cluster.total_gpus());
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    // Profiling-mode hardware for estimator training: a fixed per-arch seed,
    // independent of any evaluated configuration.
    entry->profiling_executor = std::make_unique<GroundTruthExecutor>(cluster, 0x9f0f);
    entry->bank = TrainEstimators(cluster, *entry->profiling_executor);
    entry->pipeline = std::make_unique<MayaPipeline>(cluster, entry->bank.kernel.get(),
                                                     entry->bank.collective.get());
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return *it->second;
}

MayaPipeline& EstimatorCache::PipelineFor(const ClusterSpec& cluster) {
  return *EntryFor(cluster).pipeline;
}

EstimatorBank& EstimatorCache::BankFor(const ClusterSpec& cluster) {
  return EntryFor(cluster).bank;
}

GroundTruthExecutor MakeDeploymentExecutor(const Setup& setup, const TrainConfig& config) {
  // Per-deployment noise seed: each configuration's run sees its own
  // measurement noise, like separate real-cluster runs would.
  return GroundTruthExecutor(setup.cluster, FnvHash(config.CacheKey()));
}

ActualOutcome DeployOnGroundTruth(const Setup& setup, const TrainConfig& config) {
  ActualOutcome outcome;
  GroundTruthExecutor executor = MakeDeploymentExecutor(setup, config);

  // Full emulation: the ground truth runs every rank, as a real deployment
  // would.
  Result<LaunchResult> launched = EmulateJob(setup.model, config, setup.cluster);
  CHECK(launched.ok()) << launched.status().ToString();
  if (launched->oom) {
    outcome.oom = true;
    return outcome;
  }
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  CHECK(job.ok()) << job.status().ToString();
  Result<SimReport> report = executor.Execute(*job);
  CHECK(report.ok()) << report.status().ToString();
  outcome.iteration_us = report->total_time_us;
  outcome.mfu =
      ComputeMfu(setup.model, config.global_batch_size, setup.cluster, outcome.iteration_us);
  outcome.peak_memory = report->peak_memory_bytes;
  return outcome;
}

PredictionStudy RunPredictionStudy(const Setup& setup, EstimatorCache& cache,
                                   int max_evaluations, int top_n) {
  PredictionStudy study;
  study.setup = setup;
  const ConfigSpace space = ConfigSpace::MegatronTable5(DefaultGlobalBatch(setup.model));

  std::vector<TrainConfig> valid;
  for (const TrainConfig& config : space.EnumerateAll()) {
    if (config.Validate(setup.model, setup.cluster).ok()) {
      valid.push_back(config);
    }
  }
  study.valid_configs = static_cast<int>(valid.size());

  // Deterministic stride-subsample to bound bench runtime.
  std::vector<TrainConfig> evaluate;
  const size_t stride =
      std::max<size_t>(1, valid.size() / static_cast<size_t>(max_evaluations));
  for (size_t i = 0; i < valid.size(); i += stride) {
    evaluate.push_back(valid[i]);
  }

  struct Deployed {
    TrainConfig config;
    double actual_us;
  };
  std::vector<Deployed> deployed;
  for (const TrainConfig& config : evaluate) {
    const ActualOutcome outcome = DeployOnGroundTruth(setup, config);
    ++study.evaluated_configs;
    if (outcome.oom) {
      ++study.oom_configs;
      continue;
    }
    deployed.push_back({config, outcome.iteration_us});
  }
  std::sort(deployed.begin(), deployed.end(),
            [](const Deployed& a, const Deployed& b) { return a.actual_us < b.actual_us; });
  if (static_cast<int>(deployed.size()) > top_n) {
    deployed.resize(static_cast<size_t>(top_n));
  }

  MayaPipeline& pipeline = cache.PipelineFor(setup.cluster);
  ProteusLike proteus;
  CalculonLike calculon;
  AmpedLike amped;
  for (const Deployed& entry : deployed) {
    StudyRow row;
    row.config = entry.config;
    row.actual_us = entry.actual_us;
    PredictionRequest request;
    request.model = setup.model;
    request.config = entry.config;
    Result<PredictionReport> prediction = pipeline.Predict(request);
    CHECK(prediction.ok()) << prediction.status().ToString();
    CHECK(!prediction->oom) << "Maya predicted OOM for a config that ran: "
                            << entry.config.Summary() << " — " << prediction->oom_detail;
    row.maya_us = prediction->iteration_time_us;
    auto baseline_predict = [&](const PerformanceModel& model) {
      if (!model.SupportsConfig(entry.config) ||
          !model.SupportsArch(setup.cluster.gpu.arch)) {
        return 0.0;
      }
      Result<BaselinePrediction> result =
          model.Predict(setup.model, entry.config, setup.cluster);
      return result.ok() ? result->iteration_us : 0.0;
    };
    row.proteus_us = baseline_predict(proteus);
    row.calculon_us = baseline_predict(calculon);
    row.amped_us = baseline_predict(amped);
    study.rows.push_back(row);
  }
  return study;
}

std::vector<double> PercentErrors(const PredictionStudy& study, const char* system) {
  std::vector<double> errors;
  for (const StudyRow& row : study.rows) {
    double predicted = 0.0;
    const std::string name = system;
    if (name == "maya") {
      predicted = row.maya_us;
    } else if (name == "proteus") {
      predicted = row.proteus_us;
    } else if (name == "calculon") {
      predicted = row.calculon_us;
    } else if (name == "amped") {
      predicted = row.amped_us;
    }
    if (predicted > 0.0) {
      errors.push_back(std::abs(predicted - row.actual_us) / row.actual_us * 100.0);
    }
  }
  return errors;
}

}  // namespace bench
}  // namespace maya
