// Hyperscale what-if study (§7.4): how does GPT-3 145.6B training scale from
// 512 to 4096 GPUs? Uses virtual folds (only the analytically-unique
// pipeline-stage workers are emulated) and the ASTRA-sim-like hierarchical
// network model instead of profiled collectives.
#include <cstdio>

#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/estimator/collective_estimator.h"
#include "src/models/model_zoo.h"

int main() {
  using namespace maya;

  const ModelConfig model = Gpt3_145_6B();
  std::printf("scaling study for %s\n\n", model.Summary().c_str());

  // Kernel estimators transfer across cluster sizes of one architecture.
  GroundTruthExecutor profiling_hardware(H100Cluster(64), 2026);
  const EstimatorBank bank = TrainEstimators(H100Cluster(64), profiling_hardware);
  AstraLikeNetworkModel astra;
  NetworkModelCollectiveEstimator collectives(&astra);

  std::printf("%8s %6s %12s %8s %14s\n", "GPUs", "DP", "iteration", "MFU",
              "Maya stack ms");
  for (int dp : {8, 16, 32, 64}) {
    const int gpus = dp * 64;  // TP8 x PP8 per replica
    const ClusterSpec cluster = H100Cluster(gpus);
    MayaPipeline maya(cluster, bank.kernel.get(), &collectives);

    PredictionRequest request;
    request.model = model;
    request.config.global_batch_size = static_cast<int64_t>(dp) * 192;
    request.config.tensor_parallel = 8;
    request.config.pipeline_parallel = 8;
    request.config.microbatch_multiplier = 8;
    request.config.sequence_parallel = true;
    request.config.activation_recomputation = true;
    request.config.distributed_optimizer = true;

    const Result<PredictionReport> report = maya.Predict(request);
    if (!report.ok() || report->oom) {
      std::printf("%8d %6d  (did not fit)\n", gpus, dp);
      continue;
    }
    std::printf("%8d %6d %10.2f s %7.1f%% %12.0f\n", gpus, dp,
                report->iteration_time_us / 1e6, report->mfu * 100.0,
                report->timings.total_ms());
  }
  std::printf("\nMFU decays sublinearly as inter-node gradient traffic grows — the\n"
              "paper's Fig. 12 trend — while Maya itself runs on a laptop-class CPU.\n");
  return 0;
}
