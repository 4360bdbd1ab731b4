// Figure 13: wall-clock runtime of each Maya stage (emulator, collator,
// runtime predictor, simulator) when weak-scaling GPT-3 145.6B to 16K GPUs
// with virtual folds (8 unique workers regardless of cluster size).
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"
#include "src/estimator/collective_estimator.h"

int main() {
  using namespace maya;
  using namespace maya::bench;

  const ModelConfig model = Gpt3_145_6B();
  EstimatorCache cache;
  EstimatorBank& bank = cache.BankFor(H100Cluster(64));
  AstraLikeNetworkModel astra;
  NetworkModelCollectiveEstimator astra_estimator(&astra);

  PrintBanner(std::cout,
              "Figure 13: Maya stack runtime scaling to 16K GPUs (TP8 PP8, weak scaling)");
  // "warm hit" is the estimate-cache hit rate of a repeated prediction on the
  // same pipeline — the service's repeated-what-if case (first predictions on
  // a cold pipeline are 100% misses by construction).
  TablePrinter table({"GPUs", "batch", "emulator", "collator", "predictor", "simulator",
                      "total", "warm hit", "warm predictor"});
  for (int gpus : {1024, 2048, 4096, 8192, 16384}) {
    const int dp = gpus / 64;
    const ClusterSpec cluster = H100Cluster(gpus);
    MayaPipeline pipeline(cluster, bank.kernel.get(), &astra_estimator);
    TrainConfig config;
    config.global_batch_size = static_cast<int64_t>(dp) * 64;  // microbatch size 1
    config.tensor_parallel = 8;
    config.pipeline_parallel = 8;
    config.microbatch_multiplier = 8;
    config.sequence_parallel = true;
    config.activation_recomputation = true;
    config.distributed_optimizer = true;
    CHECK(config.Validate(model, cluster).ok());

    PredictionRequest request{model, config};
    Result<PredictionReport> report = pipeline.Predict(request);
    CHECK(report.ok()) << report.status().ToString();
    CHECK(!report->oom) << report->oom_detail;
    Result<PredictionReport> warm = pipeline.Predict(request);
    CHECK(warm.ok());
    const StageTimings& timings = report->timings;
    table.AddRow({StrFormat("%d", gpus),
                  StrFormat("%lld", static_cast<long long>(config.global_batch_size)),
                  StrFormat("%.0f ms", timings.emulation_ms),
                  StrFormat("%.0f ms", timings.collation_ms),
                  StrFormat("%.0f ms", timings.estimation_ms),
                  StrFormat("%.0f ms", timings.simulation_ms),
                  StrFormat("%.0f ms", timings.total_ms()),
                  StrFormat("%.1f%%", warm->estimation.hit_rate() * 100.0),
                  StrFormat("%.0f ms", warm->timings.estimation_ms)});
  }
  table.Print(std::cout);
  return 0;
}
