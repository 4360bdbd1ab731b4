// Figure 12: hyperscale data-parallel scaling of GPT-3 145.6B with TP8/PP8
// fixed (12K global batch, 64 microbatches), 1K to 12K GPUs. Virtual folded
// ranks emulate only the 8 analytically-unique workers; collectives are
// priced by the ASTRA-sim-like hierarchical network model. The expected
// shape is sublinear scaling — MFU decays as inter-node communication
// dominates.
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
  PrintBanner(std::cout, "Figure 12: MFU and iteration time when scaling DP (GPT-3 145.6B, "
                         "TP8 PP8, 12K batch, 64 microbatches)");
  TablePrinter table({"GPUs", "DP", "microbatch", "iteration", "MFU"});
  AstraLikeNetworkModel astra;
  NetworkModelCollectiveEstimator astra_estimator(&astra);

  for (int dp : {16, 32, 48, 64, 96, 192}) {
    const int gpus = dp * 64;
    const ClusterSpec cluster = H100Cluster(gpus);
    // Kernel estimators transfer across cluster sizes of the same arch; the
    // network model replaces the profiled collective tables (§7.4).
    EstimatorBank& bank = cache.BankFor(H100Cluster(64));
    MayaPipeline pipeline(cluster, bank.kernel.get(), &astra_estimator);

    TrainConfig config;
    config.global_batch_size = 12288;
    config.tensor_parallel = 8;
    config.pipeline_parallel = 8;
    config.microbatch_multiplier = 8;  // 64 microbatches
    config.sequence_parallel = true;
    config.activation_recomputation = true;
    config.distributed_optimizer = true;
    CHECK(config.Validate(model, cluster).ok()) << config.Summary();

    PredictionRequest request{model, config};
    // Virtual folded ranks: only the 8 analytically-unique workers exist at
    // any point (bit-identical to full emulation, which would run every
    // rank).
    request.virtual_folds = true;
    Result<PredictionReport> report = pipeline.Predict(request);
    CHECK(report.ok()) << report.status().ToString();
    CHECK(!report->oom) << report->oom_detail;
    table.AddRow({StrFormat("%d", gpus), StrFormat("%d", dp),
                  StrFormat("%lld", static_cast<long long>(config.microbatch_size(gpus))),
                  StrFormat("%.2f s", report->iteration_time_us / 1e6),
                  StrFormat("%.1f%%", report->mfu * 100.0)});
  }
  table.Print(std::cout);
  return 0;
}
