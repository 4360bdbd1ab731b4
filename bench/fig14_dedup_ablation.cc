// Figure 14: impact of worker deduplication on Maya's own runtime. "Maya"
// launches only the unique workers and simulates folded representatives;
// "Maya w/o dedup" emulates, estimates and simulates every GPU. The paper
// measures 74-94% runtime reductions that grow with the data-parallel degree.
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"

int main() {
  using namespace maya;
  using namespace maya::bench;

  EstimatorCache cache;
  PrintBanner(std::cout, "Figure 14: worker deduplication ablation (Maya stack runtime)");
  TablePrinter table({"setup", "config", "w/o dedup", "with dedup", "reduction",
                      "emu/col/est/sim reduction"});
  struct Case {
    Setup setup;
    TrainConfig config;
  };
  std::vector<Case> cases;
  {
    TrainConfig config;  // fixed parallelism; DP grows with the cluster
    config.global_batch_size = 256;
    config.tensor_parallel = 2;
    config.pipeline_parallel = 2;
    config.microbatch_multiplier = 2;
    config.activation_recomputation = true;
    cases.push_back({Gpt2_7B_8xV100(), config});
    cases.push_back({Gpt2_7B_16xV100(), config});
    Setup v32{"GPT3 2.7B - 32xV100", Gpt3_2_7B(), V100Cluster(32)};
    cases.push_back({v32, config});
  }
  {
    TrainConfig config;
    config.global_batch_size = 512;
    config.tensor_parallel = 4;
    config.pipeline_parallel = 2;
    config.microbatch_multiplier = 8;
    config.sequence_parallel = true;
    config.activation_recomputation = true;
    cases.push_back({Gpt18_4B_32xH100(), config});
    cases.push_back({Gpt18_4B_64xH100(), config});
  }

  for (const Case& test_case : cases) {
    // Isolate the worker-dedup lever: a warm cross-trial estimate cache would
    // make whichever arm runs second near-free in the estimation stage, so
    // both arms run on a cache-free pipeline built from the shared bank.
    EstimatorBank& bank = cache.BankFor(test_case.setup.cluster);
    MayaPipelineOptions options;
    options.enable_estimate_cache = false;
    // Same hygiene for stage 4: the with-dedup arm must not serve its replay
    // from a cache warmed by the without-dedup arm.
    options.enable_sim_cache = false;
    MayaPipeline pipeline(test_case.setup.cluster, bank.kernel.get(), bank.collective.get(),
                          options);
    CHECK(test_case.config.Validate(test_case.setup.model, test_case.setup.cluster).ok());

    PredictionRequest without{test_case.setup.model, test_case.config};
    without.deduplicate_workers = false;  // every GPU emulated and simulated
    PredictionRequest with{test_case.setup.model, test_case.config};
    with.virtual_folds = true;  // unique workers only

    Result<PredictionReport> slow = pipeline.Predict(without);
    Result<PredictionReport> fast = pipeline.Predict(with);
    CHECK(slow.ok() && fast.ok());
    CHECK(!slow->oom) << slow->oom_detail;
    const double slow_ms = slow->timings.total_ms();
    const double fast_ms = fast->timings.total_ms();
    // Per-stage reductions (emulator / collator / estimator / simulator):
    // shows where the dedup lever lands, not just the total.
    auto stage_reduction = [](double without_ms, double with_ms) {
      return without_ms > 0.0 ? (1.0 - with_ms / without_ms) * 100.0 : 0.0;
    };
    table.AddRow({test_case.setup.label, test_case.config.Summary(),
                  StrFormat("%.0f ms", slow_ms), StrFormat("%.0f ms", fast_ms),
                  StrFormat("-%.0f%%", (1.0 - fast_ms / slow_ms) * 100.0),
                  StrFormat("-%.0f/-%.0f/-%.0f/-%.0f%%",
                            stage_reduction(slow->timings.emulation_ms,
                                            fast->timings.emulation_ms),
                            stage_reduction(slow->timings.collation_ms,
                                            fast->timings.collation_ms),
                            stage_reduction(slow->timings.estimation_ms,
                                            fast->timings.estimation_ms),
                            stage_reduction(slow->timings.simulation_ms,
                                            fast->timings.simulation_ms))});
  }
  table.Print(std::cout);
  return 0;
}
