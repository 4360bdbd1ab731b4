// Table 6: per-stage and total configuration-search runtime on the 32xH100
// GPT-3 18.4B spec, with and without Maya's optimizations (CMA-ES + worker
// dedup + pruning + caching vs grid search over every GPU, no dedup). The
// unoptimized total is extrapolated from a measured sample — the paper
// reports it exceeds 24 hours on their hardware.
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"
#include "src/search/search_driver.h"

int main() {
  using namespace maya;
  using namespace maya::bench;

  const Setup setup = Gpt18_4B_32xH100();
  EstimatorCache cache;
  MayaPipeline& pipeline = cache.PipelineFor(setup.cluster);
  const ConfigSpace space = ConfigSpace::MegatronTable5(DefaultGlobalBatch(setup.model));

  // ---- Optimized: CMA + dedup + pruning + cache + early stop ------------------
  SearchOptions optimized;
  optimized.algorithm = "cma";
  optimized.sample_budget = 2000;
  optimized.early_stop_patience = 20;
  optimized.seed = 31;
  const SearchOutcome maya = *RunSearch(pipeline, setup.model, space, optimized);

  // ---- Unoptimized sample: grid order, no dedup, no pruning -------------------
  // The estimate cache is one of Maya's optimizations (and was warmed by the
  // optimized search above), so the unoptimized arm runs on a cache-free
  // pipeline built from the same estimator bank.
  EstimatorBank& bank = cache.BankFor(setup.cluster);
  MayaPipelineOptions unopt_options;
  unopt_options.enable_estimate_cache = false;
  // The cross-trial sim cache is a Maya optimization too; the unoptimized arm
  // replays every worker (deduplicate_workers=false below) on every trial.
  unopt_options.enable_sim_cache = false;
  MayaPipeline unopt_pipeline(setup.cluster, bank.kernel.get(), bank.collective.get(),
                              unopt_options);
  int valid_count = 0;
  for (const TrainConfig& config : space.EnumerateAll()) {
    if (config.Validate(setup.model, setup.cluster).ok()) {
      ++valid_count;
    }
  }
  // Deterministically strided sample of the valid configs so fast-OOM and
  // full trials appear in representative proportion — the grid-order prefix
  // is all fast-OOM configs, which would zero out the per-trial costs, while
  // excluding OOM entirely would overstate them (the Maya arm's per-trial
  // average includes its OOM trials too).
  constexpr int kSample = 10;
  const int stride = std::max(1, (valid_count + kSample - 1) / kSample);
  StageTimings unopt_sample;
  int sampled = 0;
  int valid_seen = 0;
  for (const TrainConfig& config : space.EnumerateAll()) {
    if (sampled >= kSample) {
      break;
    }
    if (!config.Validate(setup.model, setup.cluster).ok()) {
      continue;
    }
    if (valid_seen++ % stride != 0) {
      continue;
    }
    PredictionRequest request{setup.model, config};
    request.deduplicate_workers = false;
    Result<PredictionReport> report = unopt_pipeline.Predict(request);
    CHECK(report.ok());
    unopt_sample.emulation_ms += report->timings.emulation_ms;
    unopt_sample.collation_ms += report->timings.collation_ms;
    unopt_sample.estimation_ms += report->timings.estimation_ms;
    unopt_sample.simulation_ms += report->timings.simulation_ms;
    ++sampled;
  }

  PrintBanner(std::cout, "Table 6: search runtime with and without optimizations "
                         "(GPT-3 18.4B, 32xH100 spec)");
  TablePrinter table({"stage", "Maya (per trial)", "No optimization (per trial)"});
  const double executed = std::max(1, maya.executed);
  const double unopt_trials = std::max(1, sampled);  // enumeration may exhaust early
  auto row = [&](const char* stage, double maya_total, double unopt_total) {
    table.AddRow({stage, StrFormat("%.0f ms", maya_total / executed),
                  StrFormat("%.0f ms", unopt_total / unopt_trials)});
  };
  row("Emulation", maya.stage_totals.emulation_ms, unopt_sample.emulation_ms);
  row("Trace collation", maya.stage_totals.collation_ms, unopt_sample.collation_ms);
  row("Runtime prediction", maya.stage_totals.estimation_ms, unopt_sample.estimation_ms);
  row("Simulation", maya.stage_totals.simulation_ms, unopt_sample.simulation_ms);
  table.Print(std::cout);

  const double unopt_total_min =
      unopt_sample.total_ms() / unopt_trials * valid_count / 60e3;
  std::cout << StrFormat(
      "Total search time: Maya %.1f min (%d executed, %d skipped, %d cached of %d valid)\n"
      "                   no-optimization grid (extrapolated over %d valid configs): "
      ">%.0f min\n",
      maya.wall_ms / 60e3, maya.executed, maya.skipped, maya.cached, valid_count, valid_count,
      unopt_total_min);
  // The cross-trial estimate cache is one of the measured optimizations:
  // report how much of the Maya arm's prediction work it absorbed (the
  // unoptimized arm runs cache-free, i.e. 0% by construction).
  std::cout << StrFormat(
      "Estimate-cache hit rate: Maya %.1f%% (%llu hits / %llu lookups across %d trials); "
      "no-optimization arm 0%% (cache disabled)\n",
      maya.estimation_totals.hit_rate() * 100.0,
      static_cast<unsigned long long>(maya.estimation_totals.cache_hits),
      static_cast<unsigned long long>(maya.estimation_totals.cache_hits +
                                      maya.estimation_totals.cache_misses),
      maya.executed);
  std::cout << StrFormat(
      "Simulation stage: Maya ran %llu replays and served %llu from the sim cache; "
      "no-optimization arm replays every worker on every trial\n",
      static_cast<unsigned long long>(maya.simulation_totals.cache_misses),
      static_cast<unsigned long long>(maya.simulation_totals.cache_hits));
  return 0;
}
