// Maya-Search driver (§5): orchestrates trials that evaluate training
// configurations through the Maya pipeline, with result caching,
// fidelity-preserving pruning (Table 10), top-5 early stopping, and
// concurrent trial execution for stateless searchers (§5.1).
#ifndef SRC_SEARCH_SEARCH_DRIVER_H_
#define SRC_SEARCH_SEARCH_DRIVER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/search/config_space.h"
#include "src/search/pruning.h"
#include "src/search/searchers.h"

namespace maya {

struct SearchOptions {
  std::string algorithm = "cma";
  int sample_budget = 2000;  // the paper's per-algorithm budget (App. C)
  bool enable_pruning = true;
  bool enable_cache = true;
  bool deduplicate_workers = true;
  // Hyperscale virtual folding per trial (see PredictionRequest): emulate
  // one representative per analytic rank class (§7.4) — the emulation-stage
  // analogue of deduplicate_workers. Trial outcomes are bit-identical.
  bool virtual_folds = false;
  // Trials evaluated concurrently (stateless searchers only; ask/tell
  // searchers are inherently sequential).
  int concurrency = 1;
  // Stop when the top-5 MFU set is unchanged for this many consecutive
  // non-OOM evaluations (§7.3). <= 0 disables.
  int early_stop_patience = 20;
  uint64_t seed = 1;
  // Cooperative cancellation: probed between trial batches and threaded into
  // every trial's pipeline run, so a deadline-blown or cancelled search
  // releases its worker within one trial's stage checkpoints. A cancelled
  // trial aborts the whole search (same contract as any trial error).
  const CancelToken* cancel = nullptr;
};

struct SearchOutcome {
  bool found = false;
  TrainConfig best_config;
  double best_mfu = 0.0;
  double best_iteration_us = 0.0;

  // Trial status breakdown (Fig. 15).
  int samples = 0;
  int executed = 0;
  int cached = 0;
  int skipped = 0;
  int invalid = 0;
  int oom = 0;
  int unique_valid = 0;

  double wall_ms = 0.0;
  // Summed Maya stage timings across executed trials (Table 6).
  StageTimings stage_totals;
  // Summed estimation-stage counters across executed trials: total vs unique
  // ops and the cross-trial estimate cache's hit/miss split.
  EstimationStats estimation_totals;
  // Summed simulation-stage counters across executed trials: workers,
  // replays and the cross-trial sim cache's hit/miss split.
  SimulationStats simulation_totals;
  // (unique valid configs sampled, best MFU so far) — Fig. 16 series.
  std::vector<std::pair<int, double>> progress;
};

// Runs the search to completion. Fails (without aborting) on an unknown
// algorithm name or when any trial's pipeline run fails — a search result
// computed over a partially-failed trial set would silently diverge from the
// fault-free outcome, so the first trial error aborts the whole search.
Result<SearchOutcome> RunSearch(const MayaPipeline& pipeline, const ModelConfig& model,
                                const ConfigSpace& space, const SearchOptions& options);

}  // namespace maya

#endif  // SRC_SEARCH_SEARCH_DRIVER_H_
