#include "src/search/search_driver.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "src/common/thread_pool.h"

namespace maya {
namespace {

struct TrialOutcome {
  bool valid = false;
  bool oom = false;
  double iteration_us = 0.0;
  double mfu = 0.0;
};

// One executed trial: the searcher-facing outcome plus the per-trial stage
// timings and counters the driver aggregates. Returned by value so the
// single-threaded and ParallelFor execution paths share one execution and
// one accumulation routine (accumulation into SearchOutcome is not
// thread-safe, so parallel trials buffer results and accumulate after).
struct TrialResult {
  TrialOutcome outcome;
  StageTimings timings;
  EstimationStats estimation;
  SimulationStats simulation;
};

// Runs the full Maya pipeline for one configuration (thread-safe). A failed
// pipeline run (e.g. an injected fault) propagates: the caller aborts the
// search rather than folding a silently-missing trial into the outcome.
Result<TrialResult> ExecuteTrial(const MayaPipeline& pipeline, const ModelConfig& model,
                                 const SearchOptions& options, const TrainConfig& config) {
  PredictionRequest request;
  request.model = model;
  request.config = config;
  request.deduplicate_workers = options.deduplicate_workers;
  request.virtual_folds = options.virtual_folds;
  request.cancel = options.cancel;
  Result<PredictionReport> report = pipeline.Predict(request);
  MAYA_RETURN_IF_ERROR(report.status());
  TrialResult result;
  result.outcome.valid = true;
  result.outcome.oom = report->oom;
  if (!report->oom) {
    result.outcome.iteration_us = report->iteration_time_us;
    result.outcome.mfu = report->mfu;
  }
  result.timings = report->timings;
  result.estimation = report->estimation;
  result.simulation = report->simulation;
  return result;
}

void AccumulateTrial(SearchOutcome& outcome, const TrialResult& result) {
  outcome.stage_totals.emulation_ms += result.timings.emulation_ms;
  outcome.stage_totals.collation_ms += result.timings.collation_ms;
  outcome.stage_totals.estimation_ms += result.timings.estimation_ms;
  outcome.stage_totals.simulation_ms += result.timings.simulation_ms;
  outcome.estimation_totals.Accumulate(result.estimation);
  outcome.simulation_totals.Accumulate(result.simulation);
}

struct DriverState {
  std::unordered_map<std::string, TrialOutcome> cache;
  PruningOracle pruning;
  std::multiset<double, std::greater<double>> top5;
  int stable_streak = 0;
};

// Maintains the top-5 MFU set; returns true when it changed.
bool UpdateTop5(std::multiset<double, std::greater<double>>& top5, double mfu) {
  if (top5.size() < 5) {
    top5.insert(mfu);
    return true;
  }
  const double worst = *std::prev(top5.end());
  if (mfu > worst) {
    top5.erase(std::prev(top5.end()));
    top5.insert(mfu);
    return true;
  }
  return false;
}

}  // namespace

Result<SearchOutcome> RunSearch(const MayaPipeline& pipeline, const ModelConfig& model,
                                const ConfigSpace& space, const SearchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  MAYA_ASSIGN_OR_RETURN(std::unique_ptr<SearchAlgorithm> algorithm,
                        MakeSearchAlgorithm(options.algorithm, space, options.seed));
  const bool stateless = options.algorithm == "grid" || options.algorithm == "random";
  const int batch_size = stateless ? std::max(1, options.concurrency) : 1;
  ThreadPool pool(static_cast<size_t>(std::max(1, options.concurrency)));

  SearchOutcome outcome;
  DriverState state;

  bool exhausted = false;
  while (!exhausted && outcome.samples < options.sample_budget) {
    // Per-batch cancellation checkpoint; cached/pruned-only batches touch no
    // pipeline stage, so without this a search resolving everything from the
    // trial cache would never observe its deadline.
    MAYA_RETURN_IF_ERROR(CheckCancel(options.cancel));
    // Collect a batch of proposals (1 for stateful searchers).
    struct Pending {
      size_t index;
      TrainConfig config;
      enum class Kind { kInvalid, kCached, kSkipped, kExecute } kind;
      TrialOutcome outcome;  // pre-resolved for all but kExecute
      std::string key;
    };
    std::vector<Pending> batch;
    while (static_cast<int>(batch.size()) < batch_size &&
           outcome.samples < options.sample_budget) {
      std::optional<size_t> index = algorithm->Ask();
      if (!index.has_value()) {
        exhausted = true;
        break;
      }
      ++outcome.samples;
      Pending pending;
      pending.index = *index;
      pending.config = space.At(*index);
      pending.key = pending.config.CacheKey();

      if (!pending.config.Validate(model, pipeline.cluster()).ok()) {
        pending.kind = Pending::Kind::kInvalid;
      } else if (options.enable_cache && state.cache.count(pending.key) > 0) {
        pending.kind = Pending::Kind::kCached;
        pending.outcome = state.cache.at(pending.key);
      } else if (options.enable_pruning) {
        std::optional<PrunedOutcome> pruned = state.pruning.Lookup(pending.config);
        if (pruned.has_value()) {
          pending.kind = Pending::Kind::kSkipped;
          pending.outcome.valid = true;
          pending.outcome.oom = pruned->oom;
          pending.outcome.iteration_us = pruned->iteration_us;
          if (!pruned->oom) {
            pending.outcome.mfu = ComputeMfu(model, pending.config.global_batch_size,
                                             pipeline.cluster(), pruned->iteration_us);
          }
        } else {
          pending.kind = Pending::Kind::kExecute;
        }
      } else {
        pending.kind = Pending::Kind::kExecute;
      }
      batch.push_back(std::move(pending));
      if (!stateless) {
        break;  // strict ask/tell alternation for stateful searchers
      }
    }

    // Execute unresolved trials (concurrently when allowed).
    std::vector<size_t> to_run;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == Pending::Kind::kExecute) {
        to_run.push_back(i);
      }
    }
    if (to_run.size() == 1 || batch_size == 1) {
      for (size_t i : to_run) {
        Result<TrialResult> result = ExecuteTrial(pipeline, model, options, batch[i].config);
        MAYA_RETURN_IF_ERROR(result.status());
        batch[i].outcome = result->outcome;
        AccumulateTrial(outcome, *result);
      }
    } else if (!to_run.empty()) {
      // Buffer per-trial statuses: ParallelFor joins every task, so all
      // results land before the first error is surfaced (deterministically,
      // in ask order — not in completion order).
      std::vector<Result<TrialResult>> results(to_run.size(),
                                               Result<TrialResult>(Status::Internal("")));
      pool.ParallelFor(to_run.size(), [&](size_t j) {
        results[j] = ExecuteTrial(pipeline, model, options, batch[to_run[j]].config);
      });
      for (size_t j = 0; j < to_run.size(); ++j) {
        MAYA_RETURN_IF_ERROR(results[j].status());
        batch[to_run[j]].outcome = results[j]->outcome;
        AccumulateTrial(outcome, *results[j]);
      }
    }

    // Tell + bookkeeping, in ask order.
    for (Pending& pending : batch) {
      double objective = 0.0;
      switch (pending.kind) {
        case Pending::Kind::kInvalid:
          ++outcome.invalid;
          break;
        case Pending::Kind::kCached:
          ++outcome.cached;
          objective = pending.outcome.oom ? 0.0 : pending.outcome.mfu;
          break;
        case Pending::Kind::kSkipped:
        case Pending::Kind::kExecute: {
          const bool first_time = state.cache.count(pending.key) == 0;
          if (pending.kind == Pending::Kind::kSkipped) {
            ++outcome.skipped;
          } else {
            ++outcome.executed;
          }
          if (first_time) {
            ++outcome.unique_valid;
            state.cache[pending.key] = pending.outcome;
            state.pruning.Observe(pending.config, pending.outcome.oom,
                                  pending.outcome.iteration_us);
          }
          objective = pending.outcome.oom ? 0.0 : pending.outcome.mfu;
          if (pending.outcome.oom) {
            ++outcome.oom;
          } else {
            if (objective > outcome.best_mfu) {
              outcome.found = true;
              outcome.best_mfu = objective;
              outcome.best_config = pending.config;
              outcome.best_iteration_us = pending.outcome.iteration_us;
            }
            // Early stopping on top-5 stability (§7.3).
            if (UpdateTop5(state.top5, objective)) {
              state.stable_streak = 0;
            } else {
              ++state.stable_streak;
            }
          }
          outcome.progress.emplace_back(outcome.unique_valid, outcome.best_mfu);
          break;
        }
      }
      algorithm->Tell(pending.index, objective);
    }
    if (options.early_stop_patience > 0 &&
        state.stable_streak >= options.early_stop_patience) {
      break;
    }
  }

  outcome.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace maya
