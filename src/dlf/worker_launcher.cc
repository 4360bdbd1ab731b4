#include "src/dlf/worker_launcher.h"

#include <atomic>
#include <chrono>
#include <memory>

#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/dlf/rank_plan.h"

namespace maya {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Lowers `current` to `index` if it is smaller (lock-free running minimum).
void FetchMin(std::atomic<int>& current, int index) {
  int observed = current.load(std::memory_order_relaxed);
  while (index < observed &&
         !current.compare_exchange_weak(observed, index, std::memory_order_relaxed)) {
  }
}

}  // namespace

Result<LaunchResult> EmulateJob(const ModelConfig& model, const TrainConfig& config,
                                const ClusterSpec& cluster, const LaunchOptions& options) {
  MAYA_RETURN_IF_ERROR(config.Validate(model, cluster));
  const auto start = std::chrono::steady_clock::now();

  JobEmulation emulation(EmulationSpec{cluster});
  JobCommRegistry registry(&emulation.bootstrap());
  LaunchResult result;

  // Engines are const after construction; one instance drives every rank
  // (concurrently under a parallel launch).
  std::unique_ptr<MegatronEngine> megatron;
  std::unique_ptr<FsdpEngine> fsdp;
  std::unique_ptr<VisionEngine> vision;
  if (model.family == ModelFamily::kResNet) {
    vision = std::make_unique<VisionEngine>(model, config, cluster);
  } else if (config.framework == ParallelFramework::kMegatron) {
    megatron = std::make_unique<MegatronEngine>(model, config, cluster);
  } else {
    fsdp = std::make_unique<FsdpEngine>(model, config, cluster);
  }
  // Applies `call` to whichever engine this job runs on.
  const auto on_engine = [&](const auto& call) {
    return vision ? call(*vision) : megatron ? call(*megatron) : call(*fsdp);
  };

  // The launch walks rank classes. Virtual folds take the engine's analytic
  // equivalence classes; full emulation gives every rank a class of its own,
  // with empty `members` (a trace that stands for its own rank only).
  const bool virtual_folds = options.virtual_folds || options.selective_launch;
  std::vector<RankClass> classes;
  if (virtual_folds) {
    classes = on_engine([](const auto& engine) { return engine.EquivalenceClasses(); });
  } else {
    classes.resize(static_cast<size_t>(cluster.total_gpus()));
    for (size_t rank = 0; rank < classes.size(); ++rank) {
      classes[rank].representative = static_cast<int>(rank);
    }
  }
  const int class_count = static_cast<int>(classes.size());

  // Pre-assign communicator unique ids by replaying, representative-major,
  // the order in which sequential emulation would first use each logical
  // group name. This pins uid assignment independently of execution
  // interleaving, so a parallel fan-out records the same comm_uids.
  for (const RankClass& cls : classes) {
    on_engine([&](const auto& engine) { engine.RegisterComms(cls.representative, &registry); });
  }

  // Host clocks must outlive the emulators that reference them. Workers are
  // created up front (CreateWorker is not thread-safe); after this loop each
  // class's emulator + clock are touched only by that class's task.
  std::vector<std::unique_ptr<VirtualHostClock>> clocks;
  clocks.reserve(classes.size());
  std::vector<WorkerEmulator*> workers;
  workers.reserve(classes.size());
  for (const RankClass& cls : classes) {
    clocks.push_back(std::make_unique<VirtualHostClock>());
    workers.push_back(&emulation.CreateWorker(cls.representative, clocks.back().get()));
  }

  auto run_class = [&](int index) -> Status {
    // Per-class cancellation checkpoint: a pending cancel/deadline aborts the
    // launch before this representative's emulation, propagating through the
    // same first-failure path an emulation error takes.
    MAYA_RETURN_IF_ERROR(CheckCancel(options.cancel));
    const int rank = classes[static_cast<size_t>(index)].representative;
    WorkerEmulator* worker = workers[static_cast<size_t>(index)];
    VirtualHostClock* clock = clocks[static_cast<size_t>(index)].get();
    return on_engine(
        [&](const auto& engine) { return engine.RunWorker(rank, worker, clock, &registry); });
  };

  // `first_failed` is the lowest class whose emulation returned non-OK — the
  // class sequential execution would have stopped at. The pool only engages
  // above the adaptive threshold: fan-out overhead beats the work itself on
  // small launches (BENCH_emulation's 0.87x arm).
  std::vector<Status> statuses(classes.size());
  std::atomic<int> first_failed{class_count};
  ThreadPool* pool = options.emulation_pool;
  if (pool != nullptr && class_count >= std::max(options.min_parallel_ranks, 2)) {
    pool->ParallelFor(classes.size(), [&](size_t index) {
      ScopedSpan span("emulate_rank", "dlf");
      // A lower class already failed: sequential execution would never have
      // reached this one, so its outcome cannot affect the result. Skipped
      // classes keep an OK status; `first_failed` is the sole authority on
      // where the job stopped.
      if (static_cast<int>(index) > first_failed.load(std::memory_order_relaxed)) {
        return;
      }
      Status status = run_class(static_cast<int>(index));
      if (!status.ok()) {
        FetchMin(first_failed, static_cast<int>(index));
      }
      statuses[index] = std::move(status);
    });
  } else {
    for (int index = 0; index < class_count; ++index) {
      Status status = run_class(index);
      const bool failed = !status.ok();
      statuses[static_cast<size_t>(index)] = std::move(status);
      if (failed) {
        first_failed.store(index, std::memory_order_relaxed);
        break;  // sequential early exit
      }
    }
  }

  // Counters cover the classes a sequential run completed (all of them, or
  // those before the first failure).
  const int failed_index = first_failed.load(std::memory_order_relaxed);
  for (int index = 0; index < failed_index; ++index) {
    result.total_api_calls += workers[static_cast<size_t>(index)]->stats().api_calls;
    ++result.full_workers_emulated;
  }
  if (failed_index < class_count) {
    const Status& status = statuses[static_cast<size_t>(failed_index)];
    if (status.code() != StatusCode::kOutOfMemory) {
      return status;
    }
    // The configuration does not fit: a first-class outcome (search
    // pruning, Fig. 2b OOM cells). Twin ranks would OOM identically, so the
    // failing representative is the lowest rank a full launch stops at.
    result.oom = true;
    result.oom_detail =
        StrFormat("rank %d: %s", classes[static_cast<size_t>(failed_index)].representative,
                  status.message().c_str());
    result.emulation_wall_ms = WallMs(start);
    return result;
  }

  // TakeTraces returns rank order, which is class order: representatives
  // ascend under both launch modes.
  result.traces = emulation.TakeTraces();
  for (size_t index = 0; index < classes.size(); ++index) {
    DCHECK(result.traces[index].rank == classes[index].representative);
    result.traces[index].represented_ranks = std::move(classes[index].members);
  }
  if (virtual_folds) {
    // Analytic communicator resolution: membership of every communicator
    // the representatives initialized, in closed form from the layout. The
    // registry maps each logical name to the uid the emulation assigned.
    // Full emulation leaves this empty: the collator reads every rank's
    // comm-init records instead.
    for (const RankClass& cls : classes) {
      std::vector<CommSpec> specs = on_engine(
          [&](const auto& engine) { return engine.DescribeComms(cls.representative); });
      for (CommSpec& spec : specs) {
        const uint64_t uid = registry.IdFor(spec.name).value;
        auto [it, inserted] = result.resolved_comms.try_emplace(uid);
        if (inserted) {
          it->second.uid = uid;
          it->second.nranks = static_cast<int32_t>(spec.members.size());
          it->second.members = std::move(spec.members);
        }
      }
    }
  }
  result.emulation_wall_ms = WallMs(start);
  return result;
}

}  // namespace maya
