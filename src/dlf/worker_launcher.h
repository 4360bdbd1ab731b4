// Job-level emulation driver: runs the training script of one representative
// rank per rank class against its own WorkerEmulator and collects the
// per-worker traces — the "Trace Collection via Emulation" stage of Fig. 4/5.
// Full emulation gives every rank a class of its own; virtual folds (§7.4)
// take the engine's analytic equivalence classes.
//
// Classes can be emulated in parallel across a thread pool: every
// representative owns its emulator, virtual host clock and RNG stream,
// communicator unique ids are pre-assigned in sequential order before the
// fan-out, and OOM/error reporting replays the sequential class order — so
// the parallel launch is bit-identical to the sequential one (asserted in
// tests).
#ifndef SRC_DLF_WORKER_LAUNCHER_H_
#define SRC_DLF_WORKER_LAUNCHER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dlf/fsdp_engine.h"
#include "src/dlf/megatron_engine.h"
#include "src/dlf/vision_engine.h"
#include "src/emulator/emulator.h"
#include "src/trace/collator.h"

namespace maya {

struct LaunchOptions {
  // Hyperscale mode (§7.4): never materialize folded ranks. The launcher
  // takes the engine's analytic rank-equivalence classes (O(unique classes),
  // not an O(N) per-rank walk), emulates one representative per class, tags
  // each trace with the full RankSet it stands for, and resolves
  // communicator membership in closed form. Megatron folds TP/DP twins per
  // pipeline stage; the FSDP and vision engines are data-parallel, so every
  // rank folds onto rank 0. Off (the default) is full emulation, the
  // reference path: every rank runs, and the collator folds twins by
  // fingerprint (§4.2).
  bool virtual_folds = false;
  // Retired launch mode, kept as an alias: true selects virtual folds.
  bool selective_launch = false;
  // Borrowed pool to fan ranks out on (normally the ExecutionContext pool a
  // pipeline shares across its stages); null keeps the seed's sequential
  // loop. Must outlive the EmulateJob call.
  ThreadPool* emulation_pool = nullptr;
  // Adaptive small-N fallback: the pool only engages when at least this
  // many representatives need emulation — below that the fan-out overhead exceeds
  // the emulation cost (measured 0.87x at world_size 8 in BENCH_emulation).
  // Traces are bit-identical either way; 1 forces the parallel arm.
  int min_parallel_ranks = 16;
  // Cooperative-cancellation checkpoint before each representative's
  // emulation (sequential and parallel launches alike): a cancelled launch unwinds with
  // CANCELLED/DEADLINE_EXCEEDED through the normal first-failure machinery.
  // Null = not cancellable.
  const CancelToken* cancel = nullptr;
};

struct LaunchResult {
  std::vector<WorkerTrace> traces;
  bool oom = false;                // config does not fit device memory
  std::string oom_detail;
  int full_workers_emulated = 0;   // representatives emulated
  double emulation_wall_ms = 0.0;  // real wall-clock of this stage (Fig. 13)
  uint64_t total_api_calls = 0;
  // Virtual-folds mode only: analytically-resolved communicator membership
  // for every communicator the representatives initialized, keyed by uid.
  // Passed to TraceCollator::Collate in place of per-rank comm-init records.
  std::unordered_map<uint64_t, CommGroup> resolved_comms;
};

// Emulates one training iteration of the job. Fails only on internal errors;
// out-of-memory is reported via LaunchResult::oom.
Result<LaunchResult> EmulateJob(const ModelConfig& model, const TrainConfig& config,
                                const ClusterSpec& cluster, const LaunchOptions& options = {});

}  // namespace maya

#endif  // SRC_DLF_WORKER_LAUNCHER_H_
