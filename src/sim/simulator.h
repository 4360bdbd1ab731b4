// Event-driven cluster simulator (§4.3, Appendix A).
//
// Consumes a collated JobTrace whose operations are already annotated with
// durations (kernel runtimes from the estimation phase; collective wire
// times from the collective estimator) and replays the distributed execution:
// per-worker host dispatch queues issue operations onto device streams,
// synchronization is resolved through a CUDA-event waitmap (with handle
// re-use versioning), and collectives rendezvous in a network waitmap that
// releases all participants after the last one joins plus the predicted
// on-the-wire duration. Pipeline bubbles and compute/communication overlap
// emerge from these mechanics rather than from explicit modeling.
//
// Execution: every worker replays on one event heap. Twin workers are folded
// once, at collation (§4.2), so the simulator replays what remains; a folded
// worker joins each collective once for all of the ranks it represents
// (`JobTrace::folded_ranks`). A borrowed SimulationCache memoizes the
// per-worker results of a whole replay across Predict calls, search trials
// and trace_predicts, keyed by the job's canonical fingerprint (ops,
// durations and communicator topology, uids renumbered by first use) plus
// the resolved SimOptions, so a repeated annotated job skips the event heap.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/sharded_cache.h"
#include "src/common/status.h"
#include "src/hw/cluster_spec.h"
#include "src/sim/sim_report.h"
#include "src/trace/collator.h"

namespace maya {

// Per-worker dynamic outcome of a replay, in JobTrace::workers order — what
// the simulation cache stores. Identity (rank, folded multiplicity, peak
// memory) is deliberately absent: it comes from each worker's own trace.
struct WorkerSimMetrics {
  double finish_us = 0.0;
  double host_busy_us = 0.0;
  double compute_busy_us = 0.0;
  double comm_busy_us = 0.0;
  double exposed_comm_us = 0.0;
  uint64_t events = 0;  // events processed for this worker

  bool operator==(const WorkerSimMetrics&) const = default;
};

struct SimCacheEntry {
  std::vector<WorkerSimMetrics> workers;
};

// Cross-trial replay memoization, shared by concurrent Simulator runs (search
// trials, service workers). Keyed by the canonical job fingerprint mixed with
// the resolved SimOptions; values are immutable.
using SimulationCache = ShardedCache<uint64_t, std::shared_ptr<const SimCacheEntry>>;

struct SimOptions {
  // Duration multiplier for compute kernels that start while a collective is
  // in flight on the same device. Maya's simulator assumes decoupled SMs
  // (factor 1.0, §8); the ground-truth executor models contention (>1).
  double compute_contention_factor = 1.0;
  // Device-side launch-to-start latency applied between an operation's
  // enqueue and its earliest start. Unset selects the GPU spec value;
  // negative values are rejected at construction.
  std::optional<double> dispatch_latency_us;
  // Borrowed cross-trial replay cache; null disables memoization.
  SimulationCache* cache = nullptr;
  // Cooperative-cancellation checkpoints before the replay and before the
  // cache publish, so a cancelled run never feeds the cross-trial cache.
  // Null = not cancellable.
  const CancelToken* cancel = nullptr;
};

class Simulator {
 public:
  // CHECK-fails on a negative dispatch latency (explicit or from the spec).
  Simulator(const JobTrace& job, const ClusterSpec& cluster, SimOptions options = {});

  // Runs the discrete-event simulation to completion. Fails (with a stuck-
  // worker diagnostic) if the trace deadlocks — e.g. mismatched collectives.
  Result<SimReport> Run();

 private:
  const JobTrace& job_;
  const ClusterSpec& cluster_;
  SimOptions options_;
  double dispatch_latency_us_ = 0.0;  // resolved (spec default applied)
};

}  // namespace maya

#endif  // SRC_SIM_SIMULATOR_H_
