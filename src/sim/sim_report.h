// Simulation output: the report of Fig. 5 (batch time, communication time,
// peak memory) plus per-worker detail used by benches and tests.
#ifndef SRC_SIM_SIM_REPORT_H_
#define SRC_SIM_SIM_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace maya {

struct WorkerSimReport {
  int rank = -1;
  int folded_multiplicity = 1;  // how many real ranks this worker represents
  double finish_us = 0.0;
  double host_busy_us = 0.0;
  double compute_busy_us = 0.0;
  // Time with at least one collective in flight on the device (join→completion).
  double comm_busy_us = 0.0;
  // Collective time not hidden behind concurrent compute.
  double exposed_comm_us = 0.0;

  bool operator==(const WorkerSimReport&) const = default;
};

// Simulation-stage counters (the stage-4 analogue of EstimationStats): the
// job's workers, and whether its replay came from the cross-trial sim cache.
// Observability, not semantics: a cache hit reproduces the replay exactly.
struct SimulationStats {
  uint64_t workers = 0;     // sim workers in the job trace
  uint64_t components = 0;  // replays: one per simulated job
  // Replays served from / missing in the cross-trial sim cache. With the
  // cache disabled every replay counts as a miss.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
  void Accumulate(const SimulationStats& other) {
    workers += other.workers;
    components += other.components;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }
};

struct SimReport {
  double total_time_us = 0.0;  // makespan across all workers
  double comm_time_us = 0.0;   // mean per-worker collective busy time
  double exposed_comm_us = 0.0;
  double host_time_us = 0.0;   // mean per-worker host busy time
  uint64_t peak_memory_bytes = 0;
  size_t events_processed = 0;
  std::vector<WorkerSimReport> workers;
  // How the report was produced (replayed or served from the sim cache);
  // every field above is bit-identical either way.
  SimulationStats stats;

  std::string Summary() const;
};

}  // namespace maya

#endif  // SRC_SIM_SIM_REPORT_H_
