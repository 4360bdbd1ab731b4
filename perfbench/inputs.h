// Inputs of the perfbench workloads: the paper's evaluation setups, the fixed
// reference data generated from src/groundtruth, and the request lines and
// schedules each workload sends. Everything here is a pure function of the
// reference file and the workload seed, so two builds that read the same
// files send byte-identical traffic.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dlf/model_config.h"
#include "src/dlf/train_config.h"
#include "src/hw/cluster_spec.h"

namespace perfbench {

// One model on one cluster. `deployment` is the name a request targets; the
// server's default deployment (h100x32) is addressed with an empty name.
struct Setup {
  std::string name;  // "<model key>@<cluster name>"
  maya::ModelConfig model;
  maya::ClusterSpec cluster;
  std::string deployment;
};

// The four searched setups of bench/bench_common: GPT-3 2.7B on 8/16 x V100
// and GPT-3 18.4B on 32/64 x H100.
std::vector<Setup> Table5Setups();
// Fig. 12's GPT-3 145.6B on `world` H100s.
Setup HyperscaleSetup(int world);
maya::Result<Setup> SetupByName(const std::string& name);

// The maya_serve flags every workload runs with; the default deployment
// and the one extra registered deployment.
inline constexpr const char* kServerCluster = "h100x32";
inline constexpr const char* kServerDeployments = "v100x16";

// One reference measurement: what src/groundtruth reports for a config.
struct RefRow {
  std::string set;  // "table5" or "hyperscale"
  std::string setup;
  maya::TrainConfig config;
  bool oom = false;
  double iteration_us = 0.0;
  double mfu = 0.0;
  // Pool membership of the predict workload, and the serialized size of the
  // config's collated trace (pool configs only; 0 elsewhere).
  bool pool = false;
  uint64_t trace_bytes = 0;
};

std::string ReferenceHeader();
std::string FormatReferenceRow(const RefRow& row);
maya::Result<std::vector<RefRow>> LoadReference(const std::string& path);

// Deterministic generator (splitmix64) so inputs do not depend on library
// RNG changes.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // (0, 1)

 private:
  uint64_t state_;
};

// A request due `due_s` seconds after the open-loop phase starts.
struct Arrival {
  double due_s = 0.0;
  uint32_t line = 0;
};

// What a workload sends. Lines are distinct requests; sequences index them.
struct WorkloadInputs {
  std::vector<std::string> lines;
  // Reference row of each line (index into the reference table), or -1. A
  // search line points at its setup's best feasible Table-5 row (highest
  // reference MFU), the optimum its regret is measured against.
  std::vector<int> line_ref;
  // The timed load: one closed-loop order per round, each sent on one
  // connection to a fresh server.
  std::vector<std::vector<uint32_t>> rounds;
  // Traced run only: the predict open-loop schedule, and the order of the
  // 4-connection closed-loop phase (predict capacity, trace_predict).
  std::vector<Arrival> arrivals;
  std::vector<uint32_t> wide;
};

// Every workload sends a fixed amount of work, so each seed measures the
// same requests in another order. A timed run starts the server three times;
// each round of its load goes to its own fresh server on one connection.
// predict and trace_predict split whole passes over the pool or the traces
// over kPassRounds rounds, as many as fill --seconds at the nominal pass
// times below (one connection of a 4-core machine). A hyperscale round (every
// config once, ~13 s) or a search round (one search per setup, ~16 s) is a
// fixed job set. Hyperscale runs two: its median falls in a gap between a
// ~50 ms and a ~100 ms cluster of configs, and which configs land on each
// side depends on the order's cache hits, so two orders per run halve that
// noise. Search runs one, its longest round.
inline constexpr int kPassRounds = 3;
inline constexpr int kHyperscaleRounds = 2;
inline constexpr int kSearchRounds = 1;
inline constexpr double kPredictPassS = 2.2;
inline constexpr double kTracePassS = 2.6;
// The traced run's predict open loop: 16 req/s (about 15% of the 4-connection
// capacity of the commit that defined the benchmark, on a 4-core machine) for
// 12 s, then a 4-connection capacity phase of 512 requests. trace_predict's
// 4-connection phase is two passes over its traces.
inline constexpr double kPredictRatePerS = 16.0;
inline constexpr double kOpenLoopS = 12.0;
inline constexpr size_t kCapacityRequests = 512;
inline constexpr int kTraceWidePasses = 2;

std::string PredictLine(uint64_t id, const Setup& setup, const maya::TrainConfig& config,
                        bool virtual_folds);
// A search over the setup's Table-5 space with default options, as clients
// send it: CMA, the paper's budget, pruning, early stop and search seed 1.
std::string SearchLine(uint64_t id, const Setup& setup);

// Predict picks pool configs with uniform popularity: every pool config is
// sent equally often (seeded passes over the pool, the last one of the open
// loop and the capacity phase cut short). `seconds` sizes the rounds.
WorkloadInputs PredictInputs(const std::vector<RefRow>& ref, uint64_t seed, double seconds);
WorkloadInputs HyperscaleInputs(const std::vector<RefRow>& ref, uint64_t seed);
// One search per Table-5 setup in each round; the seed orders them.
WorkloadInputs SearchInputs(const std::vector<RefRow>& ref, uint64_t seed);
// Builds the traces in process (EmulateJob + TraceCollator::Collate).
maya::Result<WorkloadInputs> TracePredictInputs(const std::vector<RefRow>& ref, uint64_t seed,
                                                double seconds);
// Every pool config once, in pool order, as predict lines (one round): the
// warm-up every server gets before timing, and the accuracy metrics' source.
WorkloadInputs PoolInputs(const std::vector<RefRow>& ref);

// Hex FNV-1a digest of the lines and every schedule.
std::string InputDigest(const WorkloadInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
