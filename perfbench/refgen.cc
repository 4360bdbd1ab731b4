// perfbench_refgen: writes the benchmark's fixed reference data.
//
// For every valid Table-5 config of the four searched setups it "deploys"
// the config on src/groundtruth exactly as the paper benches do
// (bench::DeployOnGroundTruth, with its per-config noise seed) and records the
// iteration time, MFU and OOM verdict. It then marks the predict workload's
// pool, records each pool config's collated trace size, and measures the
// hyperscale configs (GPT-3 145.6B, virtual folds, same per-config seed).
//
// The benchmark reads the committed output, so later edits to src/groundtruth
// cannot move its accuracy metrics. Regenerate only on purpose:
//   perfbench_refgen perfbench/data/reference.tsv
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "perfbench/inputs.h"
#include "src/trace/collator.h"
#include "src/trace/serialization.h"

namespace {

using namespace perfbench;

// Per setup: this many feasible and OOM configs, evenly strided over the
// enumeration order, form the predict pool (64 configs, 12 of them OOM).
// Feasible configs whose collated trace exceeds kPoolMaxTraceBytes are
// skipped, which leaves out the slowest predicts, so a few outsized requests
// do not decide the latency tail.
constexpr size_t kPoolFeasible = 13;
constexpr size_t kPoolOom = 3;
constexpr size_t kPoolCandidates = 40;
constexpr uint64_t kPoolMaxTraceBytes = 6 * 1000 * 1000;

std::vector<size_t> Strided(const std::vector<size_t>& items, size_t count) {
  std::vector<size_t> picked;
  for (size_t i = 0; i < count && i < items.size(); ++i) {
    picked.push_back(items[(2 * i + 1) * items.size() / (2 * count)]);
  }
  return picked;
}

uint64_t TraceBytes(const Setup& setup, const maya::TrainConfig& config) {
  maya::Result<maya::LaunchResult> launched =
      maya::EmulateJob(setup.model, config, setup.cluster);
  CHECK(launched.ok() && !launched->oom) << config.Summary();
  maya::TraceCollator collator;
  maya::Result<maya::JobTrace> job =
      collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
  CHECK(job.ok()) << job.status().ToString();
  return maya::SerializeJobTrace(*job).size();
}

RefRow Hyperscale(const Setup& setup, const maya::TrainConfig& config) {
  RefRow row{"hyperscale", setup.name, config};
  const maya::bench::Setup bench_setup{setup.name, setup.model, setup.cluster};
  const maya::GroundTruthExecutor executor =
      maya::bench::MakeDeploymentExecutor(bench_setup, config);
  maya::LaunchOptions launch;
  launch.virtual_folds = true;
  maya::Result<maya::LaunchResult> launched =
      maya::EmulateJob(setup.model, config, setup.cluster, launch);
  CHECK(launched.ok()) << launched.status().ToString();
  if (launched->oom) {
    row.oom = true;
    return row;
  }
  maya::TraceCollator collator;
  maya::Result<maya::JobTrace> job =
      collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
  CHECK(job.ok()) << job.status().ToString();
  maya::Result<maya::SimReport> report = executor.Execute(*job);
  CHECK(report.ok()) << report.status().ToString();
  row.iteration_us = report->total_time_us;
  row.mfu = maya::ComputeMfu(setup.model, config.global_batch_size, setup.cluster,
                             row.iteration_us);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.tsv\n", argv[0]);
    return 2;
  }
  std::vector<RefRow> rows;
  for (const Setup& setup : Table5Setups()) {
    const maya::bench::Setup bench_setup{setup.name, setup.model, setup.cluster};
    const maya::ConfigSpace space =
        maya::ConfigSpace::MegatronTable5(maya::DefaultGlobalBatch(setup.model));
    std::vector<size_t> feasible;
    std::vector<size_t> oom;
    for (const maya::TrainConfig& config : space.EnumerateAll()) {
      if (!config.Validate(setup.model, setup.cluster).ok()) {
        continue;
      }
      const maya::bench::ActualOutcome outcome =
          maya::bench::DeployOnGroundTruth(bench_setup, config);
      RefRow row{"table5", setup.name, config, outcome.oom, outcome.iteration_us, outcome.mfu};
      (row.oom ? oom : feasible).push_back(rows.size());
      rows.push_back(row);
    }
    size_t picked = 0;
    for (const size_t i : Strided(feasible, kPoolCandidates)) {
      const uint64_t bytes = TraceBytes(setup, rows[i].config);
      if (picked < kPoolFeasible && bytes <= kPoolMaxTraceBytes) {
        rows[i].pool = true;
        rows[i].trace_bytes = bytes;
        ++picked;
      }
    }
    for (const size_t i : Strided(oom, kPoolOom)) {
      rows[i].pool = true;
    }
    std::fprintf(stderr, "%s: %zu valid, %zu OOM\n", setup.name.c_str(),
                 feasible.size() + oom.size(), oom.size());
  }

  // Fig. 12's model at 16k-131k ranks: every valid (TP, PP, microbatch
  // multiplier) with sequence parallelism, recomputation and the distributed
  // optimizer on, at a global batch that keeps microbatches whole at 131k.
  for (const int world : {16384, 32768, 65536, 131072}) {
    const Setup setup = HyperscaleSetup(world);
    for (const int tp : {2, 4, 8}) {
      for (const int pp : {4, 8, 16}) {
        for (const int mbm : {1, 2, 4, 8}) {
          maya::TrainConfig config;
          config.global_batch_size = 131072;
          config.tensor_parallel = tp;
          config.pipeline_parallel = pp;
          config.microbatch_multiplier = mbm;
          config.sequence_parallel = true;
          config.activation_recomputation = true;
          config.distributed_optimizer = true;
          if (config.Validate(setup.model, setup.cluster).ok()) {
            rows.push_back(Hyperscale(setup, config));
          }
        }
      }
    }
    std::fprintf(stderr, "%s done\n", setup.name.c_str());
  }

  std::ofstream out(argv[1]);
  out << "# Generated by perfbench_refgen from src/groundtruth; see perfbench/README.md.\n"
      << ReferenceHeader() << '\n';
  for (const RefRow& row : rows) {
    out << FormatReferenceRow(row) << '\n';
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::fprintf(stderr, "wrote %zu rows to %s\n", rows.size(), argv[1]);
  return 0;
}
