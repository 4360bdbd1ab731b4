// The benchmark's own tests. Run from the repository root (the reference data
// path is relative to it):
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "perfbench/inputs.h"
#include "perfbench/stats.h"
#include "perfbench/traced_replay.h"
#include "src/core/estimator_bank.h"
#include "src/core/execution_context.h"

namespace perfbench {
namespace {

constexpr const char* kReference = "perfbench/data/reference.tsv";

const std::vector<RefRow>& Reference() {
  static const std::vector<RefRow> rows = [] {
    maya::Result<std::vector<RefRow>> loaded = LoadReference(kReference);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? *loaded : std::vector<RefRow>{};
  }();
  return rows;
}

TEST(PerfbenchInputs, SameSeedSameLinesAndSchedule) {
  const WorkloadInputs a = PredictInputs(Reference(), 7, 10.0);
  const WorkloadInputs b = PredictInputs(Reference(), 7, 10.0);
  ASSERT_EQ(a.lines, b.lines);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.arrivals[i].due_s),
              std::bit_cast<uint64_t>(b.arrivals[i].due_s));
    EXPECT_EQ(a.arrivals[i].line, b.arrivals[i].line);
  }
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.wide, b.wide);
  EXPECT_EQ(InputDigest(a), InputDigest(b));
  EXPECT_EQ(InputDigest(HyperscaleInputs(Reference(), 7)),
            InputDigest(HyperscaleInputs(Reference(), 7)));
  EXPECT_EQ(InputDigest(SearchInputs(Reference(), 7)), InputDigest(SearchInputs(Reference(), 7)));

  const WorkloadInputs other = PredictInputs(Reference(), 8, 10.0);
  EXPECT_NE(InputDigest(a), InputDigest(other));
}

TEST(PerfbenchInputs, PoolAndPayloadShape) {
  const WorkloadInputs pool = PoolInputs(Reference());
  ASSERT_EQ(pool.lines.size(), 64u);
  size_t oom = 0;
  for (size_t i = 0; i < pool.lines.size(); ++i) {
    oom += Reference()[static_cast<size_t>(pool.line_ref[i])].oom ? 1 : 0;
    // Clients send no launch-mode flags.
    EXPECT_EQ(pool.lines[i].find("virtual_folds"), std::string::npos);
    EXPECT_EQ(pool.lines[i].find("selective_launch"), std::string::npos);
  }
  EXPECT_GT(oom, 0u);
  EXPECT_LT(oom, pool.lines.size() / 2);

  // Uniform popularity: every pool config equally often in each phase. Each
  // round is whole passes over the pool, as many as fill --seconds.
  const WorkloadInputs predict = PredictInputs(Reference(), 5, 4 * kPredictPassS * kPassRounds);
  ASSERT_EQ(predict.rounds.size(), static_cast<size_t>(kPassRounds));
  std::vector<std::vector<int>> phases;
  for (const std::vector<uint32_t>& round : predict.rounds) {
    EXPECT_EQ(round.size(), 4 * pool.lines.size());
    phases.emplace_back(pool.lines.size());
    for (const uint32_t line : round) {
      ++phases.back()[line];
    }
  }
  phases.emplace_back(pool.lines.size());
  for (const Arrival& arrival : predict.arrivals) {
    ++phases.back()[arrival.line];
  }
  phases.emplace_back(pool.lines.size());
  for (const uint32_t line : predict.wide) {
    ++phases.back()[line];
  }
  for (const std::vector<int>& counts : phases) {
    for (size_t i = 0; i < pool.lines.size(); ++i) {
      EXPECT_EQ(counts[i], counts[0]);
    }
  }
  EXPECT_EQ(predict.lines, pool.lines);

  // Every hyperscale config once per round, in another order each round.
  const WorkloadInputs hyperscale = HyperscaleInputs(Reference(), 5);
  ASSERT_EQ(hyperscale.rounds.size(), static_cast<size_t>(kHyperscaleRounds));
  for (std::vector<uint32_t> round : hyperscale.rounds) {
    std::sort(round.begin(), round.end());
    for (size_t i = 0; i < round.size(); ++i) {
      EXPECT_EQ(round[i], i);
    }
    EXPECT_EQ(round.size(), hyperscale.lines.size());
  }
  EXPECT_NE(hyperscale.rounds[0], hyperscale.rounds[1]);

  // One default-options search per Table-5 setup, each pointing at its
  // setup's best feasible reference config; the seed only orders them.
  const WorkloadInputs search = SearchInputs(Reference(), 5);
  ASSERT_EQ(search.lines.size(), Table5Setups().size());
  for (size_t i = 0; i < search.lines.size(); ++i) {
    EXPECT_EQ(search.lines[i].find("\"search\":"), std::string::npos);
    const RefRow& best = Reference()[static_cast<size_t>(search.line_ref[i])];
    EXPECT_EQ(best.setup, Table5Setups()[i].name);
    EXPECT_FALSE(best.oom);
  }
  EXPECT_EQ(search.lines, SearchInputs(Reference(), 6).lines);
}

TEST(PerfbenchStats, TailPercentileNeedsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 0; i < 99; ++i) {
    samples.push_back(i);
  }
  EXPECT_FALSE(TailPercentile(samples, 0.9).ok());
  samples.push_back(99);
  maya::Result<double> p90 = TailPercentile(samples, 0.9);
  ASSERT_TRUE(p90.ok());
  EXPECT_NEAR(*p90, 89.1, 0.5);
  EXPECT_FALSE(TailPercentile(samples, 0.99).ok());
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

// Harrell-Davis weights sum to one and are symmetric, and the estimate moves
// smoothly across a gap between two clusters instead of jumping.
TEST(PerfbenchStats, HarrellDavisIsSmoothAcrossGaps) {
  EXPECT_NEAR(HarrellDavis({5.0, 5.0, 5.0, 5.0, 5.0}, 0.3), 5.0, 1e-9);
  EXPECT_NEAR(HarrellDavis({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5, 1e-9);
  std::vector<double> split;
  for (int i = 0; i < 58; ++i) {
    split.push_back(70.0);
  }
  for (int i = 0; i < 59; ++i) {
    split.push_back(100.0);
  }
  const double median = HarrellDavis(split, 0.5);
  EXPECT_GT(median, 80.0);
  EXPECT_LT(median, 90.0);
  split[58] = 70.0;  // one config crosses the gap
  EXPECT_LT(median - HarrellDavis(split, 0.5), 5.0);
  EXPECT_EQ(HarrellDavis({}, 0.5), 0.0);
}

// The traced run's composed stages reproduce MayaPipeline::Predict on one
// config from each workload (the replay counts any mismatch as a failure).
TEST(PerfbenchReplay, ComposedStagesEqualPredict) {
  maya::ServiceEngineOptions options;
  options.pipeline.context = maya::ExecutionContext::Create(0);
  const maya::ClusterSpec h100 = *maya::ClusterSpecByName(kServerCluster);
  const maya::ClusterSpec v100 = *maya::ClusterSpecByName(kServerDeployments);
  const maya::ProfileSweepOptions sweep = *maya::ProfileSweepPreset("tiny");
  std::unique_ptr<maya::ServiceEngine> engine = *maya::ServiceEngine::Create(
      h100, maya::TrainEstimators(h100, maya::GroundTruthExecutor(h100, 0x9f0f), sweep),
      options);
  maya::EstimatorBank v100_bank =
      maya::TrainEstimators(v100, maya::GroundTruthExecutor(v100, 0x9f0f), sweep);
  ASSERT_TRUE(engine->AddDeployment(kServerDeployments, v100, std::move(v100_bank)).ok());

  const WorkloadInputs pool = PoolInputs(Reference());
  const WorkloadInputs hyperscale = HyperscaleInputs(Reference(), 3);
  maya::Result<WorkloadInputs> traces = TracePredictInputs(Reference(), 3, 1.0);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  // A feasible and an OOM pool config, one hyperscale config, one trace.
  std::vector<std::string> lines;
  for (bool want_oom : {false, true}) {
    for (size_t i = 0; i < pool.lines.size(); ++i) {
      if (Reference()[static_cast<size_t>(pool.line_ref[i])].oom == want_oom) {
        lines.push_back(pool.lines[i]);
        break;
      }
    }
  }
  lines.push_back(hyperscale.lines.front());
  lines.push_back(traces->lines.front());

  SpanRecorder recorder(true);
  const ReplayResult result = Replay(*engine, lines, recorder);
  EXPECT_EQ(result.requests, lines.size());
  EXPECT_EQ(result.failures, 0u) << (result.failure_notes.empty() ? "" : result.failure_notes[0]);
  EXPECT_EQ(recorder.SelfMsPerRequest({"EmulateJob"}).size(), 3u);
  EXPECT_EQ(recorder.SelfMsPerRequest({"MayaPipeline::Simulate"}).size(), 3u);
  EXPECT_EQ(recorder.SelfMsPerRequest({"ParseServiceRequest"}).size(), lines.size());
}

}  // namespace
}  // namespace perfbench
