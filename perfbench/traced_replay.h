// The benchmark's traced run: replays request lines in process with spans
// around the public entry point of each layer. Spans are recorded here, in
// the benchmark, never inside src/.
#ifndef PERFBENCH_TRACED_REPLAY_H_
#define PERFBENCH_TRACED_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/pipeline.h"
#include "src/service/service_engine.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the recorder's spans, or -1 for a root
  uint64_t request = 0;
};

// Spans kept in memory until the run ends. A disabled recorder never reads
// the clock, so the untraced replay runs the same code without its cost.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent, uint64_t request);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  // Per request, the summed self time (ms) of the spans with any of `names`:
  // their duration minus the part their child spans cover.
  std::vector<double> SelfMsPerRequest(const std::vector<std::string>& names) const;
  // Total self time (ms) of the spans with any of `names`.
  double TotalSelfMs(const std::vector<std::string>& names) const;
  // Duration (ms) of each span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  maya::Status WriteJson(const std::string& path) const;

 private:
  std::vector<double> SelfMs() const;
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int parent, uint64_t request)
      : recorder_(recorder), span_(recorder.Begin(name, parent, request)) {}
  ~ScopedSpan() { recorder_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return span_; }

 private:
  SpanRecorder& recorder_;
  int span_;
};

// Counters recorded at the same boundaries as the spans.
struct ReplayCounters {
  std::vector<double> ranks_emulated;  // per predict that emulated
  std::vector<double> unique_workers;  // per collated predict
  std::vector<double> unique_keys;     // per annotated request
  std::vector<double> components;      // per simulated request
  uint64_t estimate_hits = 0;
  uint64_t estimate_lookups = 0;
  uint64_t sim_hits = 0;
  uint64_t sim_lookups = 0;
  // Per replayed search: trials by status, and RunSearch's wall time per
  // executed trial.
  std::vector<double> trials_executed;
  std::vector<double> trials_cached;
  std::vector<double> trials_pruned;
  std::vector<double> trial_ms;
  // The searches' own stage timings, summed over their executed trials
  // (RunSearch is one span; the stages inside it are not traced).
  maya::StageTimings search_stages;
  uint64_t search_trials = 0;
};

struct ReplayResult {
  // Wall time of the requests themselves, without the reference check.
  double wall_s = 0.0;
  uint64_t requests = 0;
  // Lines that failed to parse or execute, and predicts whose composed
  // stages did not reproduce MayaPipeline::Predict bit for bit.
  uint64_t failures = 0;
  std::vector<std::string> failure_notes;
  ReplayCounters counters;
};

// Replays `lines` against the engine's deployments. A predict is composed
// from EmulateJob, TraceCollator::Collate, MayaPipeline::AnnotateDurations and
// MayaPipeline::Simulate the way MayaPipeline::Predict composes them, then,
// outside its spans, checked against Predict on a copy of the deployment's
// pipeline with every cache off, so the check recomputes all four stages. A
// trace_predict runs the last two stages; a search runs RunSearch.
ReplayResult Replay(const maya::ServiceEngine& engine, const std::vector<std::string>& lines,
                    SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_REPLAY_H_
