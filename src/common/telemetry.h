// Low-overhead, thread-safe tracing + metrics layer for the serving stack.
//
// Tracing: every service request is assigned a trace id at admission; scoped
// spans wrap queue wait, each pipeline stage and thread-pool tasks (the
// span context is propagated across ThreadPool::ParallelFor). Events are
// PODs buffered in per-thread ring buffers — span names must be string
// literals (static lifetime), no allocation happens on the record path —
// and are exportable as Chrome
// trace-event JSON (openable in Perfetto / chrome://tracing).
//
// Metrics: a process-wide registry of named counters, gauges and
// log-bucketed latency histograms. Histogram percentiles follow the
// linear-interpolation semantics of Percentile() in src/common/stats.h,
// applied within the bucket that straddles the requested rank.
//
// Disabled-by-default guarantee: when telemetry is not configured, a span
// site costs one relaxed atomic load and a branch (no clock read, no TLS
// ring access) so instrumented hot paths stay benchmark-neutral.
#ifndef SRC_COMMON_TELEMETRY_H_
#define SRC_COMMON_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace maya {

// ---- Metric primitives ----------------------------------------------------

class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed log-spaced buckets: bucket i covers (bound(i-1), bound(i)] with
// bound(i) = 2^((i+1)/2) microseconds, i.e. two buckets per doubling from
// ~1.4us up to ~2^23.5us (~11.8s); the last bucket is an overflow catch-all.
// Recording is
// two relaxed atomic adds; Percentile() interpolates linearly inside the
// straddling bucket, matching the rank convention of stats.h Percentile()
// (rank = p/100 * (count-1)).
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 48;

  // Upper bound of bucket i in microseconds (+inf for the last bucket).
  static double BucketBound(size_t i);

  void Record(double value_us);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Linear-interpolation percentile estimate, p in [0, 100]. Empty returns 0.
  double Percentile(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_us_{0.0};
};

// ---- Snapshot / exposition ------------------------------------------------

enum class MetricType { kCounter, kGauge, kHistogram };

struct MetricBucket {
  double le = 0.0;     // upper bound (microseconds); last bucket uses +inf
  uint64_t count = 0;  // per-bucket (non-cumulative) count
};

// One labelled sample of a family. `labels` is the Prometheus label body
// without braces (e.g. `kind="predict"`), empty for unlabelled series.
struct MetricSeries {
  std::string labels;
  double value = 0.0;  // counter / gauge
  // Histogram-only fields.
  uint64_t count = 0;
  double sum_us = 0.0;
  std::vector<MetricBucket> buckets;  // zero-count buckets omitted
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct MetricFamily {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  std::vector<MetricSeries> series;
};

using MetricsReport = std::vector<MetricFamily>;

// Snapshot of one histogram as a MetricSeries (labels left empty).
MetricSeries HistogramSeries(const LatencyHistogram& histogram);

// Renders a report in the Prometheus text exposition format (families in
// report order; `# HELP`/`# TYPE` headers, cumulative `_bucket{le=...}`
// lines plus `_sum`/`_count` for histograms).
std::string RenderPrometheus(const MetricsReport& report);

// ---- Registry -------------------------------------------------------------

// Process-wide registry. Lookup is mutex-protected and returns references
// that stay valid for the process lifetime; callers should look up once and
// cache the reference on hot paths. `name` may embed Prometheus labels:
// `maya_faults_total{site="service.submit"}` registers a labelled series
// under family `maya_faults_total`.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  LatencyHistogram& GetHistogram(const std::string& name,
                                 const std::string& help = "");

  // Snapshot of every registered metric, families sorted by name and series
  // sorted by label body (deterministic exposition).
  MetricsReport Collect() const;

  // Drops every registered metric. Only for test isolation: references
  // handed out earlier dangle afterwards, so never call while another
  // thread may still be recording.
  void ResetForTest();

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& GetEntry(const std::string& name, MetricType type,
                  const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

// ---- Tracing --------------------------------------------------------------

// One completed span. `name` and `category` must point at string literals
// (or other static-lifetime storage): events outlive the code that records
// them and the ring never copies strings.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t trace_id = 0;  // 0 = outside any request
  uint64_t conn_id = 0;   // submitting TCP connection; 0 = stdio/in-process
  double ts_us = 0.0;     // start, relative to the telemetry epoch
  double dur_us = 0.0;
  uint32_t tid = 0;  // small dense id assigned per recording thread
};

// Per-thread span context: which request's trace the current thread is
// working for. Propagated across ThreadPool::ParallelFor tasks.
struct TraceContext {
  uint64_t trace_id = 0;
  // Connection id the enclosing request arrived on (the TCP server sets it
  // around Submit; workers restore it with the trace id), so Chrome traces
  // can attribute spans to connections.
  uint64_t conn_id = 0;
};

class Telemetry {
 public:
  struct Options {
    // Record spans for every request (full tracing).
    bool tracing = false;
    // Requests slower than this emit their span tree to the trace sink
    // automatically; <= 0 disables slow-request accounting. Spans are
    // recorded whenever tracing is on OR this threshold is set.
    double slow_request_threshold_ms = 0.0;
    // Ring capacity (events) per recording thread; oldest events are
    // overwritten once full.
    size_t ring_capacity = 1 << 14;
  };

  // Leaky singleton: safe to touch from detached threads during shutdown.
  static Telemetry& Instance();

  // True iff span sites should record. The one-relaxed-load fast path —
  // ScopedSpan checks this before doing any other work.
  static bool IsActive() {
    return g_active.load(std::memory_order_relaxed);
  }

  // (Re)configures telemetry and clears previously buffered events.
  void Configure(const Options& options);
  // Stops recording and drops buffered events and slow-trace state.
  void Disable();

  bool tracing_enabled() const;
  double slow_request_threshold_ms() const;

  // Fresh nonzero trace id for a newly admitted request.
  uint64_t NextTraceId() { return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // Microseconds since the telemetry epoch (process start).
  static double NowUs();

  // Appends to the calling thread's ring (no-op when inactive).
  void Record(TraceEvent event);

  // Thread-local span context.
  static TraceContext CurrentContext();
  static void SetContext(const TraceContext& context);

  // Called once per finished request. When slow-request accounting is
  // armed and latency_ms crosses the threshold, the trace id is retained
  // (so slow-only exports keep its spans) and the sink, if set, receives
  // the request's span tree as Chrome trace JSON. Returns true iff the
  // request was accounted slow.
  bool OnRequestComplete(uint64_t trace_id, double latency_ms);

  // Sink invoked from OnRequestComplete for slow requests.
  using TraceSink = std::function<void(uint64_t trace_id, const std::string& trace_json)>;
  void SetTraceSink(TraceSink sink);

  // Chrome trace-event JSON ({"traceEvents":[...]}) of buffered events,
  // oldest first. trace_id_filter != 0 exports only that trace; otherwise,
  // when full tracing is off but slow accounting is on, only retained
  // (slow) traces are exported. `exported_events`, when non-null, receives
  // the number of events in the emitted JSON.
  std::string ExportChromeTrace(uint64_t trace_id_filter = 0,
                                size_t* exported_events = nullptr) const;

  // All buffered events, oldest first (test hook).
  std::vector<TraceEvent> SnapshotEvents() const;
  size_t buffered_events() const;
  uint64_t dropped_events() const;
  uint64_t slow_requests() const { return slow_requests_.load(std::memory_order_relaxed); }

 private:
  struct ThreadBuffer;

  Telemetry() = default;

  ThreadBuffer* BufferForThisThread();
  void CollectEvents(std::vector<TraceEvent>* out) const;
  bool ShouldExport(uint64_t event_trace_id, uint64_t trace_id_filter) const;

  static std::atomic<bool> g_active;

  mutable std::mutex mutex_;  // guards options_, buffers_, retained_, sink_
  Options options_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<uint64_t> retained_slow_ids_;  // bounded, most recent last
  TraceSink sink_;
  std::atomic<uint64_t> next_trace_id_{0};
  std::atomic<uint64_t> slow_requests_{0};
};

// RAII span. Construction snapshots the clock and the current thread's
// trace context; destruction records the completed event. Near-free when
// telemetry is inactive.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "maya") {
    if (!Telemetry::IsActive()) {
      return;
    }
    Begin(name, category);
  }
  ~ScopedSpan() {
    if (armed_) {
      End();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name, const char* category);
  void End();

  bool armed_ = false;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t conn_id_ = 0;
  double start_us_ = 0.0;
};

// RAII trace-context adoption: sets the calling thread's context for the
// scope and restores the previous one on exit. Used by ThreadPool to carry
// the submitting thread's context into pool tasks.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context)
      : previous_(Telemetry::CurrentContext()) {
    Telemetry::SetContext(context);
  }
  ~ScopedTraceContext() { Telemetry::SetContext(previous_); }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

}  // namespace maya

#endif  // SRC_COMMON_TELEMETRY_H_
