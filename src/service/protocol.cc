#include "src/service/protocol.h"

#include <limits>

#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

Result<ModelFamily> ModelFamilyFromName(const std::string& name) {
  static constexpr ModelFamily kAll[] = {ModelFamily::kGpt, ModelFamily::kBert, ModelFamily::kT5,
                                         ModelFamily::kVit, ModelFamily::kResNet};
  for (ModelFamily family : kAll) {
    if (name == ModelFamilyName(family)) {
      return family;
    }
  }
  return Status::InvalidArgument("unknown model family '" + name + "'");
}

Result<ParallelFramework> ParallelFrameworkFromName(const std::string& name) {
  static constexpr ParallelFramework kAll[] = {ParallelFramework::kMegatron,
                                               ParallelFramework::kDdp, ParallelFramework::kFsdp,
                                               ParallelFramework::kDeepSpeed};
  for (ParallelFramework framework : kAll) {
    if (name == ParallelFrameworkName(framework)) {
      return framework;
    }
  }
  return Status::InvalidArgument("unknown parallel framework '" + name + "'");
}

Result<GpuArch> GpuArchFromName(const std::string& name) {
  static constexpr GpuArch kAll[] = {GpuArch::kV100, GpuArch::kH100, GpuArch::kA40};
  for (GpuArch arch : kAll) {
    if (name == GpuArchName(arch)) {
      return arch;
    }
  }
  return Status::InvalidArgument("unknown GPU arch '" + name + "'");
}

Result<IntraNodeFabric> IntraNodeFabricFromName(const std::string& name) {
  static constexpr IntraNodeFabric kAll[] = {
      IntraNodeFabric::kNvSwitch, IntraNodeFabric::kCubeMesh, IntraNodeFabric::kPairwiseNvlink};
  for (IntraNodeFabric fabric : kAll) {
    if (name == IntraNodeFabricName(fabric)) {
      return fabric;
    }
  }
  return Status::InvalidArgument("unknown intra-node fabric '" + name + "'");
}

Result<InterNodeFabric> InterNodeFabricFromName(const std::string& name) {
  static constexpr InterNodeFabric kAll[] = {InterNodeFabric::kInfiniBand, InterNodeFabric::kRoCE,
                                             InterNodeFabric::kEthernet, InterNodeFabric::kNone};
  for (InterNodeFabric fabric : kAll) {
    if (name == InterNodeFabricName(fabric)) {
      return fabric;
    }
  }
  return Status::InvalidArgument("unknown inter-node fabric '" + name + "'");
}

// ---- Field readers -------------------------------------------------------------
//
// Answers and requests are bytes off the network: a missing or mistyped key
// is InvalidArgument naming the key, never a CHECK abort (JsonValue::at and
// the As* accessors).

// A failure reading the value of key `key`, with the key named.
Status KeyError(const char* key, const Status& status) {
  return Status::InvalidArgument(std::string("key '") + key + "': " + status.message());
}

// Reads required key `key` of `object` through `parse`: a To* accessor or a
// nested record parser.
template <typename Parse>
auto ReadKey(const JsonValue& object, const char* key, Parse parse) -> decltype(parse(object)) {
  MAYA_RETURN_IF_ERROR(RequireKeys(object, {key}));
  auto value = parse(object.at(key));
  if (!value.ok()) {
    return KeyError(key, value.status());
  }
  return value;
}

// Optional key: `out` keeps its value when the key is absent.
template <typename T, typename Parse>
Status ReadOptionalKey(const JsonValue& object, const char* key, Parse parse, T& out) {
  if (object.Has(key)) {
    MAYA_ASSIGN_OR_RETURN(out, ReadKey(object, key, parse));
  }
  return Status::Ok();
}

// Required array key, each element read through `parse`.
template <typename T, typename Parse>
Status ReadArrayKey(const JsonValue& object, const char* key, Parse parse, std::vector<T>& out) {
  MAYA_ASSIGN_OR_RETURN(const JsonArray* items, ReadKey(object, key, ToArray));
  out.reserve(items->size());
  for (const JsonValue& item : *items) {
    auto value = parse(item);
    if (!value.ok()) {
      return KeyError(key, value.status());
    }
    out.push_back(*std::move(value));
  }
  return Status::Ok();
}

Result<int> ToInt32(const JsonValue& value) {
  MAYA_ASSIGN_OR_RETURN(const int64_t wide, ToInt(value));
  if (wide < std::numeric_limits<int>::min() || wide > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("integer out of range");
  }
  return static_cast<int>(wide);
}

// A double carried bit-exactly as a hex string (DoubleBits).
Result<double> ToHexDouble(const JsonValue& value) {
  MAYA_ASSIGN_OR_RETURN(const std::string hex, ToString(value));
  return DoubleFromBits(hex);
}

// Reads the launch-mode knob: `virtual_folds`, else its retired alias
// `selective_launch`, which is parsed but never written. The value present
// is assigned (false asks for full emulation); with neither key the payload
// keeps its default, virtual folds.
Status ParseVirtualFolds(const JsonValue& root, bool& virtual_folds) {
  for (const char* key : {"virtual_folds", "selective_launch"}) {
    if (root.Has(key)) {
      MAYA_ASSIGN_OR_RETURN(virtual_folds, ReadKey(root, key, ToBool));
      return Status::Ok();
    }
  }
  return Status::Ok();
}

void WriteSearchOptions(JsonWriter& w, const SearchOptions& options) {
  w.BeginObject();
  w.Field("algorithm", std::string_view(options.algorithm));
  w.Field("sample_budget", static_cast<int64_t>(options.sample_budget));
  w.Field("enable_pruning", options.enable_pruning);
  w.Field("enable_cache", options.enable_cache);
  w.Field("deduplicate_workers", options.deduplicate_workers);
  w.Field("virtual_folds", options.virtual_folds);
  w.Field("concurrency", static_cast<int64_t>(options.concurrency));
  w.Field("early_stop_patience", static_cast<int64_t>(options.early_stop_patience));
  w.Field("seed", options.seed);
  w.EndObject();
}

Result<SearchOptions> ParseSearchOptions(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("search options must be an object");
  }
  SearchOptions options;
  if (value.Has("algorithm")) {
    MAYA_ASSIGN_OR_RETURN(options.algorithm, ToString(value.at("algorithm")));
  }
  int64_t field = 0;
  if (value.Has("sample_budget")) {
    MAYA_ASSIGN_OR_RETURN(field, ToInt(value.at("sample_budget")));
    options.sample_budget = static_cast<int>(field);
  }
  if (value.Has("enable_pruning")) {
    MAYA_ASSIGN_OR_RETURN(options.enable_pruning, ToBool(value.at("enable_pruning")));
  }
  if (value.Has("enable_cache")) {
    MAYA_ASSIGN_OR_RETURN(options.enable_cache, ToBool(value.at("enable_cache")));
  }
  if (value.Has("deduplicate_workers")) {
    MAYA_ASSIGN_OR_RETURN(options.deduplicate_workers,
                          ToBool(value.at("deduplicate_workers")));
  }
  MAYA_RETURN_IF_ERROR(ParseVirtualFolds(value, options.virtual_folds));
  if (value.Has("concurrency")) {
    MAYA_ASSIGN_OR_RETURN(field, ToInt(value.at("concurrency")));
    options.concurrency = static_cast<int>(field);
  }
  if (value.Has("early_stop_patience")) {
    MAYA_ASSIGN_OR_RETURN(field, ToInt(value.at("early_stop_patience")));
    options.early_stop_patience = static_cast<int>(field);
  }
  if (value.Has("seed")) {
    MAYA_ASSIGN_OR_RETURN(options.seed, ToUint(value.at("seed")));
  }
  return options;
}

void WriteEstimationStats(JsonWriter& w, const EstimationStats& stats) {
  w.BeginObject();
  w.Field("kernel_ops", stats.kernel_ops);
  w.Field("unique_kernels", stats.unique_kernels);
  w.Field("collective_ops", stats.collective_ops);
  w.Field("unique_collectives", stats.unique_collectives);
  w.Field("cache_hits", stats.cache_hits);
  w.Field("cache_misses", stats.cache_misses);
  w.Field("hit_rate", stats.hit_rate());
  w.EndObject();
}

Result<EstimationStats> ParseEstimationStats(const JsonValue& value) {
  EstimationStats stats;
  MAYA_ASSIGN_OR_RETURN(stats.kernel_ops, ReadKey(value, "kernel_ops", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.unique_kernels, ReadKey(value, "unique_kernels", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.collective_ops, ReadKey(value, "collective_ops", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.unique_collectives,
                        ReadKey(value, "unique_collectives", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.cache_hits, ReadKey(value, "cache_hits", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.cache_misses, ReadKey(value, "cache_misses", ToUint));
  return stats;
}

void WriteSimulationStats(JsonWriter& w, const SimulationStats& stats) {
  w.BeginObject();
  w.Field("workers", stats.workers);
  w.Field("components", stats.components);
  w.Field("cache_hits", stats.cache_hits);
  w.Field("cache_misses", stats.cache_misses);
  w.Field("hit_rate", stats.hit_rate());
  w.EndObject();
}

Result<SimulationStats> ParseSimulationStats(const JsonValue& value) {
  SimulationStats stats;
  MAYA_ASSIGN_OR_RETURN(stats.workers, ReadKey(value, "workers", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.components, ReadKey(value, "components", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.cache_hits, ReadKey(value, "cache_hits", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.cache_misses, ReadKey(value, "cache_misses", ToUint));
  return stats;
}

void WriteStageTotals(JsonWriter& w, const StageTimings& totals) {
  w.BeginObject();
  w.Field("emulation", totals.emulation_ms);
  w.Field("collation", totals.collation_ms);
  w.Field("estimation", totals.estimation_ms);
  w.Field("simulation", totals.simulation_ms);
  w.EndObject();
}

Result<StageTimings> ParseStageTotals(const JsonValue& value) {
  StageTimings totals;
  MAYA_ASSIGN_OR_RETURN(totals.emulation_ms, ReadKey(value, "emulation", ToNumber));
  MAYA_ASSIGN_OR_RETURN(totals.collation_ms, ReadKey(value, "collation", ToNumber));
  MAYA_ASSIGN_OR_RETURN(totals.estimation_ms, ReadKey(value, "estimation", ToNumber));
  MAYA_ASSIGN_OR_RETURN(totals.simulation_ms, ReadKey(value, "simulation", ToNumber));
  return totals;
}

void WriteCacheStats(JsonWriter& w, const ShardedCacheStats& stats) {
  w.BeginObject();
  w.Field("hits", stats.hits);
  w.Field("misses", stats.misses);
  w.Field("insertions", stats.insertions);
  w.Field("evictions", stats.evictions);
  w.Field("entries", stats.entries);
  w.EndObject();
}

Result<ShardedCacheStats> ParseCacheStats(const JsonValue& value) {
  ShardedCacheStats stats;
  MAYA_ASSIGN_OR_RETURN(stats.hits, ReadKey(value, "hits", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.misses, ReadKey(value, "misses", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.insertions, ReadKey(value, "insertions", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.evictions, ReadKey(value, "evictions", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.entries, ReadKey(value, "entries", ToUint));
  return stats;
}

void WriteLatencyPercentiles(JsonWriter& w, const LatencyPercentiles& p) {
  w.BeginObject();
  w.Field("count", p.count);
  w.Field("p50_us", p.p50_us);
  w.Field("p95_us", p.p95_us);
  w.Field("p99_us", p.p99_us);
  w.EndObject();
}

Result<LatencyPercentiles> ParseLatencyPercentiles(const JsonValue& value) {
  LatencyPercentiles p;
  MAYA_ASSIGN_OR_RETURN(p.count, ReadKey(value, "count", ToUint));
  MAYA_ASSIGN_OR_RETURN(p.p50_us, ReadKey(value, "p50_us", ToNumber));
  MAYA_ASSIGN_OR_RETURN(p.p95_us, ReadKey(value, "p95_us", ToNumber));
  MAYA_ASSIGN_OR_RETURN(p.p99_us, ReadKey(value, "p99_us", ToNumber));
  return p;
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

Result<MetricType> MetricTypeFromName(const std::string& name) {
  if (name == "counter") {
    return MetricType::kCounter;
  }
  if (name == "gauge") {
    return MetricType::kGauge;
  }
  if (name == "histogram") {
    return MetricType::kHistogram;
  }
  return Status::InvalidArgument("unknown metric type '" + name + "'");
}

void WriteMetricsReport(JsonWriter& w, const MetricsReport& report) {
  w.BeginArray();
  for (const MetricFamily& family : report) {
    w.BeginObject();
    w.Field("name", std::string_view(family.name));
    w.Field("type", std::string_view(MetricTypeName(family.type)));
    if (!family.help.empty()) {
      w.Field("help", std::string_view(family.help));
    }
    w.KeyedBeginArray("series");
    for (const MetricSeries& series : family.series) {
      w.BeginObject();
      if (!series.labels.empty()) {
        w.Field("labels", std::string_view(series.labels));
      }
      if (family.type == MetricType::kHistogram) {
        w.Field("count", series.count);
        w.Field("sum_us", series.sum_us);
        w.Field("p50_us", series.p50_us);
        w.Field("p95_us", series.p95_us);
        w.Field("p99_us", series.p99_us);
        w.KeyedBeginArray("buckets");
        for (const MetricBucket& bucket : series.buckets) {
          w.BeginObject();
          w.Field("le", bucket.le);
          w.Field("count", bucket.count);
          w.EndObject();
        }
        w.EndArray();
      } else {
        w.Field("value", series.value);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
}

Result<MetricsReport> ParseMetricsReport(const JsonValue& value) {
  MetricsReport report;
  const JsonArray* families = nullptr;
  MAYA_ASSIGN_OR_RETURN(families, ToArray(value));
  report.reserve(families->size());
  for (const JsonValue& family_value : *families) {
    MAYA_RETURN_IF_ERROR(RequireKeys(family_value, {"name", "type", "series"}));
    MetricFamily family;
    MAYA_ASSIGN_OR_RETURN(family.name, ToString(family_value.at("name")));
    std::string type_name;
    MAYA_ASSIGN_OR_RETURN(type_name, ToString(family_value.at("type")));
    MAYA_ASSIGN_OR_RETURN(family.type, MetricTypeFromName(type_name));
    if (family_value.Has("help")) {
      MAYA_ASSIGN_OR_RETURN(family.help, ToString(family_value.at("help")));
    }
    const JsonArray* series_array = nullptr;
    MAYA_ASSIGN_OR_RETURN(series_array, ToArray(family_value.at("series")));
    for (const JsonValue& series_value : *series_array) {
      MetricSeries series;
      if (series_value.Has("labels")) {
        MAYA_ASSIGN_OR_RETURN(series.labels, ToString(series_value.at("labels")));
      }
      if (family.type == MetricType::kHistogram) {
        MAYA_RETURN_IF_ERROR(
            RequireKeys(series_value, {"count", "sum_us", "p50_us", "p95_us", "p99_us",
                                       "buckets"}));
        MAYA_ASSIGN_OR_RETURN(series.count, ToUint(series_value.at("count")));
        MAYA_ASSIGN_OR_RETURN(series.sum_us, ToNumber(series_value.at("sum_us")));
        MAYA_ASSIGN_OR_RETURN(series.p50_us, ToNumber(series_value.at("p50_us")));
        MAYA_ASSIGN_OR_RETURN(series.p95_us, ToNumber(series_value.at("p95_us")));
        MAYA_ASSIGN_OR_RETURN(series.p99_us, ToNumber(series_value.at("p99_us")));
        const JsonArray* buckets = nullptr;
        MAYA_ASSIGN_OR_RETURN(buckets, ToArray(series_value.at("buckets")));
        for (const JsonValue& bucket_value : *buckets) {
          MAYA_RETURN_IF_ERROR(RequireKeys(bucket_value, {"le", "count"}));
          MetricBucket bucket;
          MAYA_ASSIGN_OR_RETURN(bucket.le, ToNumber(bucket_value.at("le")));
          MAYA_ASSIGN_OR_RETURN(bucket.count, ToUint(bucket_value.at("count")));
          series.buckets.push_back(bucket);
        }
      } else {
        MAYA_RETURN_IF_ERROR(RequireKeys(series_value, {"value"}));
        MAYA_ASSIGN_OR_RETURN(series.value, ToNumber(series_value.at("value")));
      }
      family.series.push_back(std::move(series));
    }
    report.push_back(std::move(family));
  }
  return report;
}

// ---- Request payload field groups ------------------------------------------

// The shared (model, config, knobs, deployment) block of predict-like
// payloads; `T` is PredictPayload, WhatIfOomPayload or BatchPredictPayload.
template <typename T>
void WritePredictLikeCommon(JsonWriter& w, const T& payload) {
  w.Field("deduplicate_workers", payload.deduplicate_workers);
  w.Field("virtual_folds", payload.virtual_folds);
  if (!payload.deployment.empty()) {
    w.Field("deployment", std::string_view(payload.deployment));
  }
}

template <typename T>
Status ParsePredictLikeCommon(const JsonValue& root, T& payload) {
  if (root.Has("deduplicate_workers")) {
    MAYA_ASSIGN_OR_RETURN(payload.deduplicate_workers, ToBool(root.at("deduplicate_workers")));
  }
  MAYA_RETURN_IF_ERROR(ParseVirtualFolds(root, payload.virtual_folds));
  if (root.Has("deployment")) {
    MAYA_ASSIGN_OR_RETURN(payload.deployment, ToString(root.at("deployment")));
  }
  return Status::Ok();
}

Status ParseDeployment(const JsonValue& root, std::string& deployment) {
  if (root.Has("deployment")) {
    MAYA_ASSIGN_OR_RETURN(deployment, ToString(root.at("deployment")));
  }
  return Status::Ok();
}

// ---- Response body: one prediction outcome ---------------------------------

void WritePredictResultFields(JsonWriter& w, const PredictResult& result) {
  w.Field("oom", result.oom);
  if (result.oom) {
    w.Field("oom_detail", std::string_view(result.oom_detail));
  } else {
    w.Field("iteration_time_us", std::string_view(DoubleBits(result.iteration_time_us)));
    w.Field("iteration_time_us_approx", result.iteration_time_us);
    w.Field("mfu", std::string_view(DoubleBits(result.mfu)));
    w.Field("mfu_approx", result.mfu);
    w.Field("peak_memory_bytes", result.peak_memory_bytes);
  }
  w.Field("emulation_ms", result.timings.emulation_ms);
  w.Field("collation_ms", result.timings.collation_ms);
  w.Field("estimation_ms", result.timings.estimation_ms);
  w.Field("simulation_ms", result.timings.simulation_ms);
  w.Key("estimation");
  WriteEstimationStats(w, result.estimation);
  w.Key("simulation");
  WriteSimulationStats(w, result.simulation);
  w.Field("trace_cache_hit", result.trace_cache_hit);
}

// The four per-stage wall times of a predict-like or search answer.
Status ParseStageMs(const JsonValue& root, StageTimings& timings) {
  MAYA_ASSIGN_OR_RETURN(timings.emulation_ms, ReadKey(root, "emulation_ms", ToNumber));
  MAYA_ASSIGN_OR_RETURN(timings.collation_ms, ReadKey(root, "collation_ms", ToNumber));
  MAYA_ASSIGN_OR_RETURN(timings.estimation_ms, ReadKey(root, "estimation_ms", ToNumber));
  MAYA_ASSIGN_OR_RETURN(timings.simulation_ms, ReadKey(root, "simulation_ms", ToNumber));
  return Status::Ok();
}

Result<PredictResult> ParsePredictResultFields(const JsonValue& root) {
  PredictResult result;
  MAYA_ASSIGN_OR_RETURN(result.oom, ReadKey(root, "oom", ToBool));
  if (result.oom) {
    MAYA_ASSIGN_OR_RETURN(result.oom_detail, ReadKey(root, "oom_detail", ToString));
  } else {
    MAYA_ASSIGN_OR_RETURN(result.iteration_time_us,
                          ReadKey(root, "iteration_time_us", ToHexDouble));
    MAYA_ASSIGN_OR_RETURN(result.mfu, ReadKey(root, "mfu", ToHexDouble));
    MAYA_ASSIGN_OR_RETURN(result.peak_memory_bytes, ReadKey(root, "peak_memory_bytes", ToUint));
  }
  MAYA_RETURN_IF_ERROR(ParseStageMs(root, result.timings));
  MAYA_ASSIGN_OR_RETURN(result.estimation, ReadKey(root, "estimation", ParseEstimationStats));
  MAYA_RETURN_IF_ERROR(
      ReadOptionalKey(root, "simulation", ParseSimulationStats, result.simulation));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "trace_cache_hit", ToBool, result.trace_cache_hit));
  return result;
}

Result<DeploymentStats> ParseDeploymentStats(const JsonValue& entry) {
  DeploymentStats deployment;
  MAYA_ASSIGN_OR_RETURN(deployment.name, ReadKey(entry, "name", ToString));
  MAYA_ASSIGN_OR_RETURN(deployment.derived, ReadKey(entry, "derived", ToBool));
  MAYA_ASSIGN_OR_RETURN(deployment.timed_requests, ReadKey(entry, "timed_requests", ToUint));
  // Optional for compatibility with pre-governance servers.
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(entry, "cancelled", ToUint, deployment.cancelled));
  MAYA_RETURN_IF_ERROR(
      ReadOptionalKey(entry, "deadline_expired", ToUint, deployment.deadline_expired));
  MAYA_ASSIGN_OR_RETURN(deployment.stage_totals,
                        ReadKey(entry, "stage_totals_ms", ParseStageTotals));
  MAYA_ASSIGN_OR_RETURN(deployment.kernel_cache, ReadKey(entry, "kernel_cache", ParseCacheStats));
  MAYA_ASSIGN_OR_RETURN(deployment.collective_cache,
                        ReadKey(entry, "collective_cache", ParseCacheStats));
  MAYA_ASSIGN_OR_RETURN(deployment.trace_cache, ReadKey(entry, "trace_cache", ParseCacheStats));
  MAYA_ASSIGN_OR_RETURN(deployment.sim_cache, ReadKey(entry, "sim_cache", ParseCacheStats));
  return deployment;
}

Result<KindLatencyStats> ParseKindLatencyStats(const JsonValue& entry) {
  KindLatencyStats latency;
  MAYA_ASSIGN_OR_RETURN(latency.kind, ReadKey(entry, "kind", ToString));
  MAYA_ASSIGN_OR_RETURN(latency.queue_wait,
                        ReadKey(entry, "queue_wait_us", ParseLatencyPercentiles));
  MAYA_ASSIGN_OR_RETURN(latency.latency, ReadKey(entry, "latency_us", ParseLatencyPercentiles));
  return latency;
}

Status ParseSearchResult(const JsonValue& root, ServiceResponse& response) {
  MAYA_ASSIGN_OR_RETURN(response.found, ReadKey(root, "found", ToBool));
  if (response.found) {
    MAYA_ASSIGN_OR_RETURN(response.best_config, ReadKey(root, "best_config", ParseTrainConfig));
    MAYA_ASSIGN_OR_RETURN(response.best_mfu, ReadKey(root, "best_mfu", ToHexDouble));
    MAYA_ASSIGN_OR_RETURN(response.best_iteration_us,
                          ReadKey(root, "best_iteration_us", ToHexDouble));
  }
  MAYA_ASSIGN_OR_RETURN(response.samples, ReadKey(root, "samples", ToInt32));
  MAYA_ASSIGN_OR_RETURN(response.executed, ReadKey(root, "executed", ToInt32));
  MAYA_ASSIGN_OR_RETURN(response.cached, ReadKey(root, "cached", ToInt32));
  MAYA_ASSIGN_OR_RETURN(response.skipped, ReadKey(root, "skipped", ToInt32));
  MAYA_ASSIGN_OR_RETURN(response.search_oom, ReadKey(root, "oom_trials", ToInt32));
  if (root.Has("emulation_ms")) {
    MAYA_RETURN_IF_ERROR(ParseStageMs(root, response.timings));
  }
  MAYA_ASSIGN_OR_RETURN(response.estimation, ReadKey(root, "estimation", ParseEstimationStats));
  return ReadOptionalKey(root, "simulation", ParseSimulationStats, response.simulation);
}

Status ParseStatsResult(const JsonValue& root, ServiceStats& stats) {
  MAYA_ASSIGN_OR_RETURN(stats.submitted, ReadKey(root, "submitted", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.completed, ReadKey(root, "completed", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.rejected, ReadKey(root, "rejected", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.cancelled, ReadKey(root, "cancelled", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.deadline_expired, ReadKey(root, "deadline_expired", ToUint));
  MAYA_ASSIGN_OR_RETURN(stats.queue_depth, ReadKey(root, "queue_depth", ToUint));
  if (root.Has("queued_weight")) {
    MAYA_ASSIGN_OR_RETURN(stats.queued_weight, ReadKey(root, "queued_weight", ToNumber));
    MAYA_ASSIGN_OR_RETURN(stats.max_queue_weight, ReadKey(root, "max_queue_weight", ToNumber));
  }
  if (root.Has("deployments")) {
    MAYA_RETURN_IF_ERROR(ReadArrayKey(root, "deployments", ToString, stats.deployments));
    MAYA_ASSIGN_OR_RETURN(stats.registered_deployments,
                          ReadKey(root, "registered_deployments", ToUint));
    MAYA_ASSIGN_OR_RETURN(stats.derived_deployments,
                          ReadKey(root, "derived_deployments", ToUint));
  }
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "timed_requests", ToUint, stats.timed_requests));
  MAYA_RETURN_IF_ERROR(
      ReadOptionalKey(root, "stage_totals_ms", ParseStageTotals, stats.stage_totals));
  MAYA_ASSIGN_OR_RETURN(stats.kernel_cache, ReadKey(root, "kernel_cache", ParseCacheStats));
  MAYA_ASSIGN_OR_RETURN(stats.collective_cache,
                        ReadKey(root, "collective_cache", ParseCacheStats));
  MAYA_ASSIGN_OR_RETURN(stats.trace_cache, ReadKey(root, "trace_cache", ParseCacheStats));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "sim_cache", ParseCacheStats, stats.sim_cache));
  if (root.Has("per_deployment")) {
    MAYA_RETURN_IF_ERROR(
        ReadArrayKey(root, "per_deployment", ParseDeploymentStats, stats.per_deployment));
  }
  if (root.Has("latency")) {
    MAYA_RETURN_IF_ERROR(ReadArrayKey(root, "latency", ParseKindLatencyStats, stats.latency));
  }
  return Status::Ok();
}

Status ParseHealthResult(const JsonValue& root, HealthStatus& health) {
  MAYA_ASSIGN_OR_RETURN(health.live, ReadKey(root, "live", ToBool));
  MAYA_ASSIGN_OR_RETURN(health.ready, ReadKey(root, "ready", ToBool));
  MAYA_ASSIGN_OR_RETURN(health.draining, ReadKey(root, "draining", ToBool));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "journal_enabled", ToBool, health.journal_enabled));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "journal_appends", ToUint, health.journal_appends));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "journal_lag", ToUint, health.journal_lag));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "journal_append_failures", ToUint,
                                       health.journal_append_failures));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "checkpoints", ToUint, health.checkpoints));
  MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "last_checkpoint_age_s", ToNumber,
                                       health.last_checkpoint_age_s));
  MAYA_RETURN_IF_ERROR(
      ReadOptionalKey(root, "replayed_records", ToUint, health.replayed_records));
  MAYA_RETURN_IF_ERROR(
      ReadOptionalKey(root, "torn_records_dropped", ToUint, health.torn_records_dropped));
  return ReadOptionalKey(root, "queue_depth", ToUint, health.queue_depth);
}

}  // namespace

PredictResult SinglePredictResult(const ServiceResponse& response) {
  PredictResult result;
  result.oom = response.oom;
  result.oom_detail = response.oom_detail;
  result.iteration_time_us = response.iteration_time_us;
  result.mfu = response.mfu;
  result.peak_memory_bytes = response.peak_memory_bytes;
  result.timings = response.timings;
  result.estimation = response.estimation;
  result.simulation = response.simulation;
  result.trace_cache_hit = response.trace_cache_hit;
  return result;
}

void AssignPredictResult(ServiceResponse& response, const PredictResult& result) {
  response.oom = result.oom;
  response.oom_detail = result.oom_detail;
  response.iteration_time_us = result.iteration_time_us;
  response.mfu = result.mfu;
  response.peak_memory_bytes = result.peak_memory_bytes;
  response.timings = result.timings;
  response.estimation = result.estimation;
  response.simulation = result.simulation;
  response.trace_cache_hit = result.trace_cache_hit;
}

const char* ServiceRequestKindName(ServiceRequestKind kind) {
  switch (kind) {
    case ServiceRequestKind::kPredict:
      return "predict";
    case ServiceRequestKind::kBatchPredict:
      return "batch_predict";
    case ServiceRequestKind::kSearch:
      return "search";
    case ServiceRequestKind::kWhatIfOom:
      return "whatif_oom";
    case ServiceRequestKind::kTracePredict:
      return "trace_predict";
    case ServiceRequestKind::kStats:
      return "stats";
    case ServiceRequestKind::kCancel:
      return "cancel";
    case ServiceRequestKind::kMetrics:
      return "metrics";
    case ServiceRequestKind::kDumpTrace:
      return "dump_trace";
    case ServiceRequestKind::kAddDeployment:
      return "add_deployment";
    case ServiceRequestKind::kRemoveDeployment:
      return "remove_deployment";
    case ServiceRequestKind::kHealth:
      return "health";
  }
  return "unknown";
}

Result<ServiceRequestKind> ServiceRequestKindFromName(const std::string& name) {
  static constexpr ServiceRequestKind kAll[] = {
      ServiceRequestKind::kPredict,      ServiceRequestKind::kBatchPredict,
      ServiceRequestKind::kSearch,       ServiceRequestKind::kWhatIfOom,
      ServiceRequestKind::kTracePredict, ServiceRequestKind::kStats,
      ServiceRequestKind::kCancel,       ServiceRequestKind::kMetrics,
      ServiceRequestKind::kDumpTrace,    ServiceRequestKind::kAddDeployment,
      ServiceRequestKind::kRemoveDeployment, ServiceRequestKind::kHealth,
  };
  for (ServiceRequestKind kind : kAll) {
    if (name == ServiceRequestKindName(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown request kind '" + name + "'");
}

void WriteModelConfig(JsonWriter& w, const ModelConfig& model) {
  w.BeginObject();
  w.Field("name", std::string_view(model.name));
  w.Field("family", std::string_view(ModelFamilyName(model.family)));
  w.Field("num_layers", model.num_layers);
  w.Field("hidden_size", model.hidden_size);
  w.Field("num_heads", model.num_heads);
  w.Field("vocab_size", model.vocab_size);
  w.Field("seq_length", model.seq_length);
  w.Field("ffn_multiplier", model.ffn_multiplier);
  w.Field("image_size", model.image_size);
  w.Field("stem_channels", model.stem_channels);
  w.Field("num_classes", model.num_classes);
  w.KeyedBeginArray("conv_stages");
  for (const ConvStageConfig& stage : model.conv_stages) {
    w.BeginObject();
    w.Field("blocks", static_cast<int64_t>(stage.blocks));
    w.Field("channels", stage.channels);
    w.Field("stride", stage.stride);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

Result<ModelConfig> ParseModelConfig(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"name", "family"}));
  ModelConfig model;
  MAYA_ASSIGN_OR_RETURN(model.name, ToString(value.at("name")));
  std::string family_name;
  MAYA_ASSIGN_OR_RETURN(family_name, ToString(value.at("family")));
  MAYA_ASSIGN_OR_RETURN(model.family, ModelFamilyFromName(family_name));
  auto int_field = [&value](const char* key, int64_t* out) -> Status {
    if (value.Has(key)) {
      Result<int64_t> parsed = ToInt(value.at(key));
      if (!parsed.ok()) {
        return Status::InvalidArgument(std::string(key) + ": " + parsed.status().message());
      }
      *out = *parsed;
    }
    return Status::Ok();
  };
  MAYA_RETURN_IF_ERROR(int_field("num_layers", &model.num_layers));
  MAYA_RETURN_IF_ERROR(int_field("hidden_size", &model.hidden_size));
  MAYA_RETURN_IF_ERROR(int_field("num_heads", &model.num_heads));
  MAYA_RETURN_IF_ERROR(int_field("vocab_size", &model.vocab_size));
  MAYA_RETURN_IF_ERROR(int_field("seq_length", &model.seq_length));
  MAYA_RETURN_IF_ERROR(int_field("ffn_multiplier", &model.ffn_multiplier));
  MAYA_RETURN_IF_ERROR(int_field("image_size", &model.image_size));
  MAYA_RETURN_IF_ERROR(int_field("stem_channels", &model.stem_channels));
  MAYA_RETURN_IF_ERROR(int_field("num_classes", &model.num_classes));
  if (value.Has("conv_stages")) {
    const JsonArray* stages = nullptr;
    MAYA_ASSIGN_OR_RETURN(stages, ToArray(value.at("conv_stages")));
    for (const JsonValue& stage_value : *stages) {
      MAYA_RETURN_IF_ERROR(RequireKeys(stage_value, {"blocks", "channels", "stride"}));
      ConvStageConfig stage;
      int64_t blocks = 0;
      MAYA_ASSIGN_OR_RETURN(blocks, ToInt(stage_value.at("blocks")));
      stage.blocks = static_cast<int>(blocks);
      MAYA_ASSIGN_OR_RETURN(stage.channels, ToInt(stage_value.at("channels")));
      MAYA_ASSIGN_OR_RETURN(stage.stride, ToInt(stage_value.at("stride")));
      model.conv_stages.push_back(stage);
    }
  }
  return model;
}

void WriteTrainConfig(JsonWriter& w, const TrainConfig& config) {
  w.BeginObject();
  w.Field("framework", std::string_view(ParallelFrameworkName(config.framework)));
  w.Field("global_batch_size", config.global_batch_size);
  w.Field("tensor_parallel", static_cast<int64_t>(config.tensor_parallel));
  w.Field("pipeline_parallel", static_cast<int64_t>(config.pipeline_parallel));
  w.Field("microbatch_multiplier", static_cast<int64_t>(config.microbatch_multiplier));
  w.Field("virtual_pipeline_stages", static_cast<int64_t>(config.virtual_pipeline_stages));
  w.Field("sequence_parallel", config.sequence_parallel);
  w.Field("activation_recomputation", config.activation_recomputation);
  w.Field("distributed_optimizer", config.distributed_optimizer);
  w.Field("zero_stage", static_cast<int64_t>(config.zero_stage));
  w.Field("activation_offload", config.activation_offload);
  w.Field("torch_compile", config.torch_compile);
  w.EndObject();
}

Result<TrainConfig> ParseTrainConfig(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("train config must be an object");
  }
  TrainConfig config;
  if (value.Has("framework")) {
    std::string framework_name;
    MAYA_ASSIGN_OR_RETURN(framework_name, ReadKey(value, "framework", ToString));
    MAYA_ASSIGN_OR_RETURN(config.framework, ParallelFrameworkFromName(framework_name));
  }
  auto int_field = [&value](const char* key, int* out) -> Status {
    if (value.Has(key)) {
      Result<int64_t> parsed = ToInt(value.at(key));
      if (!parsed.ok()) {
        return Status::InvalidArgument(std::string(key) + ": " + parsed.status().message());
      }
      *out = static_cast<int>(*parsed);
    }
    return Status::Ok();
  };
  auto bool_field = [&value](const char* key, bool* out) -> Status {
    if (value.Has(key)) {
      Result<bool> parsed = ToBool(value.at(key));
      if (!parsed.ok()) {
        return Status::InvalidArgument(std::string(key) + ": " + parsed.status().message());
      }
      *out = *parsed;
    }
    return Status::Ok();
  };
  if (value.Has("global_batch_size")) {
    MAYA_ASSIGN_OR_RETURN(config.global_batch_size, ReadKey(value, "global_batch_size", ToInt));
  }
  MAYA_RETURN_IF_ERROR(int_field("tensor_parallel", &config.tensor_parallel));
  MAYA_RETURN_IF_ERROR(int_field("pipeline_parallel", &config.pipeline_parallel));
  MAYA_RETURN_IF_ERROR(int_field("microbatch_multiplier", &config.microbatch_multiplier));
  MAYA_RETURN_IF_ERROR(int_field("virtual_pipeline_stages", &config.virtual_pipeline_stages));
  MAYA_RETURN_IF_ERROR(bool_field("sequence_parallel", &config.sequence_parallel));
  MAYA_RETURN_IF_ERROR(
      bool_field("activation_recomputation", &config.activation_recomputation));
  MAYA_RETURN_IF_ERROR(bool_field("distributed_optimizer", &config.distributed_optimizer));
  MAYA_RETURN_IF_ERROR(int_field("zero_stage", &config.zero_stage));
  MAYA_RETURN_IF_ERROR(bool_field("activation_offload", &config.activation_offload));
  MAYA_RETURN_IF_ERROR(bool_field("torch_compile", &config.torch_compile));
  return config;
}

void WriteClusterSpec(JsonWriter& w, const ClusterSpec& cluster) {
  w.BeginObject();
  w.Field("arch", std::string_view(GpuArchName(cluster.gpu.arch)));
  w.Field("gpu_name", std::string_view(cluster.gpu.name));
  w.Field("peak_fp32_flops", cluster.gpu.peak_fp32_flops);
  w.Field("peak_tensor_flops", cluster.gpu.peak_tensor_flops);
  w.Field("hbm_bytes", cluster.gpu.hbm_bytes);
  w.Field("hbm_bandwidth", cluster.gpu.hbm_bandwidth);
  w.Field("sm_count", static_cast<int64_t>(cluster.gpu.sm_count));
  w.Field("sm_clock_ghz", cluster.gpu.sm_clock_ghz);
  w.Field("kernel_dispatch_latency_us", cluster.gpu.kernel_dispatch_latency_us);
  w.Field("gpus_per_node", static_cast<int64_t>(cluster.gpus_per_node));
  w.Field("num_nodes", static_cast<int64_t>(cluster.num_nodes));
  w.Field("intra_fabric", std::string_view(IntraNodeFabricName(cluster.intra_fabric)));
  w.Field("intra_bandwidth", cluster.intra_bandwidth);
  w.Field("intra_latency_us", cluster.intra_latency_us);
  w.Field("inter_fabric", std::string_view(InterNodeFabricName(cluster.inter_fabric)));
  w.Field("inter_bandwidth", cluster.inter_bandwidth);
  w.Field("inter_latency_us", cluster.inter_latency_us);
  w.Field("cost_per_gpu_hour", cluster.cost_per_gpu_hour);
  w.EndObject();
}

Result<ClusterSpec> ParseClusterSpec(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(
      value, {"arch", "gpu_name", "peak_fp32_flops", "peak_tensor_flops", "hbm_bytes",
              "hbm_bandwidth", "sm_count", "sm_clock_ghz", "kernel_dispatch_latency_us",
              "gpus_per_node", "num_nodes", "intra_fabric", "intra_bandwidth",
              "intra_latency_us", "inter_fabric", "inter_bandwidth", "inter_latency_us",
              "cost_per_gpu_hour"}));
  // RequireKeys guarantees presence, not type: cluster specs arrive in wire
  // requests and in on-disk manifests, so type mismatches must surface as
  // statuses (To*), never CHECK failures (As*).
  ClusterSpec cluster;
  MAYA_ASSIGN_OR_RETURN(const std::string arch_name, ToString(value.at("arch")));
  Result<GpuArch> arch = GpuArchFromName(arch_name);
  if (!arch.ok()) {
    return arch.status();
  }
  cluster.gpu.arch = *arch;
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.name, ToString(value.at("gpu_name")));
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.peak_fp32_flops, ToNumber(value.at("peak_fp32_flops")));
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.peak_tensor_flops,
                        ToNumber(value.at("peak_tensor_flops")));
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.hbm_bytes, ToUint(value.at("hbm_bytes")));
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.hbm_bandwidth, ToNumber(value.at("hbm_bandwidth")));
  MAYA_ASSIGN_OR_RETURN(const int64_t sm_count, ToInt(value.at("sm_count")));
  cluster.gpu.sm_count = static_cast<int>(sm_count);
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.sm_clock_ghz, ToNumber(value.at("sm_clock_ghz")));
  MAYA_ASSIGN_OR_RETURN(cluster.gpu.kernel_dispatch_latency_us,
                        ToNumber(value.at("kernel_dispatch_latency_us")));
  MAYA_ASSIGN_OR_RETURN(const int64_t gpus_per_node, ToInt(value.at("gpus_per_node")));
  cluster.gpus_per_node = static_cast<int>(gpus_per_node);
  MAYA_ASSIGN_OR_RETURN(const int64_t num_nodes, ToInt(value.at("num_nodes")));
  cluster.num_nodes = static_cast<int>(num_nodes);
  MAYA_ASSIGN_OR_RETURN(const std::string intra_name, ToString(value.at("intra_fabric")));
  Result<IntraNodeFabric> intra = IntraNodeFabricFromName(intra_name);
  if (!intra.ok()) {
    return intra.status();
  }
  cluster.intra_fabric = *intra;
  MAYA_ASSIGN_OR_RETURN(cluster.intra_bandwidth, ToNumber(value.at("intra_bandwidth")));
  MAYA_ASSIGN_OR_RETURN(cluster.intra_latency_us, ToNumber(value.at("intra_latency_us")));
  MAYA_ASSIGN_OR_RETURN(const std::string inter_name, ToString(value.at("inter_fabric")));
  Result<InterNodeFabric> inter = InterNodeFabricFromName(inter_name);
  if (!inter.ok()) {
    return inter.status();
  }
  cluster.inter_fabric = *inter;
  MAYA_ASSIGN_OR_RETURN(cluster.inter_bandwidth, ToNumber(value.at("inter_bandwidth")));
  MAYA_ASSIGN_OR_RETURN(cluster.inter_latency_us, ToNumber(value.at("inter_latency_us")));
  MAYA_ASSIGN_OR_RETURN(cluster.cost_per_gpu_hour, ToNumber(value.at("cost_per_gpu_hour")));
  return cluster;
}

std::string SerializeServiceRequest(const ServiceRequest& request) {
  JsonWriter w;
  w.BeginObject();
  w.Field("id", request.id);
  w.Field("kind", std::string_view(ServiceRequestKindName(request.kind())));
  if (request.deadline_ms > 0.0) {
    w.Field("deadline_ms", request.deadline_ms);
  }
  std::visit(
      [&w](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, PredictPayload> || std::is_same_v<T, WhatIfOomPayload>) {
          w.Key("model");
          WriteModelConfig(w, payload.model);
          w.Key("config");
          WriteTrainConfig(w, payload.config);
          WritePredictLikeCommon(w, payload);
        } else if constexpr (std::is_same_v<T, BatchPredictPayload>) {
          w.Key("model");
          WriteModelConfig(w, payload.model);
          w.KeyedBeginArray("configs");
          for (const TrainConfig& config : payload.configs) {
            WriteTrainConfig(w, config);
          }
          w.EndArray();
          WritePredictLikeCommon(w, payload);
        } else if constexpr (std::is_same_v<T, SearchPayload>) {
          w.Key("model");
          WriteModelConfig(w, payload.model);
          w.Key("search");
          WriteSearchOptions(w, payload.search);
          w.Field("global_batch", payload.global_batch);
          if (!payload.deployment.empty()) {
            w.Field("deployment", std::string_view(payload.deployment));
          }
        } else if constexpr (std::is_same_v<T, TracePredictPayload>) {
          // Embed the canonical job-trace serialization as a nested object.
          w.Key("trace");
          w.RawValue(SerializeJobTrace(payload.trace));
          if (!payload.deployment.empty()) {
            w.Field("deployment", std::string_view(payload.deployment));
          }
        } else if constexpr (std::is_same_v<T, CancelPayload>) {
          w.Field("target_id", payload.target_id);
        } else if constexpr (std::is_same_v<T, AddDeploymentPayload>) {
          w.Field("name", std::string_view(payload.name));
          w.Field("cluster", std::string_view(payload.cluster));
          w.Field("sweep", std::string_view(payload.sweep));
          if (!payload.bundle_dir.empty()) {
            w.Field("bundle_dir", std::string_view(payload.bundle_dir));
          }
        } else if constexpr (std::is_same_v<T, RemoveDeploymentPayload>) {
          w.Field("name", std::string_view(payload.name));
        } else {
          static_assert(std::is_same_v<T, StatsPayload> ||
                        std::is_same_v<T, MetricsPayload> ||
                        std::is_same_v<T, DumpTracePayload> ||
                        std::is_same_v<T, HealthPayload>);
        }
      },
      request.payload);
  w.EndObject();
  return w.str();
}

Result<ServiceRequest> ParseServiceRequest(const std::string& line) {
  Result<JsonValue> parsed_root = ParseJson(line);
  if (!parsed_root.ok()) {
    return parsed_root.status();
  }
  const JsonValue& root = *parsed_root;
  MAYA_RETURN_IF_ERROR(RequireKeys(root, {"id", "kind"}));
  // Typed accessors CHECK-fail on mismatches; the envelope fields come
  // straight off the wire, so validate their types before touching them.
  const Result<uint64_t> id = ToUint(root.at("id"));
  if (!id.ok()) {
    return Status::InvalidArgument("request id must be a non-negative 64-bit integer");
  }
  if (root.at("kind").type() != JsonValue::Type::kString) {
    return Status::InvalidArgument("request kind must be a string");
  }
  ServiceRequest request;
  request.id = *id;
  const std::string kind_name = root.at("kind").AsString();
  if (root.Has("deadline_ms")) {
    if (root.at("deadline_ms").type() != JsonValue::Type::kNumber) {
      return Status::InvalidArgument("deadline_ms must be a number");
    }
    request.deadline_ms = root.at("deadline_ms").AsDouble();
  }

  Result<ServiceRequestKind> kind = ServiceRequestKindFromName(kind_name);
  if (!kind.ok()) {
    return kind.status();
  }
  switch (*kind) {
    case ServiceRequestKind::kPredict:
    case ServiceRequestKind::kWhatIfOom: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"model", "config"}));
      Result<ModelConfig> model = ParseModelConfig(root.at("model"));
      if (!model.ok()) {
        return model.status();
      }
      Result<TrainConfig> config = ParseTrainConfig(root.at("config"));
      if (!config.ok()) {
        return config.status();
      }
      if (*kind == ServiceRequestKind::kPredict) {
        PredictPayload payload;
        payload.model = *std::move(model);
        payload.config = *config;
        MAYA_RETURN_IF_ERROR(ParsePredictLikeCommon(root, payload));
        request.payload = std::move(payload);
      } else {
        WhatIfOomPayload payload;
        payload.model = *std::move(model);
        payload.config = *config;
        MAYA_RETURN_IF_ERROR(ParsePredictLikeCommon(root, payload));
        request.payload = std::move(payload);
      }
      break;
    }
    case ServiceRequestKind::kBatchPredict: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"model", "configs"}));
      BatchPredictPayload payload;
      Result<ModelConfig> model = ParseModelConfig(root.at("model"));
      if (!model.ok()) {
        return model.status();
      }
      payload.model = *std::move(model);
      const JsonArray* configs = nullptr;
      MAYA_ASSIGN_OR_RETURN(configs, ToArray(root.at("configs")));
      payload.configs.reserve(configs->size());
      for (const JsonValue& config_value : *configs) {
        Result<TrainConfig> config = ParseTrainConfig(config_value);
        if (!config.ok()) {
          return config.status();
        }
        payload.configs.push_back(*config);
      }
      MAYA_RETURN_IF_ERROR(ParsePredictLikeCommon(root, payload));
      request.payload = std::move(payload);
      break;
    }
    case ServiceRequestKind::kSearch: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"model"}));
      SearchPayload payload;
      Result<ModelConfig> model = ParseModelConfig(root.at("model"));
      if (!model.ok()) {
        return model.status();
      }
      payload.model = *std::move(model);
      if (root.Has("search")) {
        Result<SearchOptions> search = ParseSearchOptions(root.at("search"));
        if (!search.ok()) {
          return search.status();
        }
        payload.search = *search;
      }
      if (root.Has("global_batch")) {
        MAYA_ASSIGN_OR_RETURN(payload.global_batch, ToInt(root.at("global_batch")));
      }
      MAYA_RETURN_IF_ERROR(ParseDeployment(root, payload.deployment));
      request.payload = std::move(payload);
      break;
    }
    case ServiceRequestKind::kTracePredict: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"trace"}));
      TracePredictPayload payload;
      Result<JobTrace> trace = ParseJobTrace(root.at("trace"));
      if (!trace.ok()) {
        return trace.status();
      }
      payload.trace = *std::move(trace);
      MAYA_RETURN_IF_ERROR(ParseDeployment(root, payload.deployment));
      request.payload = std::move(payload);
      break;
    }
    case ServiceRequestKind::kStats:
      request.payload = StatsPayload{};
      break;
    case ServiceRequestKind::kCancel: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"target_id"}));
      CancelPayload payload;
      MAYA_ASSIGN_OR_RETURN(payload.target_id, ToUint(root.at("target_id")));
      request.payload = payload;
      break;
    }
    case ServiceRequestKind::kMetrics:
      request.payload = MetricsPayload{};
      break;
    case ServiceRequestKind::kDumpTrace:
      request.payload = DumpTracePayload{};
      break;
    case ServiceRequestKind::kAddDeployment: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"name", "cluster"}));
      AddDeploymentPayload payload;
      MAYA_ASSIGN_OR_RETURN(payload.name, ToString(root.at("name")));
      MAYA_ASSIGN_OR_RETURN(payload.cluster, ToString(root.at("cluster")));
      if (root.Has("sweep")) {
        MAYA_ASSIGN_OR_RETURN(payload.sweep, ToString(root.at("sweep")));
      }
      if (root.Has("bundle_dir")) {
        MAYA_ASSIGN_OR_RETURN(payload.bundle_dir, ToString(root.at("bundle_dir")));
      }
      request.payload = std::move(payload);
      break;
    }
    case ServiceRequestKind::kRemoveDeployment: {
      MAYA_RETURN_IF_ERROR(RequireKeys(root, {"name"}));
      RemoveDeploymentPayload payload;
      MAYA_ASSIGN_OR_RETURN(payload.name, ToString(root.at("name")));
      request.payload = std::move(payload);
      break;
    }
    case ServiceRequestKind::kHealth:
      request.payload = HealthPayload{};
      break;
  }
  return request;
}

std::string SerializeServiceResponse(const ServiceResponse& response) {
  JsonWriter w;
  w.BeginObject();
  w.Field("id", response.id);
  w.Field("kind", std::string_view(ServiceRequestKindName(response.kind)));
  w.Field("ok", response.ok);
  if (!response.ok) {
    w.Field("error", std::string_view(response.error));
    w.Field("error_code", std::string_view(response.error_code));
    w.EndObject();
    return w.str();
  }
  switch (response.kind) {
    case ServiceRequestKind::kPredict:
    case ServiceRequestKind::kWhatIfOom:
    case ServiceRequestKind::kTracePredict:
      WritePredictResultFields(w, SinglePredictResult(response));
      break;
    case ServiceRequestKind::kBatchPredict:
      w.KeyedBeginArray("items");
      for (const PredictResult& item : response.batch) {
        w.BeginObject();
        WritePredictResultFields(w, item);
        w.EndObject();
      }
      w.EndArray();
      break;
    case ServiceRequestKind::kSearch:
      w.Field("found", response.found);
      if (response.found) {
        w.Key("best_config");
        WriteTrainConfig(w, response.best_config);
        w.Field("best_mfu", std::string_view(DoubleBits(response.best_mfu)));
        w.Field("best_mfu_approx", response.best_mfu);
        w.Field("best_iteration_us", std::string_view(DoubleBits(response.best_iteration_us)));
      }
      w.Field("samples", static_cast<int64_t>(response.samples));
      w.Field("executed", static_cast<int64_t>(response.executed));
      w.Field("cached", static_cast<int64_t>(response.cached));
      w.Field("skipped", static_cast<int64_t>(response.skipped));
      w.Field("oom_trials", static_cast<int64_t>(response.search_oom));
      // Summed per-trial stage timings (SearchOutcome::stage_totals).
      w.Field("emulation_ms", response.timings.emulation_ms);
      w.Field("collation_ms", response.timings.collation_ms);
      w.Field("estimation_ms", response.timings.estimation_ms);
      w.Field("simulation_ms", response.timings.simulation_ms);
      w.Key("estimation");
      WriteEstimationStats(w, response.estimation);
      w.Key("simulation");
      WriteSimulationStats(w, response.simulation);
      break;
    case ServiceRequestKind::kStats:
      w.Field("submitted", response.stats.submitted);
      w.Field("completed", response.stats.completed);
      w.Field("rejected", response.stats.rejected);
      w.Field("cancelled", response.stats.cancelled);
      w.Field("deadline_expired", response.stats.deadline_expired);
      w.Field("queue_depth", response.stats.queue_depth);
      w.Field("queued_weight", response.stats.queued_weight);
      w.Field("max_queue_weight", response.stats.max_queue_weight);
      w.KeyedBeginArray("deployments");
      for (const std::string& name : response.stats.deployments) {
        w.String(name);
      }
      w.EndArray();
      w.Field("registered_deployments", response.stats.registered_deployments);
      w.Field("derived_deployments", response.stats.derived_deployments);
      w.Field("timed_requests", response.stats.timed_requests);
      w.Key("stage_totals_ms");
      WriteStageTotals(w, response.stats.stage_totals);
      w.Key("kernel_cache");
      WriteCacheStats(w, response.stats.kernel_cache);
      w.Key("collective_cache");
      WriteCacheStats(w, response.stats.collective_cache);
      w.Key("trace_cache");
      WriteCacheStats(w, response.stats.trace_cache);
      w.Key("sim_cache");
      WriteCacheStats(w, response.stats.sim_cache);
      w.KeyedBeginArray("per_deployment");
      for (const DeploymentStats& deployment : response.stats.per_deployment) {
        w.BeginObject();
        w.Field("name", std::string_view(deployment.name));
        w.Field("derived", deployment.derived);
        w.Field("timed_requests", deployment.timed_requests);
        w.Field("cancelled", deployment.cancelled);
        w.Field("deadline_expired", deployment.deadline_expired);
        w.Key("stage_totals_ms");
        WriteStageTotals(w, deployment.stage_totals);
        w.Key("kernel_cache");
        WriteCacheStats(w, deployment.kernel_cache);
        w.Key("collective_cache");
        WriteCacheStats(w, deployment.collective_cache);
        w.Key("trace_cache");
        WriteCacheStats(w, deployment.trace_cache);
        w.Key("sim_cache");
        WriteCacheStats(w, deployment.sim_cache);
        w.EndObject();
      }
      w.EndArray();
      w.KeyedBeginArray("latency");
      for (const KindLatencyStats& entry : response.stats.latency) {
        w.BeginObject();
        w.Field("kind", std::string_view(entry.kind));
        w.Key("queue_wait_us");
        WriteLatencyPercentiles(w, entry.queue_wait);
        w.Key("latency_us");
        WriteLatencyPercentiles(w, entry.latency);
        w.EndObject();
      }
      w.EndArray();
      break;
    case ServiceRequestKind::kCancel:
      w.Field("cancel_found", response.cancel_found);
      break;
    case ServiceRequestKind::kMetrics:
      w.Key("families");
      WriteMetricsReport(w, response.metrics);
      break;
    case ServiceRequestKind::kDumpTrace:
      w.Field("trace_events", response.trace_events);
      if (!response.trace_path.empty()) {
        w.Field("trace_path", std::string_view(response.trace_path));
      }
      if (!response.trace_json.empty()) {
        w.Field("trace_json", std::string_view(response.trace_json));
      }
      break;
    case ServiceRequestKind::kAddDeployment:
      w.Field("deployment", std::string_view(response.deployment));
      w.Field("trained", response.trained);
      w.Field("warmed_entries", response.warmed_entries);
      break;
    case ServiceRequestKind::kRemoveDeployment:
      w.Field("deployment", std::string_view(response.deployment));
      w.Field("removed", response.removed);
      break;
    case ServiceRequestKind::kHealth:
      w.Field("live", response.health.live);
      w.Field("ready", response.health.ready);
      w.Field("draining", response.health.draining);
      w.Field("journal_enabled", response.health.journal_enabled);
      w.Field("journal_appends", response.health.journal_appends);
      w.Field("journal_lag", response.health.journal_lag);
      w.Field("journal_append_failures", response.health.journal_append_failures);
      w.Field("checkpoints", response.health.checkpoints);
      w.Field("last_checkpoint_age_s", response.health.last_checkpoint_age_s);
      w.Field("replayed_records", response.health.replayed_records);
      w.Field("torn_records_dropped", response.health.torn_records_dropped);
      w.Field("queue_depth", response.health.queue_depth);
      break;
  }
  w.EndObject();
  return w.str();
}

Result<ServiceResponse> ParseServiceResponse(const std::string& line) {
  MAYA_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(line));
  ServiceResponse response;
  MAYA_ASSIGN_OR_RETURN(response.id, ReadKey(root, "id", ToUint));
  MAYA_ASSIGN_OR_RETURN(const std::string kind_name, ReadKey(root, "kind", ToString));
  MAYA_ASSIGN_OR_RETURN(response.kind, ServiceRequestKindFromName(kind_name));
  MAYA_ASSIGN_OR_RETURN(response.ok, ReadKey(root, "ok", ToBool));
  if (!response.ok) {
    MAYA_ASSIGN_OR_RETURN(response.error, ReadKey(root, "error", ToString));
    MAYA_ASSIGN_OR_RETURN(response.error_code, ReadKey(root, "error_code", ToString));
    return response;
  }
  switch (response.kind) {
    case ServiceRequestKind::kPredict:
    case ServiceRequestKind::kWhatIfOom:
    case ServiceRequestKind::kTracePredict: {
      MAYA_ASSIGN_OR_RETURN(const PredictResult result, ParsePredictResultFields(root));
      AssignPredictResult(response, result);
      break;
    }
    case ServiceRequestKind::kBatchPredict:
      MAYA_RETURN_IF_ERROR(ReadArrayKey(root, "items", ParsePredictResultFields, response.batch));
      break;
    case ServiceRequestKind::kSearch:
      MAYA_RETURN_IF_ERROR(ParseSearchResult(root, response));
      break;
    case ServiceRequestKind::kStats:
      MAYA_RETURN_IF_ERROR(ParseStatsResult(root, response.stats));
      break;
    case ServiceRequestKind::kCancel: {
      MAYA_ASSIGN_OR_RETURN(response.cancel_found, ReadKey(root, "cancel_found", ToBool));
      break;
    }
    case ServiceRequestKind::kMetrics: {
      MAYA_ASSIGN_OR_RETURN(response.metrics, ReadKey(root, "families", ParseMetricsReport));
      break;
    }
    case ServiceRequestKind::kDumpTrace: {
      MAYA_ASSIGN_OR_RETURN(response.trace_events, ReadKey(root, "trace_events", ToUint));
      MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "trace_path", ToString, response.trace_path));
      MAYA_RETURN_IF_ERROR(ReadOptionalKey(root, "trace_json", ToString, response.trace_json));
      break;
    }
    case ServiceRequestKind::kAddDeployment: {
      MAYA_ASSIGN_OR_RETURN(response.deployment, ReadKey(root, "deployment", ToString));
      MAYA_ASSIGN_OR_RETURN(response.trained, ReadKey(root, "trained", ToBool));
      MAYA_ASSIGN_OR_RETURN(response.warmed_entries, ReadKey(root, "warmed_entries", ToUint));
      break;
    }
    case ServiceRequestKind::kRemoveDeployment: {
      MAYA_ASSIGN_OR_RETURN(response.deployment, ReadKey(root, "deployment", ToString));
      MAYA_ASSIGN_OR_RETURN(response.removed, ReadKey(root, "removed", ToBool));
      break;
    }
    case ServiceRequestKind::kHealth:
      MAYA_RETURN_IF_ERROR(ParseHealthResult(root, response.health));
      break;
  }
  return response;
}

ServiceResponse ParseFailureResponse(const std::string& line, const Status& status) {
  ServiceResponse error;
  error.ok = false;
  error.error_code = kErrInvalidRequest;
  error.error = status.ToString();
  // Echo the id/kind when the line is at least well-formed JSON, so a
  // pipelining client can match the failure to its request.
  if (Result<JsonValue> root = ParseJson(line); root.ok() && root->is_object()) {
    if (root->Has("id")) {
      error.id = ToUint(root->at("id")).value_or(0);
    }
    if (root->Has("kind") && root->at("kind").type() == JsonValue::Type::kString) {
      if (Result<ServiceRequestKind> kind =
              ServiceRequestKindFromName(root->at("kind").AsString());
          kind.ok()) {
        error.kind = *kind;
      }
    }
  }
  return error;
}

}  // namespace maya
