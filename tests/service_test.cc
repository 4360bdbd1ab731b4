// ServiceEngine / protocol / warm-start tests: typed-payload NDJSON
// round-trips (serialize -> parse -> serialize byte-identical per variant),
// deployment targeting incl. cross-arch what-ifs over registered per-arch
// banks, batch_predict bit-identity vs sequential predicts, weighted
// admission control, concurrent mixed workloads with per-request isolation,
// deadlines, cancellation, and v2 artifact-bundle warm starts with >= 90%
// estimate-cache hit rate and bit-identical predictions.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/json_parser.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/dlf/worker_launcher.h"
#include "src/service/artifact_store.h"
#include "src/service/service_client.h"
#include "src/service/service_engine.h"
#include "src/sim/simulator.h"
#include "src/trace/collator.h"
#include "src/trace/serialization.h"

namespace maya {
namespace {

ModelConfig TinyGpt() {
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  return model;
}

TrainConfig BaseConfig() {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  return config;
}

ProfileSweepOptions TestSweep() {
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1200;
  sweep.conv_samples = 100;
  sweep.generic_samples = 60;
  sweep.collective_sizes = 12;
  return sweep;
}

// One trained bank per test binary; engines borrow it.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new ClusterSpec(H100Cluster(8));
    executor_ = new GroundTruthExecutor(*cluster_, 7);
    bank_ = new EstimatorBank(TrainEstimators(*cluster_, *executor_, TestSweep()));
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete executor_;
    delete cluster_;
  }

  static std::unique_ptr<ServiceEngine> MakeEngine(ServiceEngineOptions options = {}) {
    return *ServiceEngine::Create(*cluster_, bank_->kernel.get(),
                                  bank_->collective.get(), options);
  }

  static ServiceRequest PredictRequest(uint64_t id, const TrainConfig& config) {
    ServiceRequest request;
    request.id = id;
    PredictPayload payload;
    payload.model = TinyGpt();
    payload.config = config;
    request.payload = std::move(payload);
    return request;
  }

  // The configuration sweep used by the warm-start and concurrency tests.
  static std::vector<TrainConfig> SweepConfigs() {
    std::vector<TrainConfig> configs;
    for (int tp : {1, 2}) {
      for (int pp : {1, 2}) {
        TrainConfig config = BaseConfig();
        config.tensor_parallel = tp;
        config.pipeline_parallel = pp;
        configs.push_back(config);
      }
    }
    return configs;
  }

  static ClusterSpec* cluster_;
  static GroundTruthExecutor* executor_;
  static EstimatorBank* bank_;
};

ClusterSpec* ServiceTest::cluster_ = nullptr;
GroundTruthExecutor* ServiceTest::executor_ = nullptr;
EstimatorBank* ServiceTest::bank_ = nullptr;

// ---- Protocol round-trips ---------------------------------------------------

// Serialize(parse(serialize(request))) must be byte-identical for every
// payload variant — the v2 wire format's fixed-point property.
void ExpectRequestFixedPoint(const ServiceRequest& request) {
  const std::string line = SerializeServiceRequest(request);
  Result<ServiceRequest> parsed = ParseServiceRequest(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_EQ(parsed->id, request.id);
  EXPECT_EQ(parsed->kind(), request.kind());
  EXPECT_EQ(SerializeServiceRequest(*parsed), line);
}

TEST(ServiceProtocolTest, EveryPayloadVariantRoundTripsByteIdentical) {
  ServiceRequest predict;
  predict.id = 42;
  predict.deadline_ms = 1500.0;
  PredictPayload predict_payload;
  predict_payload.model = TinyGpt();
  predict_payload.config = BaseConfig();
  predict_payload.virtual_folds = true;
  predict_payload.deployment = "h100x32";
  predict.payload = predict_payload;
  ExpectRequestFixedPoint(predict);

  ServiceRequest batch;
  batch.id = 43;
  BatchPredictPayload batch_payload;
  batch_payload.model = TinyGpt();
  batch_payload.configs.push_back(BaseConfig());
  TrainConfig second = BaseConfig();
  second.tensor_parallel = 1;
  batch_payload.configs.push_back(second);
  batch_payload.deduplicate_workers = false;
  batch_payload.deployment = "v100x16";
  batch.payload = batch_payload;
  ExpectRequestFixedPoint(batch);

  ServiceRequest search;
  search.id = 44;
  SearchPayload search_payload;
  search_payload.model = TinyGpt();
  search_payload.search.algorithm = "random";
  search_payload.search.sample_budget = 64;
  search_payload.search.seed = 5;
  search_payload.global_batch = 32;
  search_payload.deployment = "a40";
  search.payload = search_payload;
  ExpectRequestFixedPoint(search);

  ServiceRequest whatif;
  whatif.id = 45;
  WhatIfOomPayload whatif_payload;
  whatif_payload.model = TinyGpt();
  whatif_payload.config = BaseConfig();
  whatif.payload = whatif_payload;
  ExpectRequestFixedPoint(whatif);

  ServiceRequest trace_predict;
  trace_predict.id = 46;
  TracePredictPayload trace_payload;
  trace_payload.trace.world_size = 1;
  WorkerTrace worker;
  worker.rank = 0;
  TraceOp op;
  op.type = TraceOpType::kKernelLaunch;
  op.kernel = MakeGemm(128, 64, 64, DType::kBf16);
  worker.ops.push_back(op);
  trace_payload.trace.workers.push_back(worker);
  trace_payload.trace.folded_ranks.push_back({0});
  trace_payload.deployment = "h100x8";
  trace_predict.payload = trace_payload;
  ExpectRequestFixedPoint(trace_predict);

  ServiceRequest stats;
  stats.id = 47;
  stats.payload = StatsPayload{};
  ExpectRequestFixedPoint(stats);

  ServiceRequest cancel;
  cancel.id = 48;
  cancel.payload = CancelPayload{7};
  ExpectRequestFixedPoint(cancel);

  ServiceRequest metrics;
  metrics.id = 49;
  metrics.payload = MetricsPayload{};
  ExpectRequestFixedPoint(metrics);

  ServiceRequest dump_trace;
  dump_trace.id = 50;
  dump_trace.payload = DumpTracePayload{};
  ExpectRequestFixedPoint(dump_trace);

  ServiceRequest health;
  health.id = 51;
  health.payload = HealthPayload{};
  ExpectRequestFixedPoint(health);
}

TEST(ServiceProtocolTest, HealthResponseRoundTripsEveryField) {
  ServiceResponse response;
  response.id = 60;
  response.kind = ServiceRequestKind::kHealth;
  response.ok = true;
  response.health.live = true;
  response.health.ready = true;
  response.health.draining = true;
  response.health.journal_enabled = true;
  response.health.journal_appends = 17;
  response.health.journal_lag = 3;
  response.health.journal_append_failures = 2;
  response.health.checkpoints = 5;
  response.health.last_checkpoint_age_s = 12.625;
  response.health.replayed_records = 4;
  response.health.torn_records_dropped = 1;
  response.health.queue_depth = 9;
  const std::string line = SerializeServiceResponse(response);
  Result<ServiceResponse> parsed = ParseServiceResponse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->health.live);
  EXPECT_TRUE(parsed->health.ready);
  EXPECT_TRUE(parsed->health.draining);
  EXPECT_TRUE(parsed->health.journal_enabled);
  EXPECT_EQ(parsed->health.journal_appends, 17u);
  EXPECT_EQ(parsed->health.journal_lag, 3u);
  EXPECT_EQ(parsed->health.journal_append_failures, 2u);
  EXPECT_EQ(parsed->health.checkpoints, 5u);
  EXPECT_EQ(parsed->health.last_checkpoint_age_s, 12.625);
  EXPECT_EQ(parsed->health.replayed_records, 4u);
  EXPECT_EQ(parsed->health.torn_records_dropped, 1u);
  EXPECT_EQ(parsed->health.queue_depth, 9u);
  EXPECT_EQ(SerializeServiceResponse(*parsed), line);
}

TEST(ServiceProtocolTest, DeploymentGovernanceCountersSurviveTheWire) {
  ServiceResponse stats;
  stats.id = 61;
  stats.kind = ServiceRequestKind::kStats;
  stats.ok = true;
  DeploymentStats deployment;
  deployment.name = "default";
  deployment.cancelled = 6;
  deployment.deadline_expired = 2;
  stats.stats.per_deployment.push_back(deployment);
  const std::string line = SerializeServiceResponse(stats);
  Result<ServiceResponse> parsed = ParseServiceResponse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->stats.per_deployment.size(), 1u);
  EXPECT_EQ(parsed->stats.per_deployment[0].cancelled, 6u);
  EXPECT_EQ(parsed->stats.per_deployment[0].deadline_expired, 2u);
  EXPECT_EQ(SerializeServiceResponse(*parsed), line);
}

TEST(ServiceProtocolTest, ParsedFieldsSurviveTheWire) {
  ServiceRequest request;
  request.id = 42;
  request.deadline_ms = 1500.0;
  PredictPayload payload;
  payload.model = TinyGpt();
  payload.config = BaseConfig();
  payload.virtual_folds = true;
  payload.deployment = "h100x32";
  request.payload = std::move(payload);
  Result<ServiceRequest> parsed = ParseServiceRequest(SerializeServiceRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->deadline_ms, 1500.0);
  const PredictPayload& round = std::get<PredictPayload>(parsed->payload);
  EXPECT_EQ(round.model.name, "tiny-gpt");
  EXPECT_EQ(round.model.hidden_size, 1024);
  EXPECT_EQ(round.config.tensor_parallel, 2);
  EXPECT_TRUE(round.virtual_folds);
  EXPECT_EQ(round.deployment, "h100x32");
}

TEST(ServiceProtocolTest, LegacyWhatIfClusterKindIsRefused) {
  // The v1 `whatif_cluster` kind is retired: it is an unknown kind like any
  // other, answered INVALID_REQUEST under the caller's id. A predict with a
  // `deployment` says the same thing.
  const std::string line =
      R"({"id":9,"kind":"whatif_cluster","model":{"name":"m","family":"GPT"},)"
      R"("config":{"tensor_parallel":2},"cluster":"h100x32"})";
  Result<ServiceRequest> parsed = ParseServiceRequest(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("unknown request kind 'whatif_cluster'"),
            std::string::npos)
      << parsed.status().ToString();
  const ServiceResponse refused = ParseFailureResponse(line, parsed.status());
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrInvalidRequest);
  EXPECT_EQ(refused.id, 9u);
}

TEST(ServiceProtocolTest, SearchAndCancelRequestRoundTrip) {
  ServiceRequest search;
  search.id = 7;
  SearchPayload search_payload;
  search_payload.model = TinyGpt();
  search_payload.search.algorithm = "random";
  search_payload.search.sample_budget = 64;
  search_payload.search.seed = 5;
  search_payload.global_batch = 32;
  search.payload = std::move(search_payload);
  Result<ServiceRequest> parsed = ParseServiceRequest(SerializeServiceRequest(search));
  ASSERT_TRUE(parsed.ok());
  const SearchPayload& round = std::get<SearchPayload>(parsed->payload);
  EXPECT_EQ(round.search.algorithm, "random");
  EXPECT_EQ(round.search.sample_budget, 64);
  EXPECT_EQ(round.search.seed, 5u);
  EXPECT_EQ(round.global_batch, 32);

  ServiceRequest cancel;
  cancel.id = 8;
  cancel.payload = CancelPayload{7};
  Result<ServiceRequest> parsed_cancel = ParseServiceRequest(SerializeServiceRequest(cancel));
  ASSERT_TRUE(parsed_cancel.ok());
  EXPECT_EQ(std::get<CancelPayload>(parsed_cancel->payload).target_id, 7u);
}

TEST(ServiceProtocolTest, BatchPredictResponseRoundTripsByteIdentical) {
  ServiceResponse response;
  response.id = 12;
  response.kind = ServiceRequestKind::kBatchPredict;
  response.ok = true;
  PredictResult fits;
  fits.iteration_time_us = 123456.789;
  fits.mfu = 0.421;
  fits.peak_memory_bytes = 1ull << 33;
  fits.estimation.kernel_ops = 100;
  fits.estimation.unique_kernels = 10;
  fits.estimation.cache_hits = 10;
  response.batch.push_back(fits);
  PredictResult blown;
  blown.oom = true;
  blown.oom_detail = "rank 3: allocation of 2.0 GiB exceeds device memory";
  response.batch.push_back(blown);
  const std::string line = SerializeServiceResponse(response);
  Result<ServiceResponse> parsed = ParseServiceResponse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->batch.size(), 2u);
  EXPECT_EQ(parsed->batch[0].iteration_time_us, fits.iteration_time_us);
  EXPECT_EQ(parsed->batch[0].mfu, fits.mfu);
  EXPECT_TRUE(parsed->batch[1].oom);
  EXPECT_EQ(parsed->batch[1].oom_detail, blown.oom_detail);
  EXPECT_EQ(SerializeServiceResponse(*parsed), line);
}

TEST(ServiceProtocolTest, LatencyMetricsAndTraceResponsesRoundTripByteIdentical) {
  // stats response carrying per-kind latency percentiles.
  ServiceResponse stats;
  stats.id = 20;
  stats.kind = ServiceRequestKind::kStats;
  stats.ok = true;
  KindLatencyStats predict_latency;
  predict_latency.kind = "predict";
  predict_latency.queue_wait = {3, 12.5, 80.25, 95.125};
  predict_latency.latency = {3, 1500.5, 2200.75, 2300.875};
  stats.stats.latency.push_back(predict_latency);
  const std::string stats_line = SerializeServiceResponse(stats);
  Result<ServiceResponse> stats_parsed = ParseServiceResponse(stats_line);
  ASSERT_TRUE(stats_parsed.ok()) << stats_parsed.status().ToString();
  ASSERT_EQ(stats_parsed->stats.latency.size(), 1u);
  EXPECT_EQ(stats_parsed->stats.latency[0].kind, "predict");
  EXPECT_EQ(stats_parsed->stats.latency[0].queue_wait.count, 3u);
  EXPECT_EQ(stats_parsed->stats.latency[0].latency.p99_us, 2300.875);
  EXPECT_EQ(SerializeServiceResponse(*stats_parsed), stats_line);

  // metrics response carrying a counter, a labelled gauge and a histogram.
  ServiceResponse metrics;
  metrics.id = 21;
  metrics.kind = ServiceRequestKind::kMetrics;
  metrics.ok = true;
  MetricFamily counter;
  counter.name = "maya_requests_completed_total";
  counter.type = MetricType::kCounter;
  counter.help = "Completed requests";
  counter.series.push_back({.value = 42.0});
  metrics.metrics.push_back(counter);
  MetricFamily histogram;
  histogram.name = "maya_request_latency_us";
  histogram.type = MetricType::kHistogram;
  MetricSeries series;
  series.labels = "kind=\"predict\"";
  series.count = 7;
  series.sum_us = 1234.5;
  series.buckets = {{128.0, 3}, {256.0, 4}};
  series.p50_us = 150.5;
  series.p95_us = 240.25;
  series.p99_us = 250.125;
  histogram.series.push_back(series);
  metrics.metrics.push_back(histogram);
  const std::string metrics_line = SerializeServiceResponse(metrics);
  Result<ServiceResponse> metrics_parsed = ParseServiceResponse(metrics_line);
  ASSERT_TRUE(metrics_parsed.ok()) << metrics_parsed.status().ToString();
  ASSERT_EQ(metrics_parsed->metrics.size(), 2u);
  EXPECT_EQ(metrics_parsed->metrics[0].series[0].value, 42.0);
  ASSERT_EQ(metrics_parsed->metrics[1].series.size(), 1u);
  EXPECT_EQ(metrics_parsed->metrics[1].series[0].labels, "kind=\"predict\"");
  ASSERT_EQ(metrics_parsed->metrics[1].series[0].buckets.size(), 2u);
  EXPECT_EQ(metrics_parsed->metrics[1].series[0].buckets[1].count, 4u);
  EXPECT_EQ(SerializeServiceResponse(*metrics_parsed), metrics_line);

  // dump_trace response: inline JSON (embedded quotes must survive escaping)
  // and file-path variants.
  ServiceResponse trace;
  trace.id = 22;
  trace.kind = ServiceRequestKind::kDumpTrace;
  trace.ok = true;
  trace.trace_events = 5;
  trace.trace_json = R"({"traceEvents":[{"name":"emulate","ph":"X"}]})";
  const std::string trace_line = SerializeServiceResponse(trace);
  Result<ServiceResponse> trace_parsed = ParseServiceResponse(trace_line);
  ASSERT_TRUE(trace_parsed.ok()) << trace_parsed.status().ToString();
  EXPECT_EQ(trace_parsed->trace_events, 5u);
  EXPECT_EQ(trace_parsed->trace_json, trace.trace_json);
  EXPECT_EQ(SerializeServiceResponse(*trace_parsed), trace_line);

  ServiceResponse trace_file;
  trace_file.id = 23;
  trace_file.kind = ServiceRequestKind::kDumpTrace;
  trace_file.ok = true;
  trace_file.trace_events = 9;
  trace_file.trace_path = "/tmp/traces/trace_1.json";
  Result<ServiceResponse> file_parsed =
      ParseServiceResponse(SerializeServiceResponse(trace_file));
  ASSERT_TRUE(file_parsed.ok());
  EXPECT_EQ(file_parsed->trace_path, trace_file.trace_path);
  EXPECT_TRUE(file_parsed->trace_json.empty());
}

TEST(ServiceProtocolTest, MalformedRequestsRejected) {
  EXPECT_FALSE(ParseServiceRequest("not json").ok());
  EXPECT_FALSE(ParseServiceRequest(R"({"id":1})").ok());              // no kind
  EXPECT_FALSE(ParseServiceRequest(R"({"id":1,"kind":"nope"})").ok());
  EXPECT_FALSE(ParseServiceRequest(R"({"id":1,"kind":"predict"})").ok());  // no payload
  EXPECT_FALSE(  // batch_predict needs a configs array
      ParseServiceRequest(
          R"({"id":1,"kind":"batch_predict","model":{"name":"m","family":"GPT"}})")
          .ok());
}

TEST(ServiceProtocolTest, WrongTypedFieldsRejectedNotAborted) {
  // Typed JSON accessors CHECK-abort; the wire parsers must return errors
  // instead so one malformed client request cannot kill the server.
  EXPECT_FALSE(ParseServiceRequest(R"({"id":"x","kind":"stats"})").ok());
  EXPECT_FALSE(ParseServiceRequest(R"({"id":-1,"kind":"stats"})").ok());
  EXPECT_FALSE(ParseServiceRequest(R"({"id":1,"kind":true})").ok());
  EXPECT_FALSE(ParseServiceRequest(
                   R"({"id":1,"kind":"predict","model":{"name":42,"family":"GPT"},"config":{}})")
                   .ok());
  EXPECT_FALSE(
      ParseServiceRequest(
          R"({"id":1,"kind":"predict","model":{"name":"m","family":"GPT","num_layers":"8"},"config":{}})")
          .ok());
  EXPECT_FALSE(
      ParseServiceRequest(
          R"({"id":1,"kind":"predict","model":{"name":"m","family":"GPT"},"config":{"sequence_parallel":3}})")
          .ok());
  EXPECT_FALSE(
      ParseServiceRequest(R"({"id":1,"kind":"stats","deadline_ms":"soon"})").ok());
  EXPECT_FALSE(ParseServiceRequest(R"({"id":1,"kind":"cancel","target_id":"x"})").ok());
  EXPECT_FALSE(
      ParseServiceRequest(
          R"({"id":1,"kind":"predict","model":{"name":"m","family":"GPT"},"config":{},"deployment":7})")
          .ok());
}

TEST(ServiceProtocolTest, ErrorResponseRoundTrip) {
  ServiceResponse error;
  error.id = 3;
  error.kind = ServiceRequestKind::kSearch;
  error.ok = false;
  error.error = "queued weight 64.0 + 16.0 (search) exceeds bound 64.0";
  error.error_code = kErrQueueFull;
  Result<ServiceResponse> parsed = ParseServiceResponse(SerializeServiceResponse(error));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->error_code, kErrQueueFull);
  EXPECT_EQ(parsed->error, error.error);
}

// ---- Malformed answers ------------------------------------------------------
//
// Answers are bytes off the network: ParseServiceResponse must turn a missing
// or mistyped key into InvalidArgument naming the key, never abort. The cases
// mutate real answers a ServiceEngine writes, one key or value at a time.

// Answers of the compute and observability kinds, as an engine writes them:
// predict (feasible and OOM), batch_predict (both outcomes as items), search,
// stats (after the compute requests, so its arrays are populated) and health.
const std::vector<std::string>& RealAnswerLines() {
  static const std::vector<std::string>* const lines = [] {
    const ClusterSpec cluster = H100Cluster(8);
    const GroundTruthExecutor executor(cluster, 7);
    const EstimatorBank bank = TrainEstimators(cluster, executor, TestSweep());
    std::unique_ptr<ServiceEngine> engine = *ServiceEngine::Create(
        cluster, bank.kernel.get(), bank.collective.get(), ServiceEngineOptions{});
    TrainConfig oversized = BaseConfig();
    oversized.global_batch_size = 4096;  // 512-sequence microbatches overflow the device
    oversized.microbatch_multiplier = 1;

    PredictPayload feasible;
    feasible.model = TinyGpt();
    feasible.config = BaseConfig();
    PredictPayload oom = feasible;
    oom.config = oversized;
    BatchPredictPayload batch;
    batch.model = TinyGpt();
    batch.configs = {BaseConfig(), oversized};
    SearchPayload search;
    search.model = TinyGpt();
    search.search.algorithm = "random";
    search.search.sample_budget = 8;
    search.search.seed = 3;
    search.global_batch = 32;

    auto* out = new std::vector<std::string>;
    uint64_t id = 0;
    for (ServicePayload payload :
         {ServicePayload{feasible}, ServicePayload{oom}, ServicePayload{batch},
          ServicePayload{search}, ServicePayload{StatsPayload{}}, ServicePayload{HealthPayload{}}}) {
      ServiceRequest request;
      request.id = ++id;
      request.payload = std::move(payload);
      const ServiceResponse response = engine->Submit(request).get();
      CHECK(response.ok) << response.error;
      out->push_back(SerializeServiceResponse(response));
    }
    return out;
  }();
  return *lines;
}

// One step into a JSON document: an object key, or an array index when the
// key is empty.
struct JsonStep {
  std::string key;
  size_t index = 0;
};

// A value inside an answer: where it is, and the key that names it (an
// array element is named by its array's key).
struct JsonSite {
  std::vector<JsonStep> path;
  std::string key;
  bool in_object = false;
  JsonValue value;
};

void CollectSites(const JsonValue& node, std::vector<JsonStep>& path, const std::string& key,
                  std::vector<JsonSite>& out) {
  if (node.is_object()) {
    for (const auto& [member, value] : node.AsObject()) {
      path.push_back({member, 0});
      out.push_back({path, member, true, value});
      CollectSites(value, path, member, out);
      path.pop_back();
    }
  } else if (node.is_array()) {
    for (size_t i = 0; i < node.AsArray().size(); ++i) {
      path.push_back({"", i});
      out.push_back({path, key, false, node.AsArray()[i]});
      CollectSites(node.AsArray()[i], path, key, out);
      path.pop_back();
    }
  }
}

// `node` with the value at `path` dropped (no replacement; the last step is
// a key) or replaced. Containers are copied on the way down: JsonValue
// shares them between copies.
JsonValue Rebuild(const JsonValue& node, const std::vector<JsonStep>& path, size_t depth,
                  const std::optional<JsonValue>& replacement) {
  const JsonStep& step = path[depth];
  const bool last = depth + 1 == path.size();
  if (node.is_object()) {
    JsonObject object = node.AsObject();
    if (last && !replacement.has_value()) {
      object.erase(step.key);
    } else {
      object[step.key] =
          last ? *replacement : Rebuild(object.at(step.key), path, depth + 1, replacement);
    }
    return JsonValue(std::move(object));
  }
  JsonArray array = node.AsArray();
  array[step.index] =
      last ? *replacement : Rebuild(array[step.index], path, depth + 1, replacement);
  return JsonValue(std::move(array));
}

void WriteJsonValue(JsonWriter& w, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      w.Null();
      break;
    case JsonValue::Type::kBool:
      w.Bool(value.AsBool());
      break;
    case JsonValue::Type::kNumber:
      if (Result<int64_t> integer = ToInt(value); integer.ok()) {
        w.Int(*integer);
      } else if (Result<uint64_t> unsigned_integer = ToUint(value); unsigned_integer.ok()) {
        w.Uint(*unsigned_integer);
      } else {
        w.Double(value.AsDouble());
      }
      break;
    case JsonValue::Type::kString:
      w.String(value.AsString());
      break;
    case JsonValue::Type::kArray:
      w.BeginArray();
      for (const JsonValue& item : value.AsArray()) {
        WriteJsonValue(w, item);
      }
      w.EndArray();
      break;
    case JsonValue::Type::kObject:
      w.BeginObject();
      for (const auto& [key, member] : value.AsObject()) {
        w.Key(key);
        WriteJsonValue(w, member);
      }
      w.EndObject();
      break;
  }
}

// A value of a JSON type other than `value`'s.
JsonValue WrongTyped(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNumber:
    case JsonValue::Type::kBool:
      return JsonValue(std::string("x"));
    default:
      return JsonValue(int64_t{7});
  }
}

// Parses a mutated answer: ok when the key is optional (or unread), else
// InvalidArgument naming the key. An abort fails the whole test binary.
void ExpectOkOrTypedError(const JsonValue& mutated, const std::string& key,
                          const std::string& what) {
  JsonWriter w;
  WriteJsonValue(w, mutated);
  const Result<ServiceResponse> parsed = ParseServiceResponse(w.str());
  if (parsed.ok()) {
    return;
  }
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(parsed.status().message().find(key), std::string::npos)
      << what << ": " << parsed.status().ToString();
}

TEST(ServiceProtocolTest, RealAnswersRoundTripByteIdentical) {
  ASSERT_EQ(RealAnswerLines().size(), 6u);
  for (const std::string& line : RealAnswerLines()) {
    const Result<ServiceResponse> parsed = ParseServiceResponse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    EXPECT_EQ(SerializeServiceResponse(*parsed), line);
  }
}

TEST(ServiceProtocolTest, AnswerWithAKeyDroppedIsATypedError) {
  int dropped = 0;
  for (const std::string& line : RealAnswerLines()) {
    const Result<JsonValue> root = ParseJson(line);
    ASSERT_TRUE(root.ok());
    std::vector<JsonStep> path;
    std::vector<JsonSite> sites;
    CollectSites(*root, path, "", sites);
    for (const JsonSite& site : sites) {
      if (!site.in_object) {
        continue;
      }
      ExpectOkOrTypedError(Rebuild(*root, site.path, 0, std::nullopt), site.key,
                           "drop '" + site.key + "' from " + line);
      ++dropped;
    }
  }
  // Every nesting level of every answer kind was visited.
  EXPECT_GT(dropped, 200);
}

TEST(ServiceProtocolTest, AnswerWithAMistypedValueIsATypedError) {
  int mistyped = 0;
  for (const std::string& line : RealAnswerLines()) {
    const Result<JsonValue> root = ParseJson(line);
    ASSERT_TRUE(root.ok());
    std::vector<JsonStep> path;
    std::vector<JsonSite> sites;
    CollectSites(*root, path, "", sites);
    for (const JsonSite& site : sites) {
      ExpectOkOrTypedError(Rebuild(*root, site.path, 0, WrongTyped(site.value)), site.key,
                           "mistype '" + site.key + "' in " + line);
      ++mistyped;
    }
  }
  EXPECT_GT(mistyped, 200);
}

TEST(ServiceProtocolTest, ClusterNames) {
  Result<ClusterSpec> h100 = ClusterSpecByName("h100x32");
  ASSERT_TRUE(h100.ok());
  EXPECT_EQ(h100->total_gpus(), 32);
  EXPECT_EQ(h100->gpu.arch, GpuArch::kH100);
  Result<ClusterSpec> v100 = ClusterSpecByName("v100x16");
  ASSERT_TRUE(v100.ok());
  EXPECT_EQ(v100->gpu.arch, GpuArch::kV100);
  EXPECT_TRUE(ClusterSpecByName("a40").ok());
  EXPECT_TRUE(ClusterSpecByName("h100x4").ok());  // sub-node counts are one node
  EXPECT_FALSE(ClusterSpecByName("tpu").ok());
  EXPECT_FALSE(ClusterSpecByName("h100x").ok());
  EXPECT_FALSE(ClusterSpecByName("h100x-8").ok());
  // Names come off the wire (deployment targeting): counts the cluster
  // builders would CHECK-abort on must come back as Status errors.
  EXPECT_FALSE(ClusterSpecByName("h100x12").ok());  // not a node multiple
  EXPECT_FALSE(ClusterSpecByName("h100x4294967296").ok());  // int overflow
  EXPECT_FALSE(ClusterSpecByName("v100x99999999999999999999").ok());  // long overflow
}

// ---- Engine behaviour -------------------------------------------------------

TEST_F(ServiceTest, PredictMatchesDirectPipeline) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  Result<ServiceResponse> response = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->error;
  ASSERT_FALSE(response->oom);

  PredictionRequest direct;
  direct.model = TinyGpt();
  direct.config = BaseConfig();
  const Result<PredictionReport> report = engine->pipeline().Predict(direct);
  ASSERT_TRUE(report.ok());
  // Bit-identical through the wire: responses carry hex-encoded doubles.
  EXPECT_EQ(response->iteration_time_us, report->iteration_time_us);
  EXPECT_EQ(response->mfu, report->mfu);
  EXPECT_GT(response->estimation.kernel_ops, 0u);
}

TEST_F(ServiceTest, BatchPredictBitIdenticalToSequentialPredicts) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  const std::vector<TrainConfig> configs = SweepConfigs();

  // Sequential reference on a second engine sharing the estimators (fresh
  // caches, so the batch's cold path is compared against a cold path).
  auto reference = MakeEngine();
  InProcessTransport reference_transport(reference.get());
  ServiceClient reference_client(&reference_transport);
  std::vector<ServiceResponse> sequential;
  for (const TrainConfig& config : configs) {
    Result<ServiceResponse> response = reference_client.Predict(TinyGpt(), config);
    ASSERT_TRUE(response.ok() && response->ok);
    sequential.push_back(*response);
  }

  Result<ServiceResponse> batch = client.BatchPredict(TinyGpt(), configs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->ok) << batch->error;
  ASSERT_EQ(batch->batch.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(batch->batch[i].iteration_time_us, sequential[i].iteration_time_us)
        << "config " << i;
    EXPECT_EQ(batch->batch[i].mfu, sequential[i].mfu) << "config " << i;
    EXPECT_EQ(batch->batch[i].peak_memory_bytes, sequential[i].peak_memory_bytes);
    EXPECT_EQ(batch->batch[i].oom, sequential[i].oom);
  }
  // The whole batch occupied one queue slot but counted every item's stage
  // timings, like the sequential predicts did.
  EXPECT_EQ(engine->stats().timed_requests, configs.size());
}

TEST_F(ServiceTest, StatsSurfaceStageTimings) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  Result<ServiceResponse> predict = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(predict.ok());
  ASSERT_TRUE(predict->ok) << predict->error;

  // Per-stage wall time accumulates across executed requests and survives
  // the NDJSON wire format — dedup/parallel-emulation wins are observable
  // from a live maya_serve.
  ServiceRequest request;
  request.id = 2;
  request.payload = StatsPayload{};
  Result<ServiceRequest> wire = ParseServiceRequest(SerializeServiceRequest(request));
  ASSERT_TRUE(wire.ok());
  const ServiceResponse direct = engine->Execute(*wire);
  Result<ServiceResponse> stats = ParseServiceResponse(SerializeServiceResponse(direct));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->stats.timed_requests, 1u);
  EXPECT_GT(stats->stats.stage_totals.emulation_ms, 0.0);
  EXPECT_GT(stats->stats.stage_totals.estimation_ms, 0.0);
  EXPECT_GT(stats->stats.stage_totals.simulation_ms, 0.0);
  // Timings travel as approximate decimals (%.9g), unlike result doubles.
  EXPECT_NEAR(stats->stats.stage_totals.total_ms(), direct.stats.stage_totals.total_ms(),
              direct.stats.stage_totals.total_ms() * 1e-6);
  // The deployment fleet is visible in stats.
  ASSERT_EQ(stats->stats.deployments.size(), 1u);
  EXPECT_EQ(stats->stats.deployments[0], kDefaultDeploymentName);
  EXPECT_EQ(stats->stats.registered_deployments, 1u);
  EXPECT_EQ(stats->stats.max_queue_weight, 64.0);
}

TEST_F(ServiceTest, PerDeploymentStatsRoundTrip) {
  // PR 4 follow-up: the `stats` response reports every resident deployment's
  // cache/stage counters, not just the default deployment's — and the block
  // survives the NDJSON wire format.
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  Result<ServiceResponse> predict = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(predict.ok() && predict->ok);
  TrainConfig derived_config = BaseConfig();
  derived_config.global_batch_size = 64;
  Result<ServiceResponse> derived = client.Predict(TinyGpt(), derived_config, "h100x16");
  ASSERT_TRUE(derived.ok() && derived->ok) << derived->error;

  ServiceRequest request;
  request.id = 9;
  request.payload = StatsPayload{};
  const ServiceResponse direct = engine->Execute(request);
  Result<ServiceResponse> stats = ParseServiceResponse(SerializeServiceResponse(direct));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ASSERT_EQ(stats->stats.per_deployment.size(), 2u);
  const DeploymentStats& fallback = stats->stats.per_deployment[0];
  EXPECT_EQ(fallback.name, kDefaultDeploymentName);
  EXPECT_FALSE(fallback.derived);
  EXPECT_EQ(fallback.timed_requests, 1u);
  EXPECT_GT(fallback.stage_totals.simulation_ms, 0.0);
  EXPECT_GT(fallback.kernel_cache.insertions, 0u);
  EXPECT_GT(fallback.sim_cache.insertions, 0u);
  const DeploymentStats& whatif = stats->stats.per_deployment[1];
  EXPECT_EQ(whatif.name, "h100x16");
  EXPECT_TRUE(whatif.derived);
  EXPECT_EQ(whatif.timed_requests, 1u);
  EXPECT_GT(whatif.kernel_cache.insertions, 0u);
  // Per-deployment counters are isolated: the derived pipeline's caches are
  // not the default pipeline's.
  EXPECT_EQ(direct.stats.per_deployment[0].kernel_cache.insertions,
            fallback.kernel_cache.insertions);
  // Top-level sim cache mirrors the default deployment's.
  EXPECT_EQ(stats->stats.sim_cache.insertions, fallback.sim_cache.insertions);
  // Fixed point: serialize(parse(serialize(x))) is byte-identical.
  EXPECT_EQ(SerializeServiceResponse(*stats), SerializeServiceResponse(direct));
}

TEST_F(ServiceTest, StatsLatencyPercentilesTrackWorkerExecutedRequests) {
  auto engine = MakeEngine();
  const std::vector<TrainConfig> configs = SweepConfigs();
  uint64_t id = 1;
  for (const TrainConfig& config : configs) {
    ServiceResponse response = engine->Submit(PredictRequest(id++, config)).get();
    ASSERT_TRUE(response.ok) << response.error;
  }

  // Queue-wait + e2e latency percentiles appear per kind, measured by the
  // engine's always-on histograms, and survive the NDJSON wire format.
  ServiceRequest request;
  request.id = id;
  request.payload = StatsPayload{};
  const ServiceResponse direct = engine->Execute(request);
  Result<ServiceResponse> stats = ParseServiceResponse(SerializeServiceResponse(direct));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->stats.latency.size(), 1u);  // only predict ran via workers
  const KindLatencyStats& predict = stats->stats.latency[0];
  EXPECT_EQ(predict.kind, "predict");
  EXPECT_EQ(predict.queue_wait.count, configs.size());
  EXPECT_EQ(predict.latency.count, configs.size());
  EXPECT_GT(predict.latency.p50_us, 0.0);
  EXPECT_LE(predict.latency.p50_us, predict.latency.p95_us);
  EXPECT_LE(predict.latency.p95_us, predict.latency.p99_us);
  // Latency includes queue wait, so the percentiles dominate queue-wait ones.
  EXPECT_GE(predict.latency.p50_us, predict.queue_wait.p50_us);
  // Fixed point: serialize(parse(serialize(x))) is byte-identical.
  EXPECT_EQ(SerializeServiceResponse(*stats), SerializeServiceResponse(direct));
  // The engine-owned histograms are the single source feeding both stats and
  // the metrics exposition.
  EXPECT_EQ(engine->RequestLatencyHistogram(ServiceRequestKind::kPredict).count(),
            configs.size());
}

TEST_F(ServiceTest, MetricsResponseReconcilesWithServiceStats) {
  auto engine = MakeEngine();
  const std::vector<TrainConfig> configs = SweepConfigs();
  uint64_t id = 1;
  for (const TrainConfig& config : configs) {
    ServiceResponse response = engine->Submit(PredictRequest(id++, config)).get();
    ASSERT_TRUE(response.ok) << response.error;
  }
  const ServiceStats stats = engine->stats();

  ServiceRequest request;
  request.id = id;
  request.payload = MetricsPayload{};
  const ServiceResponse direct = engine->Submit(request).get();
  ASSERT_TRUE(direct.ok) << direct.error;
  Result<ServiceResponse> wire = ParseServiceResponse(SerializeServiceResponse(direct));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(SerializeServiceResponse(*wire), SerializeServiceResponse(direct));

  // Families arrive sorted and reconcile with the stats snapshot taken
  // before the metrics request itself (completed moved by the metrics
  // request; the counters below are untouched by control kinds).
  std::map<std::string, const MetricFamily*> families;
  for (const MetricFamily& family : wire->metrics) {
    families[family.name] = &family;
  }
  ASSERT_TRUE(families.count("maya_requests_submitted_total"));
  ASSERT_TRUE(families.count("maya_timed_requests_total"));
  ASSERT_TRUE(families.count("maya_request_latency_us"));
  ASSERT_TRUE(families.count("maya_cache_hits_total"));
  EXPECT_EQ(families["maya_timed_requests_total"]->series[0].value,
            static_cast<double>(stats.timed_requests));
  EXPECT_EQ(families["maya_queue_weight_bound"]->series[0].value,
            stats.max_queue_weight);

  // The per-kind latency histogram count equals the worker-executed predict
  // count — which is exactly timed_requests here.
  const MetricFamily* latency = families["maya_request_latency_us"];
  uint64_t histogram_total = 0;
  for (const MetricSeries& series : latency->series) {
    if (series.labels == "kind=\"predict\"") {
      histogram_total += series.count;
    }
  }
  EXPECT_EQ(histogram_total, stats.timed_requests);
  EXPECT_EQ(histogram_total, static_cast<uint64_t>(configs.size()));

  // Cache hit/miss counters reconcile with the per-deployment cache stats.
  uint64_t exported_kernel_hits = 0;
  for (const MetricSeries& series : families["maya_cache_hits_total"]->series) {
    if (series.labels.find("layer=\"kernel\"") != std::string::npos) {
      exported_kernel_hits += static_cast<uint64_t>(series.value);
    }
  }
  uint64_t stats_kernel_hits = 0;
  for (const DeploymentStats& deployment : stats.per_deployment) {
    stats_kernel_hits += deployment.kernel_cache.hits;
  }
  EXPECT_EQ(exported_kernel_hits, stats_kernel_hits);

  // And the exposition renders without blowing up, carrying the same totals.
  const std::string prometheus = RenderPrometheus(wire->metrics);
  EXPECT_NE(prometheus.find("# TYPE maya_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(prometheus.find("maya_requests_submitted_total"), std::string::npos);
}

TEST_F(ServiceTest, DumpTraceCoversQueueWaitAndEveryPipelineStage) {
  Telemetry::Options tracing;
  tracing.tracing = true;
  Telemetry::Instance().Configure(tracing);

  auto engine = MakeEngine();
  const std::vector<TrainConfig> configs = SweepConfigs();
  std::vector<std::future<ServiceResponse>> inflight;
  uint64_t id = 1;
  for (const TrainConfig& config : configs) {
    inflight.push_back(engine->Submit(PredictRequest(id++, config)));
  }
  for (std::future<ServiceResponse>& future : inflight) {
    ServiceResponse response = future.get();
    ASSERT_TRUE(response.ok) << response.error;
  }

  ServiceRequest request;
  request.id = id;
  request.payload = DumpTracePayload{};
  const ServiceResponse direct = engine->Submit(request).get();
  Telemetry::Instance().Disable();
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_TRUE(direct.trace_path.empty());  // no trace_dir -> inline JSON
  ASSERT_FALSE(direct.trace_json.empty());
  EXPECT_GT(direct.trace_events, 0u);

  // The export is Chrome trace-event JSON parseable by the repo's own
  // parser; group spans by trace id and check each predict's span tree.
  Result<JsonValue> root = ParseJson(direct.trace_json);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  Result<const JsonArray*> events = ToArray(root->at("traceEvents"));
  ASSERT_TRUE(events.ok());
  EXPECT_EQ((*events)->size(), direct.trace_events);
  std::map<uint64_t, std::map<std::string, int>> spans_by_trace;
  for (const JsonValue& event : **events) {
    Result<std::string> name = ToString(event.at("name"));
    ASSERT_TRUE(name.ok());
    Result<uint64_t> trace_id = ToUint(event.at("args").at("trace_id"));
    ASSERT_TRUE(trace_id.ok());
    spans_by_trace[*trace_id][*name] += 1;
  }
  size_t traced_predicts = 0;
  for (const auto& [trace_id, spans] : spans_by_trace) {
    if (trace_id == 0 || spans.count("predict") == 0) {
      continue;  // spans outside any request, or non-predict work
    }
    ++traced_predicts;
    EXPECT_EQ(spans.at("predict"), 1) << "trace " << trace_id;
    EXPECT_EQ(spans.count("queue_wait"), 1u) << "trace " << trace_id;
    // All four pipeline stages appear under the request's trace id even
    // though stages fan out across the shared execution context's pool.
    for (const char* stage : {"emulate", "collate", "estimate", "simulate"}) {
      EXPECT_GE(spans.count(stage), 1u) << "trace " << trace_id << " missing " << stage;
    }
  }
  EXPECT_EQ(traced_predicts, configs.size());
}

TEST_F(ServiceTest, BatchPredictSimCacheOnVsOffBitIdentical) {
  // A batch over a repeated config answers from the sim cache after the
  // first item — bit-identically to a cache-less engine.
  ServiceEngineOptions cached_options;
  ASSERT_TRUE(cached_options.pipeline.enable_sim_cache);
  auto cached = MakeEngine(cached_options);
  ServiceEngineOptions uncached_options;
  uncached_options.pipeline.enable_sim_cache = false;
  auto uncached = MakeEngine(uncached_options);

  std::vector<TrainConfig> configs = {BaseConfig(), BaseConfig(), BaseConfig()};
  configs[2].tensor_parallel = 1;
  ServiceRequest request;
  request.id = 1;
  BatchPredictPayload payload;
  payload.model = TinyGpt();
  payload.configs = configs;
  request.payload = std::move(payload);

  const ServiceResponse a = cached->Execute(request);
  const ServiceResponse b = uncached->Execute(request);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.batch.size(), configs.size());
  ASSERT_EQ(b.batch.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(a.batch[i].iteration_time_us, b.batch[i].iteration_time_us) << "item " << i;
    EXPECT_EQ(a.batch[i].mfu, b.batch[i].mfu) << "item " << i;
    EXPECT_EQ(a.batch[i].peak_memory_bytes, b.batch[i].peak_memory_bytes) << "item " << i;
    EXPECT_EQ(b.batch[i].simulation.cache_hits, 0u);
  }
  // Item 2 repeats item 1's config: its replay comes from the cache.
  EXPECT_EQ(a.batch[0].simulation.cache_hits, 0u);
  EXPECT_GT(a.batch[1].simulation.cache_hits, 0u);
  EXPECT_EQ(a.batch[1].simulation.cache_misses, 0u);
}

TEST_F(ServiceTest, WhatIfOomReportsVerdict) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);

  Result<ServiceResponse> fits = client.CheckOom(TinyGpt(), BaseConfig());
  ASSERT_TRUE(fits.ok());
  ASSERT_TRUE(fits->ok);
  EXPECT_FALSE(fits->oom);
  EXPECT_GT(fits->peak_memory_bytes, 0u);

  ModelConfig heavy = TinyGpt();
  heavy.seq_length = 8192;
  TrainConfig config = BaseConfig();
  config.microbatch_multiplier = 1;
  Result<ServiceResponse> blown = client.CheckOom(heavy, config);
  ASSERT_TRUE(blown.ok());
  ASSERT_TRUE(blown->ok);
  EXPECT_TRUE(blown->oom);
  EXPECT_FALSE(blown->oom_detail.empty());
}

TEST_F(ServiceTest, DeploymentTargetedPredictSharesEstimators) {
  // Same-arch what-if: an unregistered H100 cluster name derives a
  // deployment over the default deployment's estimators.
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  TrainConfig config = BaseConfig();
  config.global_batch_size = 64;  // divisible across 16 GPUs
  Result<ServiceResponse> response = client.Predict(TinyGpt(), config, "h100x16");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->error;
  ASSERT_FALSE(response->oom);

  // Reference: a pipeline over the same estimators on the target cluster.
  const ClusterSpec target = H100Cluster(16);
  MayaPipeline reference(target, bank_->kernel.get(), bank_->collective.get());
  PredictionRequest direct;
  direct.model = TinyGpt();
  direct.config = config;
  const Result<PredictionReport> report = reference.Predict(direct);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(response->iteration_time_us, report->iteration_time_us);

  // The derived deployment is now resident and visible in stats.
  EXPECT_TRUE(engine->registry().IsResident("h100x16"));
  EXPECT_EQ(engine->registry().derived_count(), 1u);

  // Cross-arch what-ifs are refused while no V100 bank is registered.
  Result<ServiceResponse> cross = client.Predict(TinyGpt(), config, "v100x8");
  ASSERT_TRUE(cross.ok());
  EXPECT_FALSE(cross->ok);
  EXPECT_EQ(cross->error_code, kErrInvalidRequest);

  // A malformed deployment-cluster name is an error response, not an abort.
  Result<ServiceResponse> bad_count = client.Predict(TinyGpt(), config, "h100x12");
  ASSERT_TRUE(bad_count.ok());
  EXPECT_FALSE(bad_count->ok);
  EXPECT_EQ(bad_count->error_code, kErrInvalidRequest);
}

TEST_F(ServiceTest, CrossArchWhatIfViaRegisteredBank) {
  // The ISSUE acceptance path: an engine trained on one arch (V100) answers
  // a predict targeted at a second-arch cluster (h100x32) once an H100 bank
  // is registered — and the answer is bit-identical to a pipeline built
  // directly over that bank on the target cluster.
  const ClusterSpec v100 = V100Cluster(8);
  GroundTruthExecutor v100_hardware(v100, 21);
  auto engine = *ServiceEngine::Create(
      v100, TrainEstimators(v100, v100_hardware, TestSweep()), ServiceEngineOptions{});

  GroundTruthExecutor h100_hardware(*cluster_, 22);
  Result<std::shared_ptr<const Deployment>> h100_deployment = engine->AddDeployment(
      "h100x8", *cluster_, TrainEstimators(*cluster_, h100_hardware, TestSweep()));
  ASSERT_TRUE(h100_deployment.ok()) << h100_deployment.status().ToString();

  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);
  TrainConfig config = BaseConfig();
  config.global_batch_size = 64;

  // Cross-arch what-if at a cluster shape that is NOT itself registered:
  // resolution parses "h100x32", finds the registered same-arch bank, and
  // derives a pipeline for 32 GPUs over it.
  Result<ServiceResponse> cross = client.Predict(TinyGpt(), config, "h100x32");
  ASSERT_TRUE(cross.ok()) << cross.status().ToString();
  ASSERT_TRUE(cross->ok) << cross->error;
  ASSERT_FALSE(cross->oom);

  MayaPipeline reference(H100Cluster(32), (*h100_deployment)->kernel_estimator,
                         (*h100_deployment)->collective_estimator);
  PredictionRequest direct;
  direct.model = TinyGpt();
  direct.config = config;
  const Result<PredictionReport> report = reference.Predict(direct);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->oom);
  EXPECT_EQ(cross->iteration_time_us, report->iteration_time_us);
  EXPECT_EQ(cross->mfu, report->mfu);

  // The default (V100) path still answers on its own bank.
  Result<ServiceResponse> native = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(native.ok() && native->ok);
  // And an arch with no registered bank still refuses.
  Result<ServiceResponse> a40 = client.Predict(TinyGpt(), config, "a40");
  ASSERT_TRUE(a40.ok());
  EXPECT_FALSE(a40->ok);
  EXPECT_EQ(a40->error_code, kErrInvalidRequest);
}

TEST_F(ServiceTest, TracePredictSkipsEmulation) {
  auto engine = MakeEngine();
  // Build a collated trace out-of-band (a client with its own emulator).
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), BaseConfig(), *cluster_);
  ASSERT_TRUE(launched.ok());
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok());

  ServiceRequest request;
  request.id = 77;
  TracePredictPayload payload;
  payload.trace = *job;
  request.payload = std::move(payload);
  // Exercise the full wire path: the trace payload round-trips as NDJSON.
  Result<ServiceRequest> wire = ParseServiceRequest(SerializeServiceRequest(request));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ServiceResponse response = engine->Submit(*std::move(wire)).get();
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.timings.emulation_ms, 0.0);

  // Reference: annotate + simulate the same wire-format trace directly (the
  // trace JSON carries decimal doubles, so the reference must consume the
  // identical round-tripped payload for a bit-exact comparison).
  Result<JobTrace> round_tripped = ParseJobTrace(SerializeJobTrace(*job));
  ASSERT_TRUE(round_tripped.ok());
  JobTrace reference = *std::move(round_tripped);
  engine->pipeline().AnnotateDurations(reference, nullptr);
  Simulator simulator(reference, *cluster_, SimOptions{});
  Result<SimReport> sim = simulator.Run();
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(response.iteration_time_us, sim->total_time_us);
}

// A pre-collated trace written before the stub keys were retired still
// carries them on every worker; they are ignored on parse.
TEST_F(ServiceTest, TracePredictIgnoresRetiredStubKeys) {
  Result<LaunchResult> launched = EmulateJob(TinyGpt(), BaseConfig(), *cluster_);
  ASSERT_TRUE(launched.ok());
  Result<JobTrace> job = TraceCollator().Collate(std::move(launched->traces));
  ASSERT_TRUE(job.ok());
  ServiceRequest request;
  request.id = 78;
  TracePredictPayload payload;
  payload.trace = *std::move(job);
  request.payload = std::move(payload);
  const std::string line = SerializeServiceRequest(request);
  const std::string legacy_line = std::regex_replace(
      line, std::regex(R"(\{"rank":(-?[0-9]+),)"),
      R"({"rank":$1,"comm_init_only":false,"duplicate_of":-1,)");
  ASSERT_NE(legacy_line, line);

  Result<ServiceRequest> current = ParseServiceRequest(line);
  Result<ServiceRequest> legacy = ParseServiceRequest(legacy_line);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const JobTrace& a = std::get<TracePredictPayload>(current->payload).trace;
  const JobTrace& b = std::get<TracePredictPayload>(legacy->payload).trace;
  EXPECT_EQ(a.world_size, b.world_size);
  EXPECT_TRUE(a.workers == b.workers);
  EXPECT_TRUE(a.folded_ranks == b.folded_ranks);
  EXPECT_EQ(SerializeJobTrace(a), SerializeJobTrace(b));
  EXPECT_EQ(SerializeServiceRequest(*legacy), line);
}

// The answer fields of a predict-like or search response, doubles as hex
// bits (as the wire carries them); timings and cache counters left out.
std::string AnswerKey(const ServiceResponse& response) {
  std::string key = StrFormat(
      "%d|%s|%a|%a|%llu|%d|%s|%a|%a", response.oom, response.oom_detail.c_str(),
      response.iteration_time_us, response.mfu,
      static_cast<unsigned long long>(response.peak_memory_bytes), response.found,
      response.best_config.CacheKey().c_str(), response.best_mfu, response.best_iteration_us);
  for (const PredictResult& item : response.batch) {
    key += StrFormat("|%d|%a|%a|%llu", item.oom, item.iteration_time_us, item.mfu,
                     static_cast<unsigned long long>(item.peak_memory_bytes));
  }
  return key;
}

// The launch-mode flag a parsed compute payload carries.
bool ParsedVirtualFolds(const ServicePayload& payload) {
  return std::visit(
      [](const auto& typed) {
        if constexpr (std::is_same_v<std::decay_t<decltype(typed)>, SearchPayload>) {
          return typed.search.virtual_folds;
        } else if constexpr (requires { typed.virtual_folds; }) {
          return typed.virtual_folds;
        } else {
          return false;
        }
      },
      payload);
}

// `selective_launch` is a retired launch mode kept on the wire as an alias
// of `virtual_folds`: every kind that takes the knob answers hex-identically
// under either spelling, and no serializer writes the alias back. Both
// spellings of false ask for full emulation, the reference path.
TEST_F(ServiceTest, SelectiveLaunchAliasAnswersLikeVirtualFolds) {
  PredictPayload predict;
  predict.model = TinyGpt();
  predict.config = BaseConfig();
  BatchPredictPayload batch;
  batch.model = TinyGpt();
  batch.configs = SweepConfigs();
  WhatIfOomPayload whatif;
  whatif.model = TinyGpt();
  whatif.config = BaseConfig();
  SearchPayload search;
  search.model = TinyGpt();
  search.search.algorithm = "random";
  search.search.sample_budget = 8;
  search.search.seed = 3;
  search.global_batch = 32;

  // Both engines see the same request sequence, so their caches agree too.
  auto folds_engine = MakeEngine();
  auto alias_engine = MakeEngine();
  uint64_t id = 0;
  for (const bool enabled : {true, false}) {
    predict.virtual_folds = enabled;
    batch.virtual_folds = enabled;
    whatif.virtual_folds = enabled;
    search.search.virtual_folds = enabled;
    const std::string spelling = enabled ? R"("virtual_folds":true)" : R"("virtual_folds":false)";
    for (ServicePayload payload : {ServicePayload{predict}, ServicePayload{batch},
                                   ServicePayload{whatif}, ServicePayload{search}}) {
      ServiceRequest request;
      request.id = ++id;
      request.payload = std::move(payload);
      const std::string folds_line = SerializeServiceRequest(request);
      EXPECT_EQ(folds_line.find("selective_launch"), std::string::npos);
      std::string alias_line = folds_line;
      const size_t at = alias_line.find(spelling);
      ASSERT_NE(at, std::string::npos) << folds_line;
      alias_line.replace(at, std::strlen(R"("virtual_folds")"), R"("selective_launch")");

      Result<ServiceRequest> folds = ParseServiceRequest(folds_line);
      Result<ServiceRequest> alias = ParseServiceRequest(alias_line);
      ASSERT_TRUE(folds.ok()) << folds.status().ToString();
      ASSERT_TRUE(alias.ok()) << alias.status().ToString();
      EXPECT_EQ(ParsedVirtualFolds(folds->payload), enabled) << folds_line;
      EXPECT_EQ(ParsedVirtualFolds(alias->payload), enabled) << alias_line;
      // The alias parses into virtual_folds and is never written back.
      EXPECT_EQ(SerializeServiceRequest(*alias), folds_line);
      const ServiceResponse a = folds_engine->Execute(*folds);
      const ServiceResponse b = alias_engine->Execute(*alias);
      ASSERT_TRUE(a.ok) << a.error;
      ASSERT_TRUE(b.ok) << b.error;
      EXPECT_EQ(AnswerKey(a), AnswerKey(b)) << alias_line;
    }
  }
}

TEST_F(ServiceTest, ConcurrentMixedWorkloadMatchesSequential) {
  ServiceEngineOptions options;
  options.worker_threads = 4;
  auto engine = MakeEngine(options);

  // Sequential reference for every request, on a second engine sharing the
  // same estimators (fresh caches: proves cold-concurrent == warm-sequential
  // via the bit-identical cache invariant).
  ServiceEngineOptions reference_options;
  reference_options.worker_threads = 1;
  auto reference = MakeEngine(reference_options);

  struct Case {
    ServiceRequest request;
    ServiceResponse expected;
  };
  std::vector<Case> cases;
  uint64_t next_id = 1;
  for (const TrainConfig& config : SweepConfigs()) {
    Case c;
    c.request = PredictRequest(next_id++, config);
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.request.id = next_id++;
    SearchPayload payload;
    payload.model = TinyGpt();
    payload.search.algorithm = "random";
    payload.search.sample_budget = 24;
    payload.search.seed = 11;
    payload.search.early_stop_patience = 0;
    payload.global_batch = 32;
    c.request.payload = std::move(payload);
    cases.push_back(std::move(c));
  }
  {
    // A batch sharing the queue with singles: items must match sequential.
    Case c;
    c.request.id = next_id++;
    BatchPredictPayload payload;
    payload.model = TinyGpt();
    payload.configs = SweepConfigs();
    c.request.payload = std::move(payload);
    cases.push_back(std::move(c));
  }
  for (Case& c : cases) {
    c.expected = reference->Execute(c.request);
    ASSERT_TRUE(c.expected.ok) << c.expected.error;
  }

  // Issue everything concurrently from client threads, twice, so both cold
  // and warm cache paths run under contention.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::future<ServiceResponse>> futures(cases.size());
    std::vector<std::thread> clients;
    clients.reserve(cases.size());
    for (size_t i = 0; i < cases.size(); ++i) {
      clients.emplace_back([&, i] { futures[i] = engine->Submit(cases[i].request); });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    for (size_t i = 0; i < cases.size(); ++i) {
      const ServiceResponse response = futures[i].get();
      const ServiceResponse& expected = cases[i].expected;
      ASSERT_TRUE(response.ok) << response.error;
      // Per-request isolation: the response is for this id and kind.
      EXPECT_EQ(response.id, cases[i].request.id);
      EXPECT_EQ(response.kind, cases[i].request.kind());
      if (response.kind == ServiceRequestKind::kPredict) {
        EXPECT_EQ(response.iteration_time_us, expected.iteration_time_us)
            << "request " << i << " round " << round;
        EXPECT_EQ(response.mfu, expected.mfu);
      } else if (response.kind == ServiceRequestKind::kBatchPredict) {
        ASSERT_EQ(response.batch.size(), expected.batch.size());
        for (size_t j = 0; j < response.batch.size(); ++j) {
          EXPECT_EQ(response.batch[j].iteration_time_us,
                    expected.batch[j].iteration_time_us)
              << "item " << j << " round " << round;
          EXPECT_EQ(response.batch[j].mfu, expected.batch[j].mfu);
        }
      } else {
        EXPECT_EQ(response.best_mfu, expected.best_mfu) << "round " << round;
        EXPECT_EQ(response.best_iteration_us, expected.best_iteration_us);
        EXPECT_EQ(response.samples, expected.samples);
      }
    }
  }
  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.completed, 2 * cases.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServiceTest, WeightedAdmissionControl) {
  // Deterministic paused-queue admission: weights, not counts, fill the
  // queue. Bound 4 with predict=1/search=16: predicts fill to the bound,
  // a search never fits behind them — but a search on an idle queue is
  // admitted (otherwise a small bound could never serve one).
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.max_queue_weight = 4.0;
  options.start_paused = true;
  auto engine = MakeEngine(options);

  ServiceRequest search;
  search.id = 100;
  SearchPayload search_payload;
  search_payload.model = TinyGpt();
  search.payload = std::move(search_payload);

  std::vector<std::future<ServiceResponse>> futures;
  for (uint64_t id = 1; id <= 4; ++id) {
    futures.push_back(engine->Submit(PredictRequest(id, BaseConfig())));
  }
  EXPECT_EQ(engine->stats().queued_weight, 4.0);
  // Weight 4 is at the bound: one more predict (4 + 1 > 4) is rejected...
  const ServiceResponse overflow = engine->Submit(PredictRequest(5, BaseConfig())).get();
  EXPECT_FALSE(overflow.ok);
  EXPECT_EQ(overflow.error_code, kErrQueueFull);
  // ...and a search (4 + 16 > 4) more so, with the weights in the message.
  const ServiceResponse rejected_search = engine->Submit(search).get();
  EXPECT_FALSE(rejected_search.ok);
  EXPECT_EQ(rejected_search.error_code, kErrQueueFull);
  EXPECT_NE(rejected_search.error.find("search"), std::string::npos);

  // A 3-config batch weighs 3 predicts: it cannot fit either.
  ServiceRequest batch;
  batch.id = 101;
  BatchPredictPayload batch_payload;
  batch_payload.model = TinyGpt();
  batch_payload.configs = {BaseConfig(), BaseConfig(), BaseConfig()};
  batch.payload = std::move(batch_payload);
  const ServiceResponse rejected_batch = engine->Submit(batch).get();
  EXPECT_FALSE(rejected_batch.ok);
  EXPECT_EQ(rejected_batch.error_code, kErrQueueFull);

  EXPECT_EQ(engine->stats().rejected, 3u);

  // Cancel two queued predicts (weight back to 2): a single predict
  // (2 + 1 <= 4) fits again.
  EXPECT_TRUE(engine->Cancel(1));
  EXPECT_TRUE(engine->Cancel(2));
  EXPECT_EQ(engine->stats().queued_weight, 2.0);
  std::future<ServiceResponse> refill = engine->Submit(PredictRequest(6, BaseConfig()));
  EXPECT_EQ(engine->stats().queued_weight, 3.0);

  engine->Resume();
  for (std::future<ServiceResponse>& future : futures) {
    const ServiceResponse response = future.get();
    if (response.ok) {
      EXPECT_FALSE(response.oom);
    } else {
      EXPECT_EQ(response.error_code, kErrCancelled);
    }
  }
  EXPECT_TRUE(refill.get().ok);
  EXPECT_EQ(engine->stats().queued_weight, 0.0);

  // An idle engine admits one over-weight request.
  ServiceEngineOptions idle_options;
  idle_options.worker_threads = 1;
  idle_options.max_queue_weight = 4.0;
  idle_options.start_paused = true;
  auto idle = MakeEngine(idle_options);
  ServiceRequest big_search;
  big_search.id = 1;
  SearchPayload big_payload;
  big_payload.model = TinyGpt();
  big_payload.search.algorithm = "random";
  big_payload.search.sample_budget = 8;
  big_payload.search.seed = 2;
  big_payload.search.early_stop_patience = 0;
  big_search.payload = std::move(big_payload);
  std::future<ServiceResponse> admitted = idle->Submit(big_search);
  EXPECT_EQ(idle->stats().queued_weight, 16.0);
  idle->Resume();
  EXPECT_TRUE(admitted.get().ok);
}

TEST_F(ServiceTest, QueueBoundRejectsAndCancelWorks) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.max_queue_weight = 2.0;
  options.start_paused = true;
  auto engine = MakeEngine(options);

  std::future<ServiceResponse> first = engine->Submit(PredictRequest(1, BaseConfig()));
  std::future<ServiceResponse> second = engine->Submit(PredictRequest(2, BaseConfig()));
  std::future<ServiceResponse> third = engine->Submit(PredictRequest(3, BaseConfig()));

  // Weight bound 2: the third submission is rejected immediately.
  const ServiceResponse rejected = third.get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, kErrQueueFull);

  // Cancel one queued request through the protocol.
  ServiceRequest cancel;
  cancel.id = 4;
  cancel.payload = CancelPayload{2};
  const ServiceResponse cancel_ack = engine->Submit(cancel).get();
  ASSERT_TRUE(cancel_ack.ok);
  EXPECT_TRUE(cancel_ack.cancel_found);
  const ServiceResponse cancelled = second.get();
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.error_code, kErrCancelled);

  // Cancelling an unknown id reports not-found.
  cancel.id = 5;
  cancel.payload = CancelPayload{999};
  EXPECT_FALSE(engine->Submit(cancel).get().cancel_found);

  engine->Resume();
  const ServiceResponse completed = first.get();
  EXPECT_TRUE(completed.ok) << completed.error;
  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST_F(ServiceTest, ExpiredDeadlineNeverExecutes) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.start_paused = true;
  auto engine = MakeEngine(options);

  ServiceRequest request = PredictRequest(1, BaseConfig());
  request.deadline_ms = 1.0;
  std::future<ServiceResponse> future = engine->Submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine->Resume();
  const ServiceResponse response = future.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, kErrDeadlineExceeded);
  EXPECT_EQ(engine->stats().deadline_expired, 1u);
}

// ---- Health ----------------------------------------------------------------

// `health` answers synchronously without a queue slot: a paused engine with
// queued work still responds immediately, and the snapshot reflects the
// queue depth and readiness transitions.
TEST_F(ServiceTest, HealthAnswersSynchronouslyEvenWhenQueueIsPaused) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.start_paused = true;
  auto engine = MakeEngine(options);

  std::future<ServiceResponse> first = engine->Submit(PredictRequest(1, BaseConfig()));
  std::future<ServiceResponse> second = engine->Submit(PredictRequest(2, BaseConfig()));

  ServiceRequest probe;
  probe.id = 3;
  probe.payload = HealthPayload{};
  std::future<ServiceResponse> health_future = engine->Submit(probe);
  // Workers are paused, so only a synchronous answer can resolve this.
  ASSERT_EQ(health_future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const ServiceResponse health = health_future.get();
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_TRUE(health.health.live);
  EXPECT_TRUE(health.health.ready);
  EXPECT_FALSE(health.health.draining);
  EXPECT_FALSE(health.health.journal_enabled);
  EXPECT_EQ(health.health.queue_depth, 2u);

  // Readiness is a transport-controlled flag, independent of liveness.
  engine->SetReady(false);
  EXPECT_FALSE(engine->Health().ready);
  EXPECT_TRUE(engine->Health().live);
  engine->SetReady(true);

  engine->Resume();
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(second.get().ok);

  engine->Shutdown();
  EXPECT_TRUE(engine->Health().draining);
  EXPECT_FALSE(engine->Health().ready);
}

// ---- Executing-request governance ------------------------------------------

std::string CacheSig(const ShardedCacheStats& stats) {
  return std::to_string(stats.hits) + "/" + std::to_string(stats.misses) + "/" +
         std::to_string(stats.insertions) + "/" + std::to_string(stats.evictions) + "/" +
         std::to_string(stats.entries);
}

// One string capturing every counter of all four cache layers of every
// resident deployment — byte-compared to prove a governed request published
// nothing anywhere.
std::string AllCacheSig(const ServiceEngine& engine) {
  std::string sig;
  for (const DeploymentStats& deployment : engine.stats().per_deployment) {
    sig += deployment.name + ":" + CacheSig(deployment.kernel_cache) + "|" +
           CacheSig(deployment.collective_cache) + "|" + CacheSig(deployment.trace_cache) +
           "|" + CacheSig(deployment.sim_cache) + "\n";
  }
  return sig;
}

ServiceRequest LongSearchRequest(uint64_t id) {
  ServiceRequest request;
  request.id = id;
  SearchPayload payload;
  payload.model = TinyGpt();
  payload.search.algorithm = "random";
  payload.search.sample_budget = 20000;
  payload.search.seed = 3;
  payload.search.early_stop_patience = 0;
  payload.global_batch = 32;
  request.payload = std::move(payload);
  return request;
}

// Deterministic acceptance variant: a search entered with an already-expired
// deadline (or pre-cancelled token) must answer the typed error at the first
// stage checkpoint and leave every cache layer byte-identical to never
// having run.
TEST_F(ServiceTest, GovernedSearchPublishesNothingToAnyCacheLayer) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.pipeline.enable_trace_cache = true;  // all three layers armed
  auto engine = MakeEngine(options);

  // Warm the caches so the comparison is against a non-trivial baseline.
  ASSERT_TRUE(engine->Execute(PredictRequest(1, BaseConfig())).ok);
  const std::string baseline = AllCacheSig(*engine);
  ASSERT_FALSE(baseline.empty());

  CancelToken expired;
  expired.ArmDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const ServiceResponse timed_out = engine->Execute(LongSearchRequest(2), &expired);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.error_code, kErrDeadlineExceeded);
  EXPECT_EQ(AllCacheSig(*engine), baseline);

  CancelToken cancelled;
  cancelled.Cancel();
  const ServiceResponse aborted = engine->Execute(LongSearchRequest(3), &cancelled);
  EXPECT_FALSE(aborted.ok);
  EXPECT_EQ(aborted.error_code, kErrCancelled);
  EXPECT_EQ(AllCacheSig(*engine), baseline);

  // The same predict still answers — and bit-identically — afterwards.
  const ServiceResponse again = engine->Execute(PredictRequest(4, BaseConfig()));
  ASSERT_TRUE(again.ok);
}

// An EXECUTING search whose deadline expires mid-flight is interrupted at a
// stage checkpoint: the worker is released within bounded time, the response
// is typed DEADLINE_EXCEEDED, and the engine keeps serving.
TEST_F(ServiceTest, ExecutingSearchInterruptedByDeadline) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  // Disable every cache so repeated trials cannot finish the budget early.
  options.pipeline.enable_estimate_cache = false;
  options.pipeline.enable_sim_cache = false;
  auto engine = MakeEngine(options);

  ServiceRequest search = LongSearchRequest(1);
  search.deadline_ms = 250.0;
  std::future<ServiceResponse> future = engine->Submit(search);
  // A 20000-trial search takes far longer than 250ms; the deadline must
  // interrupt it while executing, well before the search could finish.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  const ServiceResponse response = future.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, kErrDeadlineExceeded);

  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  ASSERT_FALSE(stats.per_deployment.empty());
  EXPECT_EQ(stats.per_deployment[0].deadline_expired, 1u);

  // The released worker immediately serves the next request.
  EXPECT_TRUE(engine->Submit(PredictRequest(2, BaseConfig())).get().ok);
}

// An EXECUTING search is interrupted by a protocol `cancel`: the cancel must
// find the request after it left the queue, and the typed CANCELLED response
// must resolve promptly.
TEST_F(ServiceTest, ExecutingSearchInterruptedByCancel) {
  ServiceEngineOptions options;
  options.worker_threads = 1;
  options.pipeline.enable_estimate_cache = false;
  options.pipeline.enable_sim_cache = false;
  auto engine = MakeEngine(options);

  std::future<ServiceResponse> future = engine->Submit(LongSearchRequest(1));
  // Wait for the request to leave the queue (it is then executing).
  while (engine->stats().queue_depth != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // There is a small window between dequeue and executing-registration;
  // retry the cancel until it lands.
  bool cancel_found = false;
  for (int attempt = 0; attempt < 1000 && !cancel_found; ++attempt) {
    ServiceRequest cancel;
    cancel.id = 100 + static_cast<uint64_t>(attempt);
    cancel.payload = CancelPayload{1};
    const ServiceResponse ack = engine->Submit(cancel).get();
    ASSERT_TRUE(ack.ok);
    cancel_found = ack.cancel_found;
    if (!cancel_found) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(cancel_found);

  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  const ServiceResponse response = future.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, kErrCancelled);

  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  ASSERT_FALSE(stats.per_deployment.empty());
  EXPECT_EQ(stats.per_deployment[0].cancelled, 1u);

  // Worker released: the engine still serves.
  EXPECT_TRUE(engine->Submit(PredictRequest(2, BaseConfig())).get().ok);
}

TEST_F(ServiceTest, ShutdownDrainsQueueAndRejectsNewWork) {
  ServiceEngineOptions options;
  options.worker_threads = 2;
  options.start_paused = true;
  auto engine = MakeEngine(options);
  std::future<ServiceResponse> queued = engine->Submit(PredictRequest(1, BaseConfig()));
  engine->Shutdown();  // drains the paused queue before joining
  EXPECT_TRUE(queued.get().ok);
  const ServiceResponse refused = engine->Submit(PredictRequest(2, BaseConfig())).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrShuttingDown);
}

// ---- Fault isolation: hostile payloads --------------------------------------

// Every request-reachable validation failure must answer a typed error and
// leave the engine serving — a poisoned request fails only that request.
TEST_F(ServiceTest, HostilePayloadSweepAnswersTypedErrorsAndKeepsServing) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  ServiceClient client(&transport);

  const auto expect_invalid = [&](Result<ServiceResponse> response, const char* what) {
    ASSERT_TRUE(response.ok()) << what << ": " << response.status().ToString();
    EXPECT_FALSE(response->ok) << what;
    EXPECT_EQ(response->error_code, kErrInvalidRequest) << what << ": " << response->error;
  };

  // Hostile models: indivisible heads, zero layers, zero vocab.
  ModelConfig bad_heads = TinyGpt();
  bad_heads.hidden_size = 1000;  // not divisible by 16 heads
  expect_invalid(client.Predict(bad_heads, BaseConfig()), "indivisible heads");
  ModelConfig no_layers = TinyGpt();
  no_layers.num_layers = 0;
  expect_invalid(client.Predict(no_layers, BaseConfig()), "zero layers");
  ModelConfig no_vocab = TinyGpt();
  no_vocab.vocab_size = 0;
  expect_invalid(client.CheckOom(no_vocab, BaseConfig()), "zero vocab whatif");

  // Hostile train configs: zero parallelism, negative batch.
  TrainConfig zero_tp = BaseConfig();
  zero_tp.tensor_parallel = 0;
  expect_invalid(client.Predict(TinyGpt(), zero_tp), "zero tensor parallel");
  TrainConfig negative_batch = BaseConfig();
  negative_batch.global_batch_size = -4;
  expect_invalid(client.Predict(TinyGpt(), negative_batch), "negative batch");

  // A poisoned item mid-batch fails the batch with a typed error naming the
  // item — not the server.
  std::vector<TrainConfig> batch = {BaseConfig(), zero_tp, BaseConfig()};
  Result<ServiceResponse> poisoned = client.BatchPredict(TinyGpt(), batch);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_FALSE(poisoned->ok);
  EXPECT_EQ(poisoned->error_code, kErrInvalidRequest);
  EXPECT_NE(poisoned->error.find("batch item 1"), std::string::npos) << poisoned->error;

  // Unknown search algorithm and hostile search model.
  SearchOptions unknown_algorithm;
  unknown_algorithm.algorithm = "simulated-annealing";
  unknown_algorithm.sample_budget = 4;
  expect_invalid(client.Search(TinyGpt(), unknown_algorithm), "unknown algorithm");

  // Unknown deployment target.
  expect_invalid(client.Predict(TinyGpt(), BaseConfig(), "tpu-v9"), "unknown deployment");

  // Wire-level garbage never reaches the engine: the transport answers with
  // the same INVALID_REQUEST failure response the stdio loop and the TCP
  // server produce, not a transport error and not a crash.
  for (const char* garbage :
       {"this is not json", R"({"id": "forty-two", "kind": "predict"})",
        R"({"kind": "predict"})"}) {
    Result<std::string> line = transport.RoundTrip(garbage);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    Result<ServiceResponse> failure = ParseServiceResponse(*line);
    ASSERT_TRUE(failure.ok()) << failure.status().ToString();
    EXPECT_FALSE(failure->ok);
    EXPECT_EQ(failure->error_code, kErrInvalidRequest) << *line;
  }

  // The engine survived the sweep: a well-formed predict still answers, and
  // the admission counters reconcile.
  Result<ServiceResponse> good = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok) << good->error;
  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.cancelled +
                                 stats.deadline_expired);
}

// ---- Drain ------------------------------------------------------------------

TEST_F(ServiceTest, DrainCompletesBacklogThenRejectsNewCompute) {
  ServiceEngineOptions options;
  options.worker_threads = 2;
  options.start_paused = true;  // build a backlog before any work starts
  auto engine = MakeEngine(options);

  std::vector<std::future<ServiceResponse>> backlog;
  for (uint64_t id = 1; id <= 4; ++id) {
    backlog.push_back(engine->Submit(PredictRequest(id, BaseConfig())));
  }

  // Drain unpauses, waits for the backlog (queued AND in-flight) to finish,
  // and only then returns.
  engine->Drain();
  for (std::future<ServiceResponse>& future : backlog) {
    const ServiceResponse response = future.get();
    EXPECT_TRUE(response.ok) << response.error;
  }

  // New compute is refused with the draining message; the control plane
  // (stats) still answers, so an operator can watch the drain complete.
  const ServiceResponse refused = engine->Submit(PredictRequest(9, BaseConfig())).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrShuttingDown);
  EXPECT_NE(refused.error.find("draining"), std::string::npos) << refused.error;

  ServiceRequest stats_request;
  stats_request.id = 10;
  stats_request.payload = StatsPayload{};
  const ServiceResponse stats_response = engine->Submit(std::move(stats_request)).get();
  ASSERT_TRUE(stats_response.ok);
  EXPECT_EQ(stats_response.stats.queue_depth, 0u);

  // Post-drain reconciliation on the quiesced engine: every submission is
  // accounted for exactly once.
  const ServiceStats stats = engine->stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.cancelled +
                                 stats.deadline_expired);
  engine->Shutdown();
}

// ---- Client retry -----------------------------------------------------------

// Fails the first `failures` round-trips at the transport layer, then
// delegates to the wrapped transport.
class FlakyTransport final : public LineTransport {
 public:
  FlakyTransport(LineTransport* wrapped, int failures)
      : wrapped_(wrapped), failures_(failures) {}

  Result<std::string> RoundTrip(const std::string& line) override {
    ++calls_;
    if (calls_ <= failures_) {
      return Status::Internal("connection reset by peer");
    }
    return wrapped_->RoundTrip(line);
  }

  int calls() const { return calls_; }

 private:
  LineTransport* wrapped_;
  int failures_;
  int calls_ = 0;
};

// Answers the first `rejections` round-trips with a typed QUEUE_FULL
// response, then delegates.
class SheddingTransport final : public LineTransport {
 public:
  SheddingTransport(LineTransport* wrapped, int rejections)
      : wrapped_(wrapped), rejections_(rejections) {}

  Result<std::string> RoundTrip(const std::string& line) override {
    ++calls_;
    if (calls_ <= rejections_) {
      Result<ServiceRequest> request = ParseServiceRequest(line);
      if (!request.ok()) {
        return request.status();
      }
      ServiceResponse response;
      response.id = request->id;
      response.kind = request->kind();
      response.ok = false;
      response.error_code = kErrQueueFull;
      response.error = "queued weight 8.0 + 1.0 (predict) exceeds bound 8.0";
      return SerializeServiceResponse(response);
    }
    return wrapped_->RoundTrip(line);
  }

  int calls() const { return calls_; }

 private:
  LineTransport* wrapped_;
  int rejections_;
  int calls_ = 0;
};

TEST_F(ServiceTest, RetryPolicyOutwaitsTransportFailures) {
  auto engine = MakeEngine();
  InProcessTransport inner(engine.get());
  FlakyTransport flaky(&inner, 2);

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.seed = 99;
  std::vector<double> slept;
  retry.sleeper = [&slept](double delay_ms) { slept.push_back(delay_ms); };
  ServiceClient client(&flaky, retry);

  ServiceRequest request = PredictRequest(77, BaseConfig());
  Result<ServiceResponse> response = client.Call(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok) << response->error;
  EXPECT_EQ(flaky.calls(), 3);  // two failures + the success
  // Every sleep is the deterministic schedule the client advertises.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], client.BackoffMs(77, 1));
  EXPECT_DOUBLE_EQ(slept[1], client.BackoffMs(77, 2));
}

TEST_F(ServiceTest, RetryPolicyOutwaitsQueueFullButNeverTypedServerErrors) {
  auto engine = MakeEngine();
  InProcessTransport inner(engine.get());

  // QUEUE_FULL is transient: two rejections, then the engine admits.
  SheddingTransport shedding(&inner, 2);
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.sleeper = [](double) {};
  ServiceClient client(&shedding, retry);
  Result<ServiceResponse> admitted = client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_TRUE(admitted->ok) << admitted->error;
  EXPECT_EQ(shedding.calls(), 3);

  // Exhausted attempts return the typed QUEUE_FULL answer, not a bare status.
  SheddingTransport always_full(&inner, 1000);
  ServiceClient exhausted_client(&always_full, retry);
  Result<ServiceResponse> exhausted = exhausted_client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
  EXPECT_FALSE(exhausted->ok);
  EXPECT_EQ(exhausted->error_code, kErrQueueFull);
  EXPECT_EQ(always_full.calls(), 4);

  // A typed INVALID_REQUEST is never retried: one round trip, typed answer.
  SheddingTransport counting(&inner, 0);
  ServiceClient invalid_client(&counting, retry);
  TrainConfig poisoned = BaseConfig();
  poisoned.tensor_parallel = 0;
  Result<ServiceResponse> invalid = invalid_client.Predict(TinyGpt(), poisoned);
  ASSERT_TRUE(invalid.ok());
  EXPECT_FALSE(invalid->ok);
  EXPECT_EQ(invalid->error_code, kErrInvalidRequest);
  EXPECT_EQ(counting.calls(), 1);

  // The default client (no policy) never retries QUEUE_FULL either.
  SheddingTransport default_full(&inner, 1000);
  ServiceClient default_client(&default_full);
  Result<ServiceResponse> shed = default_client.Predict(TinyGpt(), BaseConfig());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->error_code, kErrQueueFull);
  EXPECT_EQ(default_full.calls(), 1);
}

TEST_F(ServiceTest, BackoffIsExponentialCappedAndDeterministicallyJittered) {
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  RetryPolicy retry;
  retry.base_backoff_ms = 10.0;
  retry.max_backoff_ms = 80.0;
  retry.seed = 5;
  ServiceClient client(&transport, retry);

  std::vector<double> id1;
  std::vector<double> id2;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double nominal = std::min(10.0 * (1 << (attempt - 1)), 80.0);
    const double delay = client.BackoffMs(1, attempt);
    // Full jitter keeps the delay in [0.5, 1.0) x nominal.
    EXPECT_GE(delay, 0.5 * nominal) << attempt;
    EXPECT_LT(delay, nominal) << attempt;
    // Pure function of (seed, id, attempt).
    EXPECT_DOUBLE_EQ(delay, client.BackoffMs(1, attempt));
    id1.push_back(delay);
    id2.push_back(client.BackoffMs(2, attempt));
  }
  // Two clients retrying the same outage spread out: different ids jitter
  // differently.
  EXPECT_NE(id1, id2);
}

TEST_F(ServiceTest, RequestIdsRoundTripAll64Bits) {
  // Ids above 2^53 do not fit a double; the answer must still carry the
  // caller's exact id, or a pipelining client cannot match it.
  auto engine = MakeEngine();
  for (const uint64_t id : {(uint64_t{1} << 53) + 1, ~uint64_t{0}}) {
    const std::string line = SerializeServiceRequest(PredictRequest(id, BaseConfig()));
    ASSERT_NE(line.find("\"id\":" + std::to_string(id) + ","), std::string::npos) << line;
    Result<ServiceRequest> parsed = ParseServiceRequest(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->id, id);
    const ServiceResponse response = engine->Submit(*std::move(parsed)).get();
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, id);
    const std::string answer = SerializeServiceResponse(response);
    EXPECT_NE(answer.find("\"id\":" + std::to_string(id) + ","), std::string::npos);
    Result<ServiceResponse> round = ParseServiceResponse(answer);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(round->id, id);
  }
  engine->Shutdown();
}

TEST_F(ServiceTest, NonIntegralNumbersAreInvalidRequests) {
  // An integer field that arrives as a non-integral number is refused, never
  // rounded: a rounded id names a request the client never sent, and a
  // rounded cancel target could cancel one it never named.
  auto engine = MakeEngine();
  InProcessTransport transport(engine.get());
  const std::string predict = std::regex_replace(
      SerializeServiceRequest(PredictRequest(5, BaseConfig())),
      std::regex(R"("tensor_parallel":[0-9]+)"), R"("tensor_parallel":2.5)");
  ASSERT_NE(predict.find(R"("tensor_parallel":2.5)"), std::string::npos) << predict;
  struct Case {
    std::string line;
    uint64_t id;  // echoed id: 0 when the id itself is refused
    const char* reason;
  };
  const Case cases[] = {
      {R"({"id":1.5,"kind":"stats"})", 0, "request id must be a non-negative 64-bit integer"},
      {R"({"id":7,"kind":"cancel","target_id":1.5})", 7, "expected an integral JSON number"},
      {predict, 5, "tensor_parallel: expected an integral JSON number"},
  };
  for (const Case& test_case : cases) {
    Result<std::string> answer = transport.RoundTrip(test_case.line);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    Result<ServiceResponse> response = ParseServiceResponse(*answer);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok) << test_case.line;
    EXPECT_EQ(response->error_code, kErrInvalidRequest) << *answer;
    EXPECT_EQ(response->id, test_case.id) << *answer;
    EXPECT_NE(response->error.find(test_case.reason), std::string::npos) << *answer;
  }
  engine->Shutdown();
}

// ---- Artifact warm start ----------------------------------------------------

TEST_F(ServiceTest, WarmStartBitIdenticalWithHighHitRate) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "service_warm_bundle").string();
  std::filesystem::remove_all(dir);

  // Process 1: train (shared fixture bank), serve a sweep, save the v2
  // bundle. The engine owns its own bank here so the registry save path
  // (estimators + caches) is exercised end to end.
  GroundTruthExecutor profiling(*cluster_, 7);  // same seed as the fixture
  auto original = *ServiceEngine::Create(
      *cluster_, TrainEstimators(*cluster_, profiling, TestSweep()), ServiceEngineOptions{});
  InProcessTransport original_transport(original.get());
  ServiceClient original_client(&original_transport);
  std::vector<ServiceResponse> original_responses;
  for (const TrainConfig& config : SweepConfigs()) {
    Result<ServiceResponse> response = original_client.Predict(TinyGpt(), config);
    ASSERT_TRUE(response.ok() && response->ok);
    original_responses.push_back(*response);
  }
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveRegistry(original->registry()).ok());
  original->Shutdown();

  // Process 2 (simulated): restart from the bundle — no re-training — and
  // answer the same sweep.
  Result<std::unique_ptr<ServiceEngine>> restarted =
      ServiceEngine::FromArtifacts(*cluster_, store, ServiceEngineOptions{});
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  InProcessTransport transport(restarted->get());
  ServiceClient client(&transport);

  uint64_t hits = 0;
  uint64_t misses = 0;
  const std::vector<TrainConfig> configs = SweepConfigs();
  for (size_t i = 0; i < configs.size(); ++i) {
    Result<ServiceResponse> response = client.Predict(TinyGpt(), configs[i]);
    ASSERT_TRUE(response.ok() && response->ok);
    // Bit-identical to the original process's answers.
    EXPECT_EQ(response->iteration_time_us, original_responses[i].iteration_time_us)
        << "config " << i;
    EXPECT_EQ(response->mfu, original_responses[i].mfu) << "config " << i;
    hits += response->estimation.cache_hits;
    misses += response->estimation.cache_misses;
  }
  // The acceptance bar: a warm-started server answers a repeated sweep with
  // >= 90% estimate-cache hit rate (in fact 100%: every unique key was
  // bundled).
  ASSERT_GT(hits, 0u);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GE(hit_rate, 0.9);
  EXPECT_EQ(misses, 0u);
}

}  // namespace
}  // namespace maya
