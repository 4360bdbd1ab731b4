#include "perfbench/inputs.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/json_writer.h"
#include "src/dlf/worker_launcher.h"
#include "src/models/model_zoo.h"
#include "src/service/protocol.h"
#include "src/trace/collator.h"
#include "src/trace/serialization.h"

namespace perfbench {
namespace {

using maya::Result;
using maya::Status;

maya::Result<maya::ModelConfig> ModelByKey(const std::string& key) {
  if (key == "gpt3-2.7b") return maya::Gpt3_2_7B();
  if (key == "gpt3-18.4b") return maya::Gpt3_18_4B();
  if (key == "gpt3-145.6b") return maya::Gpt3_145_6B();
  return Status::InvalidArgument("unknown model key '" + key + "'");
}

// The TCP server's frame bound (src/net/frame_decoder.h). trace_predict uses
// traces of 1 MB up to the bound, less room for the request envelope.
constexpr uint64_t kFrameBytes = 4 * 1024 * 1024;
constexpr uint64_t kMinTraceBytes = 1000 * 1000;
constexpr uint64_t kMaxTraceBytes = kFrameBytes - 4096;

std::vector<uint32_t> Permutation(size_t n, SplitMix& rng) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Next() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

// `total` requests over `n` lines, uniformly: seeded passes over all lines,
// the last pass cut short.
std::vector<uint32_t> UniformSequence(size_t n, size_t total, SplitMix& rng) {
  std::vector<uint32_t> sequence;
  while (sequence.size() < total) {
    for (const uint32_t line : Permutation(n, rng)) {
      if (sequence.size() < total) {
        sequence.push_back(line);
      }
    }
  }
  return sequence;
}

// kPassRounds rounds of whole passes over `n` lines, as many passes per round
// as fill `seconds` at `pass_s` each (at least one).
std::vector<std::vector<uint32_t>> PassRounds(size_t n, double seconds, double pass_s,
                                              SplitMix& rng) {
  const size_t passes =
      static_cast<size_t>(std::max(1L, std::lround(seconds / kPassRounds / pass_s)));
  std::vector<std::vector<uint32_t>> rounds;
  for (int r = 0; r < kPassRounds; ++r) {
    rounds.push_back(UniformSequence(n, n * passes, rng));
  }
  return rounds;
}

// `count` seeded orders of all `n` lines, each line once per round.
std::vector<std::vector<uint32_t>> PermutedRounds(size_t n, int count, SplitMix& rng) {
  std::vector<std::vector<uint32_t>> rounds;
  for (int r = 0; r < count; ++r) {
    rounds.push_back(Permutation(n, rng));
  }
  return rounds;
}

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<int> PoolRows(const std::vector<RefRow>& ref) {
  std::vector<int> rows;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].pool) {
      rows.push_back(static_cast<int>(i));
    }
  }
  return rows;
}

}  // namespace

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return (static_cast<double>(Next() >> 11) + 0.5) / 9007199254740992.0;
}

std::vector<Setup> Table5Setups() {
  return {*SetupByName("gpt3-2.7b@v100x8"), *SetupByName("gpt3-2.7b@v100x16"),
          *SetupByName("gpt3-18.4b@h100x32"), *SetupByName("gpt3-18.4b@h100x64")};
}

Setup HyperscaleSetup(int world) {
  return *SetupByName("gpt3-145.6b@h100x" + std::to_string(world));
}

Result<Setup> SetupByName(const std::string& name) {
  const size_t at = name.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument("setup name '" + name + "' is not model@cluster");
  }
  Setup setup;
  setup.name = name;
  MAYA_ASSIGN_OR_RETURN(setup.model, ModelByKey(name.substr(0, at)));
  const std::string cluster = name.substr(at + 1);
  MAYA_ASSIGN_OR_RETURN(setup.cluster, maya::ClusterSpecByName(cluster));
  setup.deployment = cluster == kServerCluster ? "" : cluster;
  return setup;
}

std::string ReferenceHeader() {
  return "set\tsetup\ttp\tpp\tmbm\tvs\tsp\tckpt\tdopt\tgbs\toom\titeration_us\tmfu\tpool\t"
         "trace_bytes";
}

std::string FormatReferenceRow(const RefRow& row) {
  const maya::TrainConfig& c = row.config;
  char numbers[160];
  std::snprintf(numbers, sizeof(numbers), "%a\t%a\t%d\t%" PRIu64, row.iteration_us, row.mfu,
                row.pool ? 1 : 0, row.trace_bytes);
  std::ostringstream out;
  out << row.set << '\t' << row.setup << '\t' << c.tensor_parallel << '\t'
      << c.pipeline_parallel << '\t' << c.microbatch_multiplier << '\t'
      << c.virtual_pipeline_stages << '\t' << c.sequence_parallel << '\t'
      << c.activation_recomputation << '\t' << c.distributed_optimizer << '\t'
      << c.global_batch_size << '\t' << row.oom << '\t' << numbers;
  return out.str();
}

Result<std::vector<RefRow>> LoadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open reference data " + path);
  }
  std::vector<RefRow> rows;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (header) {
      if (line != ReferenceHeader()) {
        return Status::InvalidArgument("unexpected reference header in " + path);
      }
      header = false;
      continue;
    }
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string field; std::getline(fields, field, '\t');) {
      f.push_back(field);
    }
    if (f.size() != 15) {
      return Status::InvalidArgument("malformed reference row: " + line);
    }
    RefRow row;
    row.set = f[0];
    row.setup = f[1];
    maya::TrainConfig& c = row.config;
    c.tensor_parallel = std::atoi(f[2].c_str());
    c.pipeline_parallel = std::atoi(f[3].c_str());
    c.microbatch_multiplier = std::atoi(f[4].c_str());
    c.virtual_pipeline_stages = std::atoi(f[5].c_str());
    c.sequence_parallel = f[6] == "1";
    c.activation_recomputation = f[7] == "1";
    c.distributed_optimizer = f[8] == "1";
    c.global_batch_size = std::atoll(f[9].c_str());
    row.oom = f[10] == "1";
    row.iteration_us = std::strtod(f[11].c_str(), nullptr);
    row.mfu = std::strtod(f[12].c_str(), nullptr);
    row.pool = f[13] == "1";
    row.trace_bytes = std::strtoull(f[14].c_str(), nullptr, 10);
    if (!SetupByName(row.setup).ok()) {
      return Status::InvalidArgument("unknown setup in reference row: " + line);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("no reference rows in " + path);
  }
  return rows;
}

std::string PredictLine(uint64_t id, const Setup& setup, const maya::TrainConfig& config,
                        bool virtual_folds) {
  // Hand-assembled instead of SerializeServiceRequest: that codec writes every
  // launch-mode flag, while clients send only the fields they set.
  maya::JsonWriter w;
  w.BeginObject();
  w.Field("id", id);
  w.Field("kind", std::string_view("predict"));
  w.Key("model");
  maya::WriteModelConfig(w, setup.model);
  w.Key("config");
  maya::WriteTrainConfig(w, config);
  if (virtual_folds) {
    w.Field("virtual_folds", true);
  }
  if (!setup.deployment.empty()) {
    w.Field("deployment", std::string_view(setup.deployment));
  }
  w.EndObject();
  return w.str();
}

WorkloadInputs PoolInputs(const std::vector<RefRow>& ref) {
  WorkloadInputs inputs;
  inputs.rounds.emplace_back();
  for (const int row : PoolRows(ref)) {
    inputs.rounds.back().push_back(static_cast<uint32_t>(inputs.lines.size()));
    inputs.lines.push_back(PredictLine(inputs.lines.size() + 1, *SetupByName(ref[row].setup),
                                       ref[row].config, false));
    inputs.line_ref.push_back(row);
  }
  return inputs;
}

WorkloadInputs PredictInputs(const std::vector<RefRow>& ref, uint64_t seed, double seconds) {
  WorkloadInputs inputs = PoolInputs(ref);
  const size_t n = inputs.lines.size();
  SplitMix rng(seed ^ 0x7072656469637431ull);
  inputs.rounds = PassRounds(n, seconds, kPredictPassS, rng);
  // The open loop: a Poisson process conditioned on its count, i.e. that many
  // arrivals, each uniform over the phase.
  const size_t count = static_cast<size_t>(std::lround(kPredictRatePerS * kOpenLoopS));
  std::vector<double> due;
  for (size_t i = 0; i < count; ++i) {
    due.push_back(rng.Uniform() * kOpenLoopS);
  }
  std::sort(due.begin(), due.end());
  const std::vector<uint32_t> picks = UniformSequence(n, count, rng);
  for (size_t i = 0; i < count; ++i) {
    inputs.arrivals.push_back({due[i], picks[i]});
  }
  inputs.wide = UniformSequence(n, kCapacityRequests, rng);
  return inputs;
}

std::string SearchLine(uint64_t id, const Setup& setup) {
  maya::JsonWriter w;
  w.BeginObject();
  w.Field("id", id);
  w.Field("kind", std::string_view("search"));
  w.Key("model");
  maya::WriteModelConfig(w, setup.model);
  if (!setup.deployment.empty()) {
    w.Field("deployment", std::string_view(setup.deployment));
  }
  w.EndObject();
  return w.str();
}

WorkloadInputs SearchInputs(const std::vector<RefRow>& ref, uint64_t seed) {
  WorkloadInputs inputs;
  for (const Setup& setup : Table5Setups()) {
    int best = -1;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].set == "table5" && ref[i].setup == setup.name && !ref[i].oom &&
          (best < 0 || ref[i].mfu > ref[static_cast<size_t>(best)].mfu)) {
        best = static_cast<int>(i);
      }
    }
    inputs.lines.push_back(SearchLine(inputs.lines.size() + 1, setup));
    inputs.line_ref.push_back(best);
  }
  SplitMix rng(seed ^ 0x7365617263683031ull);
  inputs.rounds = PermutedRounds(inputs.lines.size(), kSearchRounds, rng);
  return inputs;
}

WorkloadInputs HyperscaleInputs(const std::vector<RefRow>& ref, uint64_t seed) {
  WorkloadInputs inputs;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].set == "hyperscale" && !ref[i].oom) {
      inputs.lines.push_back(
          PredictLine(inputs.lines.size() + 1, *SetupByName(ref[i].setup), ref[i].config, true));
      inputs.line_ref.push_back(static_cast<int>(i));
    }
  }
  SplitMix rng(seed ^ 0x6879706572736361ull);
  inputs.rounds = PermutedRounds(inputs.lines.size(), kHyperscaleRounds, rng);
  return inputs;
}

Result<WorkloadInputs> TracePredictInputs(const std::vector<RefRow>& ref, uint64_t seed,
                                          double seconds) {
  WorkloadInputs inputs;
  for (const int row : PoolRows(ref)) {
    const RefRow& r = ref[row];
    if (r.oom || r.trace_bytes < kMinTraceBytes || r.trace_bytes > kMaxTraceBytes) {
      continue;
    }
    const Setup setup = *SetupByName(r.setup);
    Result<maya::LaunchResult> launched = maya::EmulateJob(setup.model, r.config, setup.cluster);
    MAYA_RETURN_IF_ERROR(launched.status());
    if (launched->oom) {
      return Status::Internal("trace_predict config ran out of memory: " + r.config.Summary());
    }
    maya::TraceCollator collator;
    Result<maya::JobTrace> job =
        collator.Collate(std::move(launched->traces), std::move(launched->resolved_comms));
    MAYA_RETURN_IF_ERROR(job.status());
    maya::JsonWriter w;
    w.BeginObject();
    w.Field("id", static_cast<uint64_t>(inputs.lines.size() + 1));
    w.Field("kind", std::string_view("trace_predict"));
    w.Key("trace");
    w.RawValue(maya::SerializeJobTrace(*job));
    if (!setup.deployment.empty()) {
      w.Field("deployment", std::string_view(setup.deployment));
    }
    w.EndObject();
    if (w.str().size() >= kFrameBytes) {
      return Status::Internal("trace_predict line exceeds the frame bound: " +
                              r.config.Summary());
    }
    inputs.lines.push_back(w.str());
    inputs.line_ref.push_back(row);
  }
  if (inputs.lines.size() < 4) {
    return Status::Internal("fewer than 4 pool configs have a 1-4 MB trace");
  }
  const size_t n = inputs.lines.size();
  SplitMix rng(seed ^ 0x7472616365707231ull);
  inputs.rounds = PassRounds(n, seconds, kTracePassS, rng);
  inputs.wide = UniformSequence(n, n * kTraceWidePasses, rng);
  return inputs;
}

std::string InputDigest(const WorkloadInputs& inputs) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : inputs.lines) {
    h = Fnv(h, line.data(), line.size());
    h = Fnv(h, "\n", 1);
  }
  for (const Arrival& arrival : inputs.arrivals) {
    char due[40];
    std::snprintf(due, sizeof(due), "%a", arrival.due_s);
    h = Fnv(h, due, std::strlen(due));
    h = Fnv(h, &arrival.line, sizeof(arrival.line));
  }
  for (const std::vector<uint32_t>& round : inputs.rounds) {
    h = Fnv(h, "|", 1);
    for (const uint32_t line : round) {
      h = Fnv(h, &line, sizeof(line));
    }
  }
  h = Fnv(h, "|", 1);
  for (const uint32_t line : inputs.wide) {
    h = Fnv(h, &line, sizeof(line));
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

}  // namespace perfbench
