#include "src/service/artifact_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/service/protocol.h"

namespace maya {
namespace {

// Bundle layout:
//   manifest.json              — version + a deployments array naming each
//                                deployment, its dir, cluster, cache entry
//                                counts and (when nonzero) usage totals
//   deployment_<i>/
//     kernel_estimator.json    — RandomForestKernelEstimator (per-kind forests)
//     collective_estimator.json — ProfiledCollectiveEstimator tables
//     kernel_validation.json   — held-out KernelDataset (MAPE evaluation)
//     kernel_cache.json        — KernelDesc -> duration_us estimate entries
//     collective_cache.json    — CollectiveRequest -> duration_us entries
//     sim_cache.json           — component fingerprint -> per-worker replay
//                                metrics (the stage-4 cross-trial cache)
constexpr const char* kManifestFile = "manifest.json";
constexpr const char* kKernelEstimatorFile = "kernel_estimator.json";
constexpr const char* kCollectiveEstimatorFile = "collective_estimator.json";
constexpr const char* kKernelValidationFile = "kernel_validation.json";
constexpr const char* kKernelCacheFile = "kernel_cache.json";
constexpr const char* kCollectiveCacheFile = "collective_cache.json";
constexpr const char* kSimCacheFile = "sim_cache.json";

std::string Uint64Hex(uint64_t value) { return StrFormat("%016llx", static_cast<unsigned long long>(value)); }

Result<uint64_t> Uint64FromHex(const std::string& hex) {
  if (hex.size() != 16 || hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::InvalidArgument("malformed 16-hex-digit value '" + hex + "'");
  }
  return std::strtoull(hex.c_str(), nullptr, 16);
}

// Durably syncs `fd`; EINVAL/ENOTSUP (fs without fsync, e.g. some tmpfs
// setups) is treated as success — the data went through the page cache and
// the filesystem offers nothing stronger.
Status FsyncFd(int fd, const std::string& what) {
  MAYA_RETURN_IF_ERROR(FaultInjection::Instance().MaybeFail("artifact.fsync"));
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    return Status::Internal("fsync of '" + what + "' failed: " + std::string(strerror(errno)));
  }
  return Status::Ok();
}

// Syncs the directory holding `path`, making a just-published rename durable
// (the rename itself lives in the directory's metadata).
Status FsyncParentDir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory of '" + path + "' for fsync");
  }
  const Status synced = FsyncFd(fd, parent);
  ::close(fd);
  return synced;
}

// Write-one-file with a fsync'd tmp+rename+dir-fsync publish step, so a file
// either appears in full under its real name or not at all — durably: the
// content is fsync'd before the rename and the parent directory after it, so
// a power cut right after success cannot roll the publish back (crash-of-
// the-process safety alone only needed the rename). Four fault sites model
// how real disks fail:
//   artifact.corrupt     — the write "succeeds" but a byte is damaged; only
//                          a later load's parse can notice (silent fault).
//   artifact.write_short — disk-full mid-write: the tmp holds a prefix, the
//                          save fails, nothing is published.
//   artifact.fsync       — the durability barrier fails: the save fails,
//                          nothing is published.
//   artifact.rename_torn — the tmp is complete but the publish rename never
//                          happens; the target keeps its stale content.
Status WriteFile(const std::string& path, const std::string& contents) {
  FaultInjection& faults = FaultInjection::Instance();
  std::string payload = contents;
  payload.push_back('\n');
  if (!faults.MaybeFail("artifact.corrupt").ok()) {
    // 0x80 (not a printable-range flip): a case flip of a hex digit would be
    // value-preserving, but a high byte can never parse as JSON structure,
    // a key, or a hex-double field.
    payload[payload.size() / 2] ^= 0x80;
  }
  const Status short_write = faults.MaybeFail("artifact.write_short");
  if (!short_write.ok()) {
    payload.resize(payload.size() / 2);
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return Status::Internal("write to '" + tmp + "' failed: " + std::string(strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  if (!short_write.ok()) {
    ::close(fd);
    return Status::Internal("short write to '" + path + "': " + short_write.message());
  }
  // Content durable before the publish rename can make it reachable.
  if (const Status synced = FsyncFd(fd, tmp); !synced.ok()) {
    ::close(fd);
    return synced;
  }
  ::close(fd);
  MAYA_RETURN_IF_ERROR(faults.MaybeFail("artifact.rename_torn"));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot publish '" + path + "': " + ec.message());
  }
  // Rename durable: sync the directory entry.
  return FsyncParentDir(path);
}

Result<std::string> ReadFile(const std::string& path) {
  MAYA_RETURN_IF_ERROR(FaultInjection::Instance().MaybeFail("artifact.read"));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read from '" + path + "' failed");
  }
  return contents.str();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) {
    return contents.status();
  }
  Result<JsonValue> value = ParseJson(*contents);
  if (!value.ok()) {
    return Status::InvalidArgument(path + ": " + value.status().message());
  }
  return value;
}

using KernelEntry = std::pair<KernelDesc, double>;
using CollectiveEntry = std::pair<CollectiveRequest, double>;
using SimEntry = std::pair<uint64_t, std::shared_ptr<const ComponentSimResult>>;

template <typename T>
std::string Render(void (*write)(JsonWriter&, const T&), const T& value) {
  JsonWriter w;
  write(w, value);
  return w.str();
}

template <typename Entry>
std::string RenderArray(void (*write)(JsonWriter&, const Entry&),
                        const std::vector<Entry>& entries) {
  JsonWriter w;
  w.BeginArray();
  for (const Entry& entry : entries) {
    write(w, entry);
  }
  w.EndArray();
  return w.str();
}

// Parses a file's top-level array entry by entry. Bundle files are disk
// state: torn or damaged bytes must surface as a status, never an abort, so
// every entry codec uses the To* conversions.
template <typename Entry>
Result<std::vector<Entry>> ParseArray(Result<Entry> (*parse)(const JsonValue&),
                                      const JsonValue& root) {
  MAYA_ASSIGN_OR_RETURN(const JsonArray* items, ToArray(root));
  std::vector<Entry> entries;
  entries.reserve(items->size());
  for (const JsonValue& item : *items) {
    MAYA_ASSIGN_OR_RETURN(Entry entry, parse(item));
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<double> HexField(const JsonValue& object, const char* field) {
  MAYA_ASSIGN_OR_RETURN(const std::string hex, ToString(object.at(field)));
  return DoubleFromBits(hex);
}

void WriteKernelEntry(JsonWriter& w, const KernelEntry& entry) {
  w.BeginObject();
  w.Key("kernel");
  WriteKernelDescExact(w, entry.first);
  w.Field("duration_us", std::string_view(DoubleBits(entry.second)));
  w.EndObject();
}

Result<KernelEntry> ParseKernelEntry(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"kernel", "duration_us"}));
  MAYA_ASSIGN_OR_RETURN(KernelDesc kernel, ParseKernelDescExact(value.at("kernel")));
  MAYA_ASSIGN_OR_RETURN(const double duration_us, HexField(value, "duration_us"));
  return KernelEntry(std::move(kernel), duration_us);
}

void WriteCollectiveEntry(JsonWriter& w, const CollectiveEntry& entry) {
  w.BeginObject();
  w.Key("request");
  WriteCollectiveRequest(w, entry.first);
  w.Field("duration_us", std::string_view(DoubleBits(entry.second)));
  w.EndObject();
}

Result<CollectiveEntry> ParseCollectiveEntry(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"request", "duration_us"}));
  MAYA_ASSIGN_OR_RETURN(CollectiveRequest request, ParseCollectiveRequest(value.at("request")));
  MAYA_ASSIGN_OR_RETURN(const double duration_us, HexField(value, "duration_us"));
  return CollectiveEntry(std::move(request), duration_us);
}

// Stage-4 component replays: the key is the canonical component fingerprint
// (uint64, hex), the metrics are bit-exact doubles — a warm-started server
// replays repeated components with the saving process's exact timelines.
void WriteSimEntry(JsonWriter& w, const SimEntry& entry) {
  w.BeginObject();
  w.Field("key", std::string_view(Uint64Hex(entry.first)));
  w.KeyedBeginArray("workers");
  for (const WorkerSimMetrics& metrics : entry.second->workers) {
    w.BeginObject();
    w.Field("finish_us", std::string_view(DoubleBits(metrics.finish_us)));
    w.Field("host_busy_us", std::string_view(DoubleBits(metrics.host_busy_us)));
    w.Field("compute_busy_us", std::string_view(DoubleBits(metrics.compute_busy_us)));
    w.Field("comm_busy_us", std::string_view(DoubleBits(metrics.comm_busy_us)));
    w.Field("exposed_comm_us", std::string_view(DoubleBits(metrics.exposed_comm_us)));
    w.Field("events", metrics.events);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

Result<SimEntry> ParseSimEntry(const JsonValue& value) {
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"key", "workers"}));
  MAYA_ASSIGN_OR_RETURN(const std::string key_hex, ToString(value.at("key")));
  MAYA_ASSIGN_OR_RETURN(const uint64_t key, Uint64FromHex(key_hex));
  MAYA_ASSIGN_OR_RETURN(const JsonArray* workers, ToArray(value.at("workers")));
  auto result = std::make_shared<ComponentSimResult>();
  for (const JsonValue& worker : *workers) {
    MAYA_RETURN_IF_ERROR(RequireKeys(worker, {"finish_us", "host_busy_us", "compute_busy_us",
                                              "comm_busy_us", "exposed_comm_us", "events"}));
    WorkerSimMetrics metrics;
    MAYA_ASSIGN_OR_RETURN(metrics.finish_us, HexField(worker, "finish_us"));
    MAYA_ASSIGN_OR_RETURN(metrics.host_busy_us, HexField(worker, "host_busy_us"));
    MAYA_ASSIGN_OR_RETURN(metrics.compute_busy_us, HexField(worker, "compute_busy_us"));
    MAYA_ASSIGN_OR_RETURN(metrics.comm_busy_us, HexField(worker, "comm_busy_us"));
    MAYA_ASSIGN_OR_RETURN(metrics.exposed_comm_us, HexField(worker, "exposed_comm_us"));
    MAYA_ASSIGN_OR_RETURN(metrics.events, ToUint(worker.at("events")));
    result->workers.push_back(metrics);
  }
  return SimEntry(key, std::move(result));
}

}  // namespace

std::string ArtifactStore::ClusterSignature(const ClusterSpec& cluster) {
  return Render(WriteClusterSpec, cluster);
}

std::string ArtifactStore::BankSignature(const EstimatorBank& bank) {
  return Render(WriteKernelEstimator, *bank.kernel) +
         Render(WriteCollectiveEstimator, *bank.collective);
}

std::string ArtifactStore::PathFor(const std::string& subdir, const char* file) const {
  std::filesystem::path path(dir_);
  if (!subdir.empty()) {
    path /= subdir;
  }
  return (path / file).string();
}

bool ArtifactStore::Exists() const {
  std::error_code ec;
  return std::filesystem::exists(PathFor("", kManifestFile), ec);
}

Status ArtifactStore::Save(const std::vector<DeploymentRecord>& deployments) const {
  if (deployments.empty()) {
    return Status::FailedPrecondition("no deployments to save");
  }
  for (const DeploymentRecord& deployment : deployments) {
    if (deployment.bank == nullptr || deployment.bank->kernel == nullptr ||
        deployment.bank->collective == nullptr) {
      return Status::FailedPrecondition("deployment '" + deployment.name +
                                        "': estimator bank is not trained");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory '" + dir_ + "': " + ec.message());
  }
  // Invalidate any existing bundle before touching its files.
  std::filesystem::remove(PathFor("", kManifestFile), ec);

  JsonWriter manifest;
  manifest.BeginObject();
  manifest.Field("version", static_cast<int64_t>(kArtifactBundleVersion));
  manifest.KeyedBeginArray("deployments");
  for (size_t i = 0; i < deployments.size(); ++i) {
    const DeploymentRecord& deployment = deployments[i];
    const std::string subdir = StrFormat("deployment_%zu", i);
    std::filesystem::create_directories(std::filesystem::path(dir_) / subdir, ec);
    if (ec) {
      return Status::Internal("cannot create bundle directory '" + dir_ + "/" + subdir +
                              "': " + ec.message());
    }
    const EstimatorBank& bank = *deployment.bank;
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelEstimatorFile),
                                   Render(WriteKernelEstimator, *bank.kernel)));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kCollectiveEstimatorFile),
                                   Render(WriteCollectiveEstimator, *bank.collective)));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelValidationFile),
                                   Render(WriteKernelDataset, bank.kernel_validation)));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kKernelCacheFile),
                                   RenderArray(WriteKernelEntry, deployment.kernel_cache)));
    MAYA_RETURN_IF_ERROR(
        WriteFile(PathFor(subdir, kCollectiveCacheFile),
                  RenderArray(WriteCollectiveEntry, deployment.collective_cache)));
    MAYA_RETURN_IF_ERROR(WriteFile(PathFor(subdir, kSimCacheFile),
                                   RenderArray(WriteSimEntry, deployment.sim_cache)));

    manifest.BeginObject();
    manifest.Field("name", std::string_view(deployment.name));
    manifest.Field("dir", std::string_view(subdir));
    manifest.Key("cluster");
    WriteClusterSpec(manifest, deployment.cluster);
    manifest.Field("kernel_cache_entries", static_cast<uint64_t>(deployment.kernel_cache.size()));
    manifest.Field("collective_cache_entries",
                   static_cast<uint64_t>(deployment.collective_cache.size()));
    manifest.Field("sim_cache_entries", static_cast<uint64_t>(deployment.sim_cache.size()));
    const DeploymentUsage& usage = deployment.usage;
    if (usage.timed_requests > 0) {
      // Bit-exact doubles: a restore round-trips the exact totals.
      manifest.Field("timed_requests", usage.timed_requests);
      manifest.KeyedBeginObject("stage_totals");
      manifest.Field("emulation_ms", std::string_view(DoubleBits(usage.stage_totals.emulation_ms)));
      manifest.Field("collation_ms", std::string_view(DoubleBits(usage.stage_totals.collation_ms)));
      manifest.Field("estimation_ms",
                     std::string_view(DoubleBits(usage.stage_totals.estimation_ms)));
      manifest.Field("simulation_ms",
                     std::string_view(DoubleBits(usage.stage_totals.simulation_ms)));
      manifest.EndObject();
    }
    manifest.EndObject();
  }
  manifest.EndArray();
  manifest.EndObject();
  // Strictly last: only a complete bundle ever carries a manifest.
  return WriteFile(PathFor("", kManifestFile), manifest.str());
}

Status ArtifactStore::Save(const ClusterSpec& cluster, const EstimatorBank& bank,
                           const MayaPipeline& pipeline) const {
  DeploymentRecord record;
  record.name = kDefaultDeploymentName;
  record.cluster = cluster;
  // Non-owning: the save finishes before the caller's bank can go away.
  record.bank = std::shared_ptr<const EstimatorBank>(std::shared_ptr<const EstimatorBank>(),
                                                     &bank);
  record.kernel_cache = pipeline.SnapshotKernelEstimates();
  record.collective_cache = pipeline.SnapshotCollectiveEstimates();
  record.sim_cache = pipeline.SnapshotSimCache();
  return Save({std::move(record)});
}

Status ArtifactStore::SaveRegistry(const DeploymentRegistry& registry,
                                   const std::map<std::string, DeploymentUsage>& usage) const {
  std::vector<DeploymentRecord> records;
  for (const std::shared_ptr<const Deployment>& deployment : registry.Registered()) {
    if (deployment->bank == nullptr) {
      return Status::FailedPrecondition("deployment '" + deployment->name +
                                        "' borrows its estimators and cannot be persisted");
    }
    DeploymentRecord record;
    record.name = deployment->name;
    record.cluster = deployment->cluster;
    record.bank = deployment->bank;
    record.kernel_cache = deployment->pipeline->SnapshotKernelEstimates();
    record.collective_cache = deployment->pipeline->SnapshotCollectiveEstimates();
    record.sim_cache = deployment->pipeline->SnapshotSimCache();
    if (auto used = usage.find(deployment->name); used != usage.end()) {
      record.usage = used->second;
    }
    records.push_back(std::move(record));
  }
  return Save(records);
}

Result<ArtifactManifest> ArtifactStore::ReadManifest() const {
  MAYA_ASSIGN_OR_RETURN(const JsonValue root, ReadJsonFile(PathFor("", kManifestFile)));
  MAYA_RETURN_IF_ERROR(RequireKeys(root, {"version"}));
  ArtifactManifest manifest;
  MAYA_ASSIGN_OR_RETURN(const int64_t version, ToInt(root.at("version")));
  if (version != kArtifactBundleVersion) {
    return Status::FailedPrecondition(
        StrFormat("artifact bundle version %lld is not the supported version %d",
                  static_cast<long long>(version), kArtifactBundleVersion));
  }
  manifest.version = kArtifactBundleVersion;
  MAYA_RETURN_IF_ERROR(RequireKeys(root, {"deployments"}));
  MAYA_ASSIGN_OR_RETURN(const JsonArray* entries, ToArray(root.at("deployments")));
  for (const JsonValue& entry : *entries) {
    MAYA_RETURN_IF_ERROR(RequireKeys(entry, {"name", "dir", "cluster"}));
    DeploymentManifest deployment;
    MAYA_ASSIGN_OR_RETURN(deployment.name, ToString(entry.at("name")));
    MAYA_ASSIGN_OR_RETURN(deployment.dir, ToString(entry.at("dir")));
    if (deployment.dir.empty() || deployment.dir.find_first_of("/\\") != std::string::npos ||
        deployment.dir.find("..") != std::string::npos) {
      return Status::InvalidArgument("manifest names unsafe deployment dir '" + deployment.dir +
                                     "'");
    }
    MAYA_ASSIGN_OR_RETURN(deployment.cluster, ParseClusterSpec(entry.at("cluster")));
    if (entry.Has("kernel_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.kernel_cache_entries,
                            ToUint(entry.at("kernel_cache_entries")));
    }
    if (entry.Has("collective_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.collective_cache_entries,
                            ToUint(entry.at("collective_cache_entries")));
    }
    if (entry.Has("sim_cache_entries")) {
      MAYA_ASSIGN_OR_RETURN(deployment.sim_cache_entries, ToUint(entry.at("sim_cache_entries")));
    }
    if (entry.Has("timed_requests") && entry.Has("stage_totals")) {
      DeploymentUsage& usage = deployment.usage;
      MAYA_ASSIGN_OR_RETURN(usage.timed_requests, ToUint(entry.at("timed_requests")));
      const JsonValue& totals = entry.at("stage_totals");
      MAYA_RETURN_IF_ERROR(RequireKeys(
          totals, {"emulation_ms", "collation_ms", "estimation_ms", "simulation_ms"}));
      MAYA_ASSIGN_OR_RETURN(usage.stage_totals.emulation_ms, HexField(totals, "emulation_ms"));
      MAYA_ASSIGN_OR_RETURN(usage.stage_totals.collation_ms, HexField(totals, "collation_ms"));
      MAYA_ASSIGN_OR_RETURN(usage.stage_totals.estimation_ms, HexField(totals, "estimation_ms"));
      MAYA_ASSIGN_OR_RETURN(usage.stage_totals.simulation_ms, HexField(totals, "simulation_ms"));
    }
    manifest.deployments.push_back(std::move(deployment));
  }
  if (manifest.deployments.empty()) {
    return Status::InvalidArgument("artifact manifest holds no deployments");
  }
  return manifest;
}

Result<std::vector<DeploymentRecord>> ArtifactStore::LoadDeployments() const {
  MAYA_ASSIGN_OR_RETURN(const ArtifactManifest manifest, ReadManifest());
  const auto load = [this](const DeploymentManifest& entry) -> Result<DeploymentRecord> {
    DeploymentRecord record;
    record.name = entry.name;
    record.cluster = entry.cluster;
    record.usage = entry.usage;
    auto bank = std::make_shared<EstimatorBank>();
    MAYA_ASSIGN_OR_RETURN(const JsonValue kernel,
                          ReadJsonFile(PathFor(entry.dir, kKernelEstimatorFile)));
    MAYA_ASSIGN_OR_RETURN(bank->kernel, ParseKernelEstimator(kernel));
    MAYA_ASSIGN_OR_RETURN(const JsonValue collective,
                          ReadJsonFile(PathFor(entry.dir, kCollectiveEstimatorFile)));
    MAYA_ASSIGN_OR_RETURN(bank->collective, ParseCollectiveEstimator(collective));
    MAYA_ASSIGN_OR_RETURN(const JsonValue validation,
                          ReadJsonFile(PathFor(entry.dir, kKernelValidationFile)));
    MAYA_ASSIGN_OR_RETURN(bank->kernel_validation, ParseKernelDataset(validation));
    record.bank = std::move(bank);
    MAYA_ASSIGN_OR_RETURN(const JsonValue kernel_cache,
                          ReadJsonFile(PathFor(entry.dir, kKernelCacheFile)));
    MAYA_ASSIGN_OR_RETURN(record.kernel_cache, ParseArray(ParseKernelEntry, kernel_cache));
    MAYA_ASSIGN_OR_RETURN(const JsonValue collective_cache,
                          ReadJsonFile(PathFor(entry.dir, kCollectiveCacheFile)));
    MAYA_ASSIGN_OR_RETURN(record.collective_cache,
                          ParseArray(ParseCollectiveEntry, collective_cache));
    // A missing sim cache is tolerated: bundles written before the stage-4
    // cache existed still warm-start (estimate caches only).
    Result<JsonValue> sim_cache = ReadJsonFile(PathFor(entry.dir, kSimCacheFile));
    if (sim_cache.ok()) {
      MAYA_ASSIGN_OR_RETURN(record.sim_cache, ParseArray(ParseSimEntry, *sim_cache));
    } else if (sim_cache.status().code() != StatusCode::kNotFound) {
      return sim_cache.status();
    }
    return record;
  };
  std::vector<DeploymentRecord> records;
  records.reserve(manifest.deployments.size());
  for (const DeploymentManifest& entry : manifest.deployments) {
    Result<DeploymentRecord> record = load(entry);
    if (!record.ok()) {
      return Status(record.status().code(),
                    "deployment '" + entry.name + "': " + record.status().message());
    }
    records.push_back(*std::move(record));
  }
  return records;
}

}  // namespace maya
