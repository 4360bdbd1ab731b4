// Persistent estimator artifacts: a versioned on-disk bundle holding
// everything a Maya server needs to warm-start — trained per-kind kernel
// forests, the profiled collective estimator, the held-out validation split,
// and the kernel/collective estimate and sim caches — for every deployment of
// a fleet. A restarted server (or a fresh sweep process) loads the bundle
// instead of re-running profiling sweeps and re-training forests, and answers
// a repeated sweep with the previous process's cache hit rate and
// bit-identical predictions.
//
// One format (version 2): a manifest naming every deployment, its cluster,
// cache entry counts and usage totals, plus one subdirectory per deployment
// holding its estimators, validation split and caches. This module is the
// only code that knows the layout (artifact_store.cc spells it out): one
// writer and one reader, both over DeploymentRecord. All
// prediction-relevant doubles use the bit-exact hex encoding from
// src/estimator/serialization.h, and integers parse exactly, so a load and
// a save reproduce every file byte for byte.
#ifndef SRC_SERVICE_ARTIFACT_STORE_H_
#define SRC_SERVICE_ARTIFACT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/deployment_registry.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/hw/cluster_spec.h"

namespace maya {

// Bumped on any incompatible change to the bundle layout or encodings.
inline constexpr int kArtifactBundleVersion = 2;

// Cumulative per-stage wall time a serving engine accumulated for one
// deployment (ServiceStats::stage_totals), persisted so observability
// counters survive restarts like cache contents do.
struct DeploymentUsage {
  StageTimings stage_totals;
  uint64_t timed_requests = 0;
};

// One deployment as a bundle holds it: everything needed to re-register it
// and warm its pipeline bit-identically.
struct DeploymentRecord {
  std::string name;
  ClusterSpec cluster;
  std::shared_ptr<const EstimatorBank> bank;
  std::vector<std::pair<KernelDesc, double>> kernel_cache;
  std::vector<std::pair<CollectiveRequest, double>> collective_cache;
  std::vector<std::pair<uint64_t, std::shared_ptr<const SimCacheEntry>>> sim_cache;
  DeploymentUsage usage;

  uint64_t cache_entries() const {
    return kernel_cache.size() + collective_cache.size() + sim_cache.size();
  }
};

// A deployment's manifest entry: what `maya_bundle info` shows without
// loading the estimators.
struct DeploymentManifest {
  std::string name;
  std::string dir;  // bundle-relative subdirectory
  ClusterSpec cluster;
  uint64_t kernel_cache_entries = 0;
  uint64_t collective_cache_entries = 0;
  uint64_t sim_cache_entries = 0;
  DeploymentUsage usage;
};

struct ArtifactManifest {
  int version = 0;
  std::vector<DeploymentManifest> deployments;
};

class ArtifactStore {
 public:
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }
  // True when the bundle directory holds a manifest.
  bool Exists() const;

  // The writer. Every file is published by fsync'd tmp+rename (fault sites
  // artifact.corrupt / write_short / fsync / rename_torn); any existing
  // manifest is removed first and the new one lands last, so a failure at
  // any point leaves a manifest-less directory that never loads — not a torn
  // bundle. Fails on an empty list or an untrained bank.
  Status Save(const std::vector<DeploymentRecord>& deployments) const;

  // One deployment named "default": `bank` plus the pipeline's current
  // caches.
  Status Save(const ClusterSpec& cluster, const EstimatorBank& bank,
              const MayaPipeline& pipeline) const;

  // Every registered deployment with its pipeline's caches and, by name, the
  // usage in `usage`. Borrowed-estimator deployments cannot be persisted and
  // make the save fail.
  Status SaveRegistry(const DeploymentRegistry& registry,
                      const std::map<std::string, DeploymentUsage>& usage = {}) const;

  // The manifest alone; a version other than kArtifactBundleVersion is
  // FAILED_PRECONDITION.
  Result<ArtifactManifest> ReadManifest() const;

  // The reader: every deployment with its bank and cache entries, fully
  // parsed and validated, in manifest order.
  Result<std::vector<DeploymentRecord>> LoadDeployments() const;

  // Structural identities via the canonical JSON encodings: equal clusters
  // serialize equally, and so do equally trained banks (their kernel and
  // collective estimators).
  static std::string ClusterSignature(const ClusterSpec& cluster);
  static std::string BankSignature(const EstimatorBank& bank);

 private:
  std::string PathFor(const std::string& subdir, const char* file) const;

  std::string dir_;
};

}  // namespace maya

#endif  // SRC_SERVICE_ARTIFACT_STORE_H_
