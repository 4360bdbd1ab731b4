// The fleet-of-deployments surface behind Maya's "many what-ifs per profiled
// estimator" usage (§5, Fig. 2): a named, bounded, thread-safe map of
// Deployments — each a ClusterSpec plus the per-arch estimator bank trained
// for it and a warm MayaPipeline over that bank — so one server answers
// predictions against any registered architecture, not just the cluster it
// was trained on.
//
// Two entry classes:
//   * registered deployments (Register / RegisterBorrowed) are pinned: they
//     carry their own trained bank and are never evicted;
//   * derived deployments materialize on demand when a request targets a
//     cluster name ("h100x32") with no registered entry — the registry
//     parses the name, finds a pinned deployment with the same GPU arch, and
//     builds a pipeline over that deployment's estimators for the target
//     cluster shape. Derived entries are bounded and evicted
//     least-recently-used (names are client-supplied, so an unbounded map
//     would let one caller grow the server without limit).
//
// A what-if against a different arch therefore works exactly when a bank for
// that arch is registered; otherwise Resolve reports which archs are
// available. All pipelines share the registry's ExecutionContext (one stage
// pool for the whole fleet) and pipeline knobs.
#ifndef SRC_CORE_DEPLOYMENT_REGISTRY_H_
#define SRC_CORE_DEPLOYMENT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/estimator_bank.h"
#include "src/core/pipeline.h"
#include "src/hw/cluster_spec.h"

namespace maya {

// The conventional name of the deployment an engine was constructed for —
// requests with no `deployment` field answer here.
inline constexpr const char* kDefaultDeploymentName = "default";

// One serving target: a cluster shape plus the estimators (and warm
// pipeline) that answer predictions for it. Immutable once published —
// in-flight requests hold it via shared_ptr, so eviction never invalidates a
// running prediction.
struct Deployment {
  std::string name;
  ClusterSpec cluster;
  // The trained per-arch bank. Null for borrowed-estimator deployments
  // (test fixtures, benches); derived deployments share their base
  // deployment's bank so it outlives them.
  std::shared_ptr<const EstimatorBank> bank;
  const KernelRuntimeEstimator* kernel_estimator = nullptr;
  const CollectiveEstimator* collective_estimator = nullptr;
  // Non-const pointee: Predict is const, but warm-starting imports cache
  // entries into the pipeline after the deployment is published.
  std::shared_ptr<MayaPipeline> pipeline;
  // Name of the registered deployment whose estimators this entry borrows;
  // empty for registered (pinned) deployments.
  std::string derived_from;
};

struct DeploymentRegistryOptions {
  // Bound on derived (unpinned) deployments; beyond it the least-recently-
  // resolved derived entry is evicted. Registered deployments don't count.
  size_t max_derived = 8;
  // Pipeline knobs (including the shared ExecutionContext) applied to every
  // deployment's pipeline.
  MayaPipelineOptions pipeline;
};

class DeploymentRegistry {
 public:
  explicit DeploymentRegistry(DeploymentRegistryOptions options = {});

  DeploymentRegistry(const DeploymentRegistry&) = delete;
  DeploymentRegistry& operator=(const DeploymentRegistry&) = delete;

  // Registers a pinned deployment sharing ownership of its trained bank;
  // builds the warm pipeline over it. Fails on duplicate names and untrained
  // banks.
  Result<std::shared_ptr<const Deployment>> Register(const std::string& name,
                                                     const ClusterSpec& cluster,
                                                     std::shared_ptr<const EstimatorBank> bank);

  // Borrowed-estimator variant (estimators must outlive the registry) — for
  // callers that already own a trained bank.
  Result<std::shared_ptr<const Deployment>> RegisterBorrowed(
      const std::string& name, const ClusterSpec& cluster,
      const KernelRuntimeEstimator* kernel_estimator,
      const CollectiveEstimator* collective_estimator);

  // Unregisters pinned deployment `name`. Fails kNotFound for unknown or
  // derived names. In-flight holders of the Deployment shared_ptr (and
  // derived entries that borrowed its estimators — they share the bank via
  // shared_ptr) stay valid; later resolutions of the name fail, or re-derive
  // it as a cluster-name what-if when another same-arch bank is registered.
  Status Remove(const std::string& name);

  // Looks a deployment up by name, bumping its recency. Unknown names are
  // treated as evaluation-cluster names ("h100x32", "v100x16", "a40"): the
  // registry derives a deployment over the estimators of a registered
  // same-arch entry, inserting it as an evictable derived entry. Fails when
  // the name is neither registered nor a parseable cluster name, or when no
  // registered bank matches the target architecture.
  Result<std::shared_ptr<const Deployment>> Resolve(const std::string& name) const;

  // Registered (pinned) deployments, in registration order — the save set
  // for artifact bundles.
  std::vector<std::shared_ptr<const Deployment>> Registered() const;

  // True when `name` is resident (registered or currently-cached derived) —
  // lets tests pin the eviction policy without touching recency.
  bool IsResident(const std::string& name) const;

  // Every resident name: registered deployments in registration order, then
  // derived entries in name order.
  std::vector<std::string> ResidentNames() const;

  // Every resident deployment, in ResidentNames() order, without bumping
  // derived-entry recency — the observability walk for per-deployment stats.
  std::vector<std::shared_ptr<const Deployment>> ResidentDeployments() const;

  size_t registered_count() const;
  size_t derived_count() const;
  const DeploymentRegistryOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const Deployment> deployment;
    bool pinned = false;
    uint64_t last_used = 0;  // recency stamp; 0 = never resolved
  };

  Result<std::shared_ptr<const Deployment>> Insert(const std::string& name, Entry entry);

  std::shared_ptr<MayaPipeline> BuildPipeline(const ClusterSpec& cluster,
                                              const Deployment& estimator_source) const;

  DeploymentRegistryOptions options_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, Entry> entries_;
  std::vector<std::string> registration_order_;
  mutable uint64_t clock_ = 0;
};

}  // namespace maya

#endif  // SRC_CORE_DEPLOYMENT_REGISTRY_H_
