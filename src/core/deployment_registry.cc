#include "src/core/deployment_registry.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"
#include "src/hw/gpu_spec.h"

namespace maya {

DeploymentRegistry::DeploymentRegistry(DeploymentRegistryOptions options)
    : options_(std::move(options)) {
  options_.max_derived = std::max<size_t>(1, options_.max_derived);
}

std::shared_ptr<MayaPipeline> DeploymentRegistry::BuildPipeline(
    const ClusterSpec& cluster, const Deployment& estimator_source) const {
  return std::make_shared<MayaPipeline>(cluster, estimator_source.kernel_estimator,
                                        estimator_source.collective_estimator,
                                        options_.pipeline);
}

Result<std::shared_ptr<const Deployment>> DeploymentRegistry::Insert(const std::string& name,
                                                                     Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(name) > 0) {
    return Status::AlreadyExists("deployment '" + name + "' is already registered");
  }
  std::shared_ptr<const Deployment> deployment = entry.deployment;
  entries_.emplace(name, std::move(entry));
  registration_order_.push_back(name);
  return deployment;
}

Status DeploymentRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.pinned) {
    return Status::NotFound("no registered deployment named '" + name + "'");
  }
  entries_.erase(it);
  // Insert records every entry (pinned and derived) in registration_order_;
  // a stale name left behind would leak one slot per add/remove cycle.
  registration_order_.erase(
      std::remove(registration_order_.begin(), registration_order_.end(), name),
      registration_order_.end());
  return Status::Ok();
}

Result<std::shared_ptr<const Deployment>> DeploymentRegistry::Register(
    const std::string& name, const ClusterSpec& cluster,
    std::shared_ptr<const EstimatorBank> bank) {
  if (bank == nullptr || bank->kernel == nullptr || bank->collective == nullptr) {
    return Status::FailedPrecondition("deployment '" + name + "': estimator bank is not trained");
  }
  auto deployment = std::make_shared<Deployment>();
  deployment->name = name;
  deployment->cluster = cluster;
  deployment->kernel_estimator = bank->kernel.get();
  deployment->collective_estimator = bank->collective.get();
  deployment->bank = std::move(bank);
  deployment->pipeline = BuildPipeline(cluster, *deployment);
  Entry entry;
  entry.deployment = std::move(deployment);
  entry.pinned = true;
  return Insert(name, std::move(entry));
}

Result<std::shared_ptr<const Deployment>> DeploymentRegistry::RegisterBorrowed(
    const std::string& name, const ClusterSpec& cluster,
    const KernelRuntimeEstimator* kernel_estimator,
    const CollectiveEstimator* collective_estimator) {
  if (kernel_estimator == nullptr || collective_estimator == nullptr) {
    return Status::InvalidArgument("deployment '" + name + "': null borrowed estimator");
  }
  auto deployment = std::make_shared<Deployment>();
  deployment->name = name;
  deployment->cluster = cluster;
  deployment->kernel_estimator = kernel_estimator;
  deployment->collective_estimator = collective_estimator;
  deployment->pipeline = BuildPipeline(cluster, *deployment);
  Entry entry;
  entry.deployment = std::move(deployment);
  entry.pinned = true;
  return Insert(name, std::move(entry));
}

Result<std::shared_ptr<const Deployment>> DeploymentRegistry::Resolve(
    const std::string& name) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    it->second.last_used = ++clock_;
    return it->second.deployment;
  }

  // Unknown name: derive a deployment for the named evaluation cluster from
  // a registered same-arch bank. The pipeline build happens outside the lock
  // (it touches no registry state), so concurrent resolves of registered
  // deployments never wait on it; the race of two threads deriving the same
  // name at once resolves by second-insert-wins-nothing (re-lookup below).
  Result<ClusterSpec> cluster = ClusterSpecByName(name);
  if (!cluster.ok()) {
    return Status::NotFound("deployment '" + name +
                            "' is not registered and is not an evaluation cluster name: " +
                            cluster.status().message());
  }
  std::shared_ptr<const Deployment> base;
  std::string available;
  for (const std::string& registered : registration_order_) {
    const Entry& entry = entries_.at(registered);
    if (!entry.pinned) {
      continue;
    }
    if (!available.empty()) {
      available += ", ";
    }
    available += registered + " (" + GpuArchName(entry.deployment->cluster.gpu.arch) + ")";
    if (base == nullptr && entry.deployment->cluster.gpu.arch == cluster->gpu.arch) {
      base = entry.deployment;
    }
  }
  if (base == nullptr) {
    return Status::FailedPrecondition(
        "what-if cluster '" + name + "' needs a " + GpuArchName(cluster->gpu.arch) +
        " estimator bank, but none is registered (registered deployments: " +
        (available.empty() ? "none" : available) + "); kernel forests do not transfer across archs");
  }

  lock.unlock();
  auto derived = std::make_shared<Deployment>();
  derived->name = name;
  derived->cluster = *cluster;
  derived->bank = base->bank;  // keeps an owned base bank alive past base eviction
  derived->kernel_estimator = base->kernel_estimator;
  derived->collective_estimator = base->collective_estimator;
  derived->pipeline = BuildPipeline(*cluster, *base);
  derived->derived_from = base->name;
  lock.lock();

  auto again = entries_.find(name);
  if (again != entries_.end()) {
    // Another resolver derived it while we built ours; use the resident one
    // so every caller shares a single warm pipeline (and its caches).
    again->second.last_used = ++clock_;
    return again->second.deployment;
  }
  // Bound the derived set: evict the least-recently-resolved derived entry.
  size_t derived_count = 0;
  for (const auto& [entry_name, entry] : entries_) {
    (void)entry_name;
    derived_count += entry.pinned ? 0 : 1;
  }
  if (derived_count >= options_.max_derived) {
    auto victim = entries_.end();
    for (auto candidate = entries_.begin(); candidate != entries_.end(); ++candidate) {
      if (candidate->second.pinned) {
        continue;
      }
      if (victim == entries_.end() || candidate->second.last_used < victim->second.last_used) {
        victim = candidate;
      }
    }
    if (victim != entries_.end()) {
      entries_.erase(victim);  // in-flight users keep it alive via shared_ptr
    }
  }
  Entry entry;
  entry.deployment = derived;
  entry.pinned = false;
  entry.last_used = ++clock_;
  entries_.emplace(name, std::move(entry));
  return std::shared_ptr<const Deployment>(std::move(derived));
}

std::vector<std::shared_ptr<const Deployment>> DeploymentRegistry::Registered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const Deployment>> registered;
  registered.reserve(registration_order_.size());
  for (const std::string& name : registration_order_) {
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.pinned) {
      registered.push_back(it->second.deployment);
    }
  }
  return registered;
}

std::vector<std::string> DeploymentRegistry::ResidentNames() const {
  std::vector<std::string> names;
  for (const std::shared_ptr<const Deployment>& deployment : ResidentDeployments()) {
    names.push_back(deployment->name);
  }
  return names;
}

std::vector<std::shared_ptr<const Deployment>> DeploymentRegistry::ResidentDeployments() const {
  // THE resident-order walk (registered in registration order, then derived
  // in name order) — ResidentNames() and the stats `per_deployment` contract
  // both derive from it.
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const Deployment>> deployments;
  deployments.reserve(entries_.size());
  for (const std::string& name : registration_order_) {
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.pinned) {
      deployments.push_back(it->second.deployment);
    }
  }
  for (const auto& [name, entry] : entries_) {
    (void)name;
    if (!entry.pinned) {
      deployments.push_back(entry.deployment);  // std::map: name-ordered
    }
  }
  return deployments;
}

bool DeploymentRegistry::IsResident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) > 0;
}

size_t DeploymentRegistry::registered_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    count += entry.pinned ? 1 : 0;
  }
  return count;
}

size_t DeploymentRegistry::derived_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    count += entry.pinned ? 0 : 1;
  }
  return count;
}

}  // namespace maya
