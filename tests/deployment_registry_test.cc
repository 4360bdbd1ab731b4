// DeploymentRegistry tests: registration, name resolution, derived same-arch
// what-if deployments, cross-arch bank requirements, and the bounded LRU
// eviction policy for derived entries.
//
// Pipelines are built but never run here, so untrained estimator objects are
// enough — registry topology is independent of estimator contents.
#include <gtest/gtest.h>

#include <thread>

#include "src/core/deployment_registry.h"
#include "src/estimator/collective_estimator.h"
#include "src/estimator/kernel_estimator.h"

namespace maya {
namespace {

class DeploymentRegistryTest : public ::testing::Test {
 protected:
  RandomForestKernelEstimator kernel_;
  ProfiledCollectiveEstimator collective_;

  DeploymentRegistryOptions SmallOptions(size_t max_derived = 2) {
    DeploymentRegistryOptions options;
    options.max_derived = max_derived;
    return options;
  }
};

TEST_F(DeploymentRegistryTest, RegisterAndResolve) {
  DeploymentRegistry registry(SmallOptions());
  Result<std::shared_ptr<const Deployment>> registered =
      registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ((*registered)->cluster.total_gpus(), 8);
  EXPECT_TRUE((*registered)->derived_from.empty());
  ASSERT_NE((*registered)->pipeline, nullptr);

  Result<std::shared_ptr<const Deployment>> resolved = registry.Resolve("default");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->get(), registered->get());

  // Duplicate names are refused; junk names are NotFound.
  EXPECT_EQ(registry.RegisterBorrowed("default", H100Cluster(16), &kernel_, &collective_)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Resolve("no-such-deployment").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.registered_count(), 1u);
  EXPECT_EQ(registry.derived_count(), 0u);
}

TEST_F(DeploymentRegistryTest, DerivesSameArchDeploymentFromRegisteredBank) {
  DeploymentRegistry registry(SmallOptions());
  ASSERT_TRUE(registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_).ok());
  Result<std::shared_ptr<const Deployment>> derived = registry.Resolve("h100x32");
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_EQ((*derived)->cluster.total_gpus(), 32);
  EXPECT_EQ((*derived)->cluster.gpu.arch, GpuArch::kH100);
  EXPECT_EQ((*derived)->derived_from, "default");
  // Derived deployments borrow the base deployment's estimators.
  EXPECT_EQ((*derived)->kernel_estimator, &kernel_);
  EXPECT_EQ((*derived)->collective_estimator, &collective_);
  EXPECT_EQ(registry.derived_count(), 1u);
  // Resolving again returns the resident entry (one warm pipeline).
  Result<std::shared_ptr<const Deployment>> again = registry.Resolve("h100x32");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), derived->get());
  EXPECT_EQ(registry.derived_count(), 1u);
}

TEST_F(DeploymentRegistryTest, CrossArchNeedsRegisteredBank) {
  DeploymentRegistry registry(SmallOptions());
  ASSERT_TRUE(registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_).ok());
  // No V100 bank registered: the error names the registered archs.
  Result<std::shared_ptr<const Deployment>> missing = registry.Resolve("v100x16");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(missing.status().message().find("V100"), std::string::npos);

  // Registering a V100 bank (under any name) unlocks the what-if.
  RandomForestKernelEstimator v100_kernel;
  ProfiledCollectiveEstimator v100_collective;
  ASSERT_TRUE(
      registry.RegisterBorrowed("v100-bank", V100Cluster(8), &v100_kernel, &v100_collective)
          .ok());
  Result<std::shared_ptr<const Deployment>> derived = registry.Resolve("v100x16");
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_EQ((*derived)->derived_from, "v100-bank");
  EXPECT_EQ((*derived)->kernel_estimator, &v100_kernel);
  EXPECT_EQ((*derived)->cluster.total_gpus(), 16);
}

TEST_F(DeploymentRegistryTest, DerivedEvictionIsLeastRecentlyUsed) {
  // The policy pin for the ISSUE's eviction fix: the victim is the
  // least-recently-RESOLVED derived entry — not map (alphabetical) order,
  // and never a registered entry.
  DeploymentRegistry registry(SmallOptions(/*max_derived=*/2));
  ASSERT_TRUE(registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_).ok());

  ASSERT_TRUE(registry.Resolve("h100x16").ok());  // A
  ASSERT_TRUE(registry.Resolve("h100x24").ok());  // B
  EXPECT_EQ(registry.derived_count(), 2u);
  // Touch A: B becomes least recently used. (Alphabetically "h100x16" <
  // "h100x24", so the old begin()-eviction would have picked A.)
  ASSERT_TRUE(registry.Resolve("h100x16").ok());
  ASSERT_TRUE(registry.Resolve("h100x32").ok());  // C evicts B
  EXPECT_EQ(registry.derived_count(), 2u);
  EXPECT_TRUE(registry.IsResident("h100x16"));
  EXPECT_FALSE(registry.IsResident("h100x24"));
  EXPECT_TRUE(registry.IsResident("h100x32"));
  EXPECT_TRUE(registry.IsResident("default"));  // registered entries never evict

  // An evicted name re-derives on demand.
  ASSERT_TRUE(registry.Resolve("h100x24").ok());
  EXPECT_TRUE(registry.IsResident("h100x24"));
  EXPECT_FALSE(registry.IsResident("h100x16"));  // was LRU after C's insert
}

TEST_F(DeploymentRegistryTest, ResidentNamesListsRegisteredThenDerived) {
  DeploymentRegistry registry(SmallOptions());
  ASSERT_TRUE(registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_).ok());
  RandomForestKernelEstimator v100_kernel;
  ProfiledCollectiveEstimator v100_collective;
  ASSERT_TRUE(
      registry.RegisterBorrowed("v100-bank", V100Cluster(8), &v100_kernel, &v100_collective)
          .ok());
  ASSERT_TRUE(registry.Resolve("h100x32").ok());
  const std::vector<std::string> names = registry.ResidentNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "default");
  EXPECT_EQ(names[1], "v100-bank");
  EXPECT_EQ(names[2], "h100x32");
  ASSERT_EQ(registry.Registered().size(), 2u);
  EXPECT_EQ(registry.Registered()[0]->name, "default");
  EXPECT_EQ(registry.Registered()[1]->name, "v100-bank");
}

TEST_F(DeploymentRegistryTest, UntrainedOwnedBankRefused) {
  DeploymentRegistry registry(SmallOptions());
  EXPECT_EQ(registry.Register("default", H100Cluster(8), std::make_shared<const EstimatorBank>())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register("default", H100Cluster(8), nullptr).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DeploymentRegistryTest, ConcurrentResolveSharesOnePipeline) {
  DeploymentRegistry registry(SmallOptions(/*max_derived=*/4));
  ASSERT_TRUE(registry.RegisterBorrowed("default", H100Cluster(8), &kernel_, &collective_).ok());
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Deployment>> seen(8);
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&registry, &seen, i] {
      Result<std::shared_ptr<const Deployment>> resolved = registry.Resolve("h100x16");
      if (resolved.ok()) {
        seen[i] = *resolved;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Whatever the interleaving, exactly one derived entry is resident and it
  // answers every resolver.
  EXPECT_EQ(registry.derived_count(), 1u);
  Result<std::shared_ptr<const Deployment>> resident = registry.Resolve("h100x16");
  ASSERT_TRUE(resident.ok());
  for (const std::shared_ptr<const Deployment>& deployment : seen) {
    ASSERT_NE(deployment, nullptr);
    EXPECT_EQ(deployment->cluster.total_gpus(), 16);
  }
}

}  // namespace
}  // namespace maya
