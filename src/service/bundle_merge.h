// Offline merge of artifact bundles (see artifact_store.h) into one bundle,
// so caches warmed by separate maya_serve processes — a fleet of what-if
// servers, CI shards, a laptop and a batch job — pool their work.
//
// Merge semantics, over the store's typed DeploymentRecords:
//   - Deployments are matched by name across inputs; first-seen order is
//     preserved and distinct names are all carried into the output.
//   - Same-name deployments must carry equally trained banks, compared by
//     their canonical serialization (ArtifactStore::BankSignature): cached
//     durations are only valid for the estimators that produced them, so
//     differently trained banks under one name refuse to merge rather than
//     mix.
//   - Caches union with keep-first conflict resolution, keyed as the
//     pipeline keys them (KernelDesc, CollectiveRequest, component
//     fingerprint). Bank, validation split and usage totals come from the
//     first input that carries the name.
//
// The output is written by the store's own writer (ArtifactStore::Save):
// fsync'd tmp+rename per file, manifest removed first and written last — a
// failure mid-merge leaves a directory that never loads, not a half-merged
// bundle. Since a load and a save reproduce every file byte for byte, a
// bundle merged with itself (or with a re-save of itself) comes out
// byte-identical to the input.
#ifndef SRC_SERVICE_BUNDLE_MERGE_H_
#define SRC_SERVICE_BUNDLE_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace maya {

struct BundleMergeReport {
  struct DeploymentReport {
    std::string name;
    uint64_t inputs = 0;  // input bundles contributing this deployment
    uint64_t kernel_entries = 0;
    uint64_t collective_entries = 0;
    uint64_t sim_entries = 0;
    // Duplicate keys dropped by keep-first resolution.
    uint64_t kernel_conflicts = 0;
    uint64_t collective_conflicts = 0;
    uint64_t sim_conflicts = 0;
  };
  std::vector<DeploymentReport> deployments;
};

// Merges `inputs` (paths of existing bundle directories, earlier = higher
// precedence) into a bundle at `out_dir`. `out_dir` must not be an input.
// Fails without writing a manifest on unreadable inputs, same-name/
// different-estimator conflicts, or a failed write.
Result<BundleMergeReport> MergeBundles(const std::vector<std::string>& inputs,
                                       const std::string& out_dir);

}  // namespace maya

#endif  // SRC_SERVICE_BUNDLE_MERGE_H_
