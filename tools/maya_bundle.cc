// maya_bundle: offline artifact-bundle maintenance.
//
// Subcommands:
//   maya_bundle info DIR
//     Prints the bundle's manifest: version, deployments, per-deployment
//     cache entry counts and usage metadata.
//
//   maya_bundle merge --out=DIR IN1 IN2 [IN3 ...]
//     Merges two or more bundles into one bundle at DIR (see
//     src/service/bundle_merge.h): deployments matched by name, estimate/sim
//     caches unioned with keep-first conflict resolution, written by the
//     store's own fsync'd writer. Refuses to pool caches produced by
//     differently trained estimators under one deployment name. The merged
//     bundle is verified loadable before the tool reports success.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/service/artifact_store.h"
#include "src/service/bundle_merge.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  maya_bundle info DIR\n"
               "  maya_bundle merge --out=DIR IN1 IN2 [IN3 ...]\n");
  return 2;
}

int RunInfo(const std::string& dir) {
  using namespace maya;
  const ArtifactStore store(dir);
  Result<ArtifactManifest> manifest = store.ReadManifest();
  if (!manifest.ok()) {
    std::fprintf(stderr, "maya_bundle: %s\n", manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("bundle %s (v%d, %zu deployment%s)\n", dir.c_str(), manifest->version,
              manifest->deployments.size(), manifest->deployments.size() == 1 ? "" : "s");
  for (const DeploymentManifest& deployment : manifest->deployments) {
    std::printf("  %-16s %s  kernel=%llu collective=%llu sim=%llu", deployment.name.c_str(),
                deployment.cluster.ToString().c_str(),
                static_cast<unsigned long long>(deployment.kernel_cache_entries),
                static_cast<unsigned long long>(deployment.collective_cache_entries),
                static_cast<unsigned long long>(deployment.sim_cache_entries));
    if (deployment.usage.timed_requests > 0) {
      std::printf("  (%llu timed requests)",
                  static_cast<unsigned long long>(deployment.usage.timed_requests));
    }
    std::printf("\n");
  }
  return 0;
}

int RunMerge(const std::string& out_dir, const std::vector<std::string>& inputs) {
  using namespace maya;
  Result<BundleMergeReport> report = MergeBundles(inputs, out_dir);
  if (!report.ok()) {
    std::fprintf(stderr, "maya_bundle: %s\n", report.status().ToString().c_str());
    return 1;
  }
  // Belt and braces: the merged bundle must actually load before we claim
  // success (catches estimator/cache shape drift at merge time, not at the
  // next server start).
  const ArtifactStore store(out_dir);
  if (Result<std::vector<DeploymentRecord>> loaded = store.LoadDeployments(); !loaded.ok()) {
    std::fprintf(stderr, "maya_bundle: merged bundle fails to load: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  for (const BundleMergeReport::DeploymentReport& entry : report->deployments) {
    std::printf(
        "merged %-16s from %llu input(s): kernel=%llu (+%llu dup) collective=%llu (+%llu dup) "
        "sim=%llu (+%llu dup)\n",
        entry.name.c_str(), static_cast<unsigned long long>(entry.inputs),
        static_cast<unsigned long long>(entry.kernel_entries),
        static_cast<unsigned long long>(entry.kernel_conflicts),
        static_cast<unsigned long long>(entry.collective_entries),
        static_cast<unsigned long long>(entry.collective_conflicts),
        static_cast<unsigned long long>(entry.sim_entries),
        static_cast<unsigned long long>(entry.sim_conflicts));
  }
  std::printf("wrote bundle to %s\n", out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "info") {
    if (argc != 3) {
      return Usage();
    }
    return RunInfo(argv[2]);
  }
  if (command == "merge") {
    std::string out_dir;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--out=", 6) == 0) {
        out_dir = argv[i] + 6;
      } else if (argv[i][0] == '-') {
        std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
        return Usage();
      } else {
        inputs.push_back(argv[i]);
      }
    }
    if (out_dir.empty() || inputs.size() < 2) {
      return Usage();
    }
    return RunMerge(out_dir, inputs);
  }
  return Usage();
}
