#include "src/service/bundle_merge.h"

#include <filesystem>
#include <map>
#include <unordered_set>
#include <utility>

#include "src/service/artifact_store.h"

namespace maya {
namespace {

// Appends the entries of `from` whose keys `into` lacks (keep-first) and
// returns how many duplicates were dropped.
template <typename Key, typename Value, typename Hash>
uint64_t UnionKeepFirst(std::vector<std::pair<Key, Value>>& into,
                        const std::vector<std::pair<Key, Value>>& from, Hash) {
  std::unordered_set<Key, Hash> seen;
  for (const auto& entry : into) {
    seen.insert(entry.first);
  }
  uint64_t duplicates = 0;
  for (const auto& entry : from) {
    if (seen.insert(entry.first).second) {
      into.push_back(entry);
    } else {
      ++duplicates;
    }
  }
  return duplicates;
}

}  // namespace

Result<BundleMergeReport> MergeBundles(const std::vector<std::string>& inputs,
                                       const std::string& out_dir) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("merge needs at least two input bundles");
  }
  std::error_code ec;
  const std::filesystem::path out_canonical = std::filesystem::weakly_canonical(out_dir, ec);
  for (const std::string& input : inputs) {
    if (std::filesystem::weakly_canonical(input, ec) == out_canonical) {
      return Status::InvalidArgument("output directory '" + out_dir + "' is also an input");
    }
  }

  std::vector<DeploymentRecord> merged;
  BundleMergeReport report;
  std::map<std::string, size_t> by_name;
  std::vector<std::string> first_input;  // per merged deployment
  for (const std::string& input : inputs) {
    Result<std::vector<DeploymentRecord>> records = ArtifactStore(input).LoadDeployments();
    if (!records.ok()) {
      return Status(records.status().code(),
                    "input bundle '" + input + "': " + records.status().message());
    }
    for (DeploymentRecord& record : *records) {
      auto [it, inserted] = by_name.emplace(record.name, merged.size());
      if (inserted) {
        BundleMergeReport::DeploymentReport entry;
        entry.name = record.name;
        entry.inputs = 1;
        report.deployments.push_back(std::move(entry));
        first_input.push_back(input);
        merged.push_back(std::move(record));
        continue;
      }
      DeploymentRecord& target = merged[it->second];
      BundleMergeReport::DeploymentReport& entry = report.deployments[it->second];
      // Cached durations are only meaningful for the bank that produced
      // them; same-name deployments trained differently do not merge.
      if (ArtifactStore::BankSignature(*record.bank) !=
          ArtifactStore::BankSignature(*target.bank)) {
        return Status::FailedPrecondition(
            "deployment '" + record.name + "' in '" + input +
            "' carries differently trained estimators than '" + first_input[it->second] +
            "'; refusing to merge their caches");
      }
      ++entry.inputs;
      entry.kernel_conflicts +=
          UnionKeepFirst(target.kernel_cache, record.kernel_cache, KernelDescHash{});
      entry.collective_conflicts +=
          UnionKeepFirst(target.collective_cache, record.collective_cache, CollectiveRequestHash{});
      entry.sim_conflicts +=
          UnionKeepFirst(target.sim_cache, record.sim_cache, std::hash<uint64_t>{});
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    report.deployments[i].kernel_entries = merged[i].kernel_cache.size();
    report.deployments[i].collective_entries = merged[i].collective_cache.size();
    report.deployments[i].sim_entries = merged[i].sim_cache.size();
  }
  MAYA_RETURN_IF_ERROR(ArtifactStore(out_dir).Save(merged));
  return report;
}

}  // namespace maya
