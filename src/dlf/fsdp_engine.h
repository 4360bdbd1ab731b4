// Data-parallel sharding engines: PyTorch DDP, FSDP and DeepSpeed ZeRO 1-3,
// with optional activation offload and torch.compile — the framework matrix
// of the paper's generality study (Table 4).
//
// One parallel dimension (data) over all ranks; sharding stage controls
// which state is partitioned and which collectives appear:
//   DDP    — full replicas, gradient all-reduce.
//   ZeRO-1 — optimizer states sharded; grads reduce-scatter + param all-gather.
//   ZeRO-2 — + gradients sharded.
//   ZeRO-3 / FSDP — + parameters sharded; per-layer all-gather in fwd & bwd.
#ifndef SRC_DLF_FSDP_ENGINE_H_
#define SRC_DLF_FSDP_ENGINE_H_

#include <vector>

#include "src/dlf/comm_registry.h"
#include "src/dlf/rank_plan.h"
#include "src/dlf/train_config.h"
#include "src/dlf/transformer_ops.h"

namespace maya {

// Const-after-construction like the other engines: RunWorker is safe to call
// concurrently for distinct ranks from the parallel launcher.
class FsdpEngine {
 public:
  FsdpEngine(const ModelConfig& model, const TrainConfig& config, const ClusterSpec& cluster);

  // One training iteration for `rank`. OOM propagates as a Status.
  Status RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                   JobCommRegistry* registry) const;

  // Registry-only mirror of the communicator names RunWorker uses, in first-
  // use order (see MegatronEngine::RegisterComms).
  void RegisterComms(int rank, JobCommRegistry* registry) const;

  // Hyperscale mode: every rank is a data-parallel twin of rank 0 (all ranks
  // execute the same script, so their op sequences share one
  // StructuralSignature stream), so there is exactly one equivalence class
  // spanning the whole world.
  std::vector<RankClass> EquivalenceClasses() const;

  // The single world communicator (when world > 1), members by rank.
  std::vector<CommSpec> DescribeComms(int rank) const;

 private:
  int effective_zero_stage() const;

  ModelConfig model_;
  TrainConfig config_;
  ClusterSpec cluster_;
};

}  // namespace maya

#endif  // SRC_DLF_FSDP_ENGINE_H_
